//! IPFS nodes and the swarm: add/cat/pin plus a bitswap-style block
//! exchange between peers.
//!
//! Networking is simulated: a fetch walks the DAG breadth-first, asking
//! connected peers for each missing block, and returns [`FetchStats`]
//! (blocks, bytes, want-list rounds) that `ofl-netsim` converts into wall
//! time for the paper's Fig 7 overhead breakdown.

use crate::blockstore::{Blockstore, BlockstoreError};
use crate::cid::{Cid, Codec};
use crate::dag::{build_dag, DagNode, CHUNK_SIZE};
use std::collections::HashMap;

/// Result of adding a file to a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddResult {
    /// Root CID (what gets sent to the smart contract).
    pub root: Cid,
    /// Number of blocks the DAG comprises.
    pub blocks: usize,
    /// Total bytes stored (payload + DAG overhead).
    pub bytes_stored: u64,
    /// Original file size.
    pub file_size: u64,
}

/// Transfer statistics from a swarm fetch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// Blocks copied from peers (0 if everything was local).
    pub blocks_fetched: usize,
    /// Bytes copied from peers.
    pub bytes_fetched: u64,
    /// Want-list round trips (≥ DAG depth when remote).
    pub rounds: usize,
    /// Which peer served each block count, for diagnostics.
    pub providers: HashMap<String, usize>,
}

/// Errors from node/swarm operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IpfsError {
    /// Block missing locally and from every connected peer.
    BlockUnavailable(Cid),
    /// DAG node failed to parse during traversal.
    CorruptDag(Cid),
    /// Underlying store rejected a block.
    Store(BlockstoreError),
    /// Peer id not found in the swarm.
    UnknownPeer(String),
}

impl From<BlockstoreError> for IpfsError {
    fn from(e: BlockstoreError) -> Self {
        IpfsError::Store(e)
    }
}

impl core::fmt::Display for IpfsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IpfsError::BlockUnavailable(cid) => write!(f, "no provider for block {cid}"),
            IpfsError::CorruptDag(cid) => write!(f, "corrupt DAG node {cid}"),
            IpfsError::Store(e) => write!(f, "blockstore: {e}"),
            IpfsError::UnknownPeer(p) => write!(f, "unknown peer {p}"),
        }
    }
}

impl std::error::Error for IpfsError {}

/// One IPFS node: a peer id and a block store.
#[derive(Debug, Clone)]
pub struct IpfsNode {
    /// Peer identifier (human-readable in this simulator).
    pub peer_id: String,
    store: Blockstore,
}

impl IpfsNode {
    /// Creates a node.
    pub fn new(peer_id: impl Into<String>) -> IpfsNode {
        IpfsNode {
            peer_id: peer_id.into(),
            store: Blockstore::new(),
        }
    }

    /// Adds a file: chunks, builds the DAG, stores and pins everything.
    pub fn add(&mut self, data: &[u8]) -> AddResult {
        self.add_chunked(data, CHUNK_SIZE)
    }

    /// Adds with an explicit chunk size (for tests and ablations).
    pub fn add_chunked(&mut self, data: &[u8], chunk_size: usize) -> AddResult {
        let dag = build_dag(data, chunk_size);
        let blocks = dag.blocks.len();
        let mut bytes_stored = 0;
        // `build_dag` derived every CID from its block's bytes just now.
        for block in dag.blocks {
            bytes_stored += block.data.len() as u64;
            self.store.put_built(block.cid, block.data);
        }
        self.store.pin(dag.root.clone());
        AddResult {
            root: dag.root,
            blocks,
            bytes_stored,
            file_size: dag.file_size,
        }
    }

    /// Reassembles a file from local blocks only.
    pub fn cat_local(&self, root: &Cid) -> Result<Vec<u8>, IpfsError> {
        let mut out = Vec::new();
        self.cat_into(root, &mut out)?;
        Ok(out)
    }

    fn cat_into(&self, cid: &Cid, out: &mut Vec<u8>) -> Result<(), IpfsError> {
        let data = self
            .store
            .get(cid)
            .ok_or_else(|| IpfsError::BlockUnavailable(cid.clone()))?;
        if cid.version() == 1 && cid.codec() == Codec::DagPb {
            let node = DagNode::from_bytes(data).map_err(|_| IpfsError::CorruptDag(cid.clone()))?;
            let links = node.links;
            for link in links {
                self.cat_into(&link.cid, out)?;
            }
        } else {
            out.extend_from_slice(data);
        }
        Ok(())
    }

    /// Whether the node holds a block.
    pub fn has_block(&self, cid: &Cid) -> bool {
        self.store.has(cid)
    }

    /// Direct store access (pin management, GC).
    pub fn store_mut(&mut self) -> &mut Blockstore {
        &mut self.store
    }

    /// Read-only store access.
    pub fn store(&self) -> &Blockstore {
        &self.store
    }
}

/// A set of connected IPFS nodes (full mesh, as in the paper's single
/// campus network).
#[derive(Debug, Default)]
pub struct Swarm {
    nodes: Vec<IpfsNode>,
}

impl Swarm {
    /// An empty swarm.
    pub fn new() -> Swarm {
        Swarm::default()
    }

    /// Adds a node, returning its index.
    pub fn add_node(&mut self, node: IpfsNode) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Spawns `count` nodes named `prefix-i`.
    pub fn spawn(prefix: &str, count: usize) -> Swarm {
        let mut swarm = Swarm::new();
        for i in 0..count {
            swarm.add_node(IpfsNode::new(format!("{prefix}-{i}")));
        }
        swarm
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the swarm has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node access by index.
    pub fn node(&self, index: usize) -> &IpfsNode {
        &self.nodes[index]
    }

    /// Mutable node access by index.
    pub fn node_mut(&mut self, index: usize) -> &mut IpfsNode {
        &mut self.nodes[index]
    }

    /// Finds a node index by peer id.
    pub fn find(&self, peer_id: &str) -> Result<usize, IpfsError> {
        self.nodes
            .iter()
            .position(|n| n.peer_id == peer_id)
            .ok_or_else(|| IpfsError::UnknownPeer(peer_id.to_string()))
    }

    /// Bitswap-style fetch: node `requester` obtains the full DAG under
    /// `root`, copying missing blocks from whichever peer has them. Returns
    /// the reassembled file and transfer statistics.
    pub fn fetch(
        &mut self,
        requester: usize,
        root: &Cid,
    ) -> Result<(Vec<u8>, FetchStats), IpfsError> {
        let mut stats = FetchStats::default();
        // Breadth-first over the DAG: each level is one want-list round.
        let mut frontier = vec![root.clone()];
        while !frontier.is_empty() {
            stats.rounds += 1;
            let mut next = Vec::new();
            for cid in frontier {
                if !self.nodes[requester].store.has(&cid) {
                    let (provider_idx, data) = self
                        .locate(requester, &cid)
                        .ok_or_else(|| IpfsError::BlockUnavailable(cid.clone()))?;
                    stats.blocks_fetched += 1;
                    stats.bytes_fetched += data.len() as u64;
                    let provider_id = self.nodes[provider_idx].peer_id.clone();
                    *stats.providers.entry(provider_id).or_insert(0) += 1;
                    self.nodes[requester].store.put(cid.clone(), data)?;
                }
                // Expand interior nodes.
                if cid.version() == 1 && cid.codec() == Codec::DagPb {
                    let data = self.nodes[requester].store.get(&cid).expect("just stored");
                    let node = DagNode::from_bytes(data)
                        .map_err(|_| IpfsError::CorruptDag(cid.clone()))?;
                    next.extend(node.links.into_iter().map(|l| l.cid));
                }
            }
            frontier = next;
        }
        // Pin the fetched root so GC keeps it, then reassemble.
        self.nodes[requester].store.pin(root.clone());
        let data = self.nodes[requester].cat_local(root)?;
        Ok((data, stats))
    }

    fn locate(&self, requester: usize, cid: &Cid) -> Option<(usize, Vec<u8>)> {
        for (i, node) in self.nodes.iter().enumerate() {
            if i == requester {
                continue;
            }
            if let Some(data) = node.store.get(cid) {
                return Some((i, data.to_vec()));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_then_local_cat() {
        let mut node = IpfsNode::new("solo");
        let data = vec![0xabu8; 700 * 1024];
        let added = node.add(&data);
        assert_eq!(added.file_size, data.len() as u64);
        assert_eq!(added.blocks, 4); // 3 leaves + root
        assert_eq!(node.cat_local(&added.root).unwrap(), data);
    }

    #[test]
    fn fetch_across_swarm() {
        let mut swarm = Swarm::spawn("peer", 3);
        let data = vec![0x11u8; 317 * 1024]; // paper's model size
        let added = swarm.node_mut(0).add(&data);
        let (fetched, stats) = swarm.fetch(2, &added.root).unwrap();
        assert_eq!(fetched, data);
        assert_eq!(stats.blocks_fetched, 3);
        assert!(stats.bytes_fetched >= data.len() as u64);
        assert_eq!(stats.rounds, 2); // root round + leaves round
        assert_eq!(stats.providers.get("peer-0"), Some(&3));
        // Second fetch is fully local: zero transfer.
        let (_, stats2) = swarm.fetch(2, &added.root).unwrap();
        assert_eq!(stats2.blocks_fetched, 0);
        assert_eq!(stats2.bytes_fetched, 0);
    }

    #[test]
    fn fetch_refuses_a_tampered_block_from_a_peer() {
        let mut swarm = Swarm::spawn("peer", 2);
        let data = vec![0x5au8; 700 * 1024];
        let added = swarm.node_mut(0).add(&data);
        // Peer 0's copy of one leaf goes bad after the add.
        let root = swarm.node(0).store().get(&added.root).unwrap();
        let leaf = DagNode::from_bytes(root).unwrap().links[1].cid.clone();
        swarm
            .node_mut(0)
            .store_mut()
            .put_built(leaf.clone(), vec![0xffu8; 1024]);
        assert_eq!(
            swarm.fetch(1, &added.root),
            Err(IpfsError::Store(BlockstoreError::IntegrityMismatch))
        );
        assert!(!swarm.node(1).has_block(&leaf));
    }

    #[test]
    fn fetch_single_block_file() {
        let mut swarm = Swarm::spawn("peer", 2);
        let added = swarm.node_mut(0).add(b"tiny model");
        let (data, stats) = swarm.fetch(1, &added.root).unwrap();
        assert_eq!(data, b"tiny model");
        assert_eq!(stats.blocks_fetched, 1);
        assert_eq!(stats.rounds, 1);
    }

    #[test]
    fn missing_block_is_error() {
        let mut swarm = Swarm::spawn("peer", 2);
        let phantom = Cid::v0_of(b"never added");
        assert!(matches!(
            swarm.fetch(1, &phantom),
            Err(IpfsError::BlockUnavailable(_))
        ));
    }

    #[test]
    fn fetch_prefers_any_provider() {
        // Block lives on two nodes; fetch succeeds and reports one of them.
        let mut swarm = Swarm::spawn("peer", 4);
        let data = b"replicated".to_vec();
        let root = swarm.node_mut(0).add(&data).root;
        swarm.node_mut(1).add(&data);
        let (_, stats) = swarm.fetch(3, &root).unwrap();
        #[expect(clippy::disallowed_methods, reason = "the sum is order-independent")]
        let provided: usize = stats.providers.values().sum();
        assert_eq!(provided, 1);
    }

    #[test]
    fn ten_owners_one_buyer_scenario() {
        // The paper's demo: 10 model owners add models; the buyer fetches
        // all of them.
        let mut swarm = Swarm::spawn("owner", 10);
        let buyer = swarm.add_node(IpfsNode::new("buyer"));
        let mut roots = Vec::new();
        for i in 0..10 {
            let model = vec![i as u8; 317 * 1024];
            roots.push(swarm.node_mut(i).add(&model).root);
        }
        let mut total_bytes = 0;
        for (i, root) in roots.iter().enumerate() {
            let (data, stats) = swarm.fetch(buyer, root).unwrap();
            assert_eq!(data, vec![i as u8; 317 * 1024]);
            total_bytes += stats.bytes_fetched;
        }
        // ~10 × 317 KB plus DAG overhead.
        assert!(total_bytes > 10 * 317 * 1024);
        assert!(total_bytes < 11 * 317 * 1024);
    }

    #[test]
    fn find_by_peer_id() {
        let swarm = Swarm::spawn("n", 3);
        assert_eq!(swarm.find("n-1").unwrap(), 1);
        assert!(matches!(
            swarm.find("ghost"),
            Err(IpfsError::UnknownPeer(_))
        ));
    }

    #[test]
    fn gc_after_unpin_frees_space() {
        let mut node = IpfsNode::new("gc");
        let added = node.add(&vec![9u8; 400 * 1024]);
        let before = node.store().total_bytes();
        node.store_mut().unpin(&added.root);
        let collected = node.store_mut().gc();
        assert_eq!(collected, added.blocks);
        assert!(node.store().total_bytes() < before);
    }
}
