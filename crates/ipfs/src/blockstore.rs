//! The block store: a content-addressed key-value store with integrity
//! verification on insert, plus pinning and mark-and-sweep garbage
//! collection.

use crate::cid::Cid;
use crate::dag::DagNode;
use std::collections::{HashMap, HashSet, VecDeque};

/// Errors from block-store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockstoreError {
    /// Data does not hash to the claimed CID.
    IntegrityMismatch,
    /// Block not present.
    NotFound(Cid),
}

impl core::fmt::Display for BlockstoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BlockstoreError::IntegrityMismatch => write!(f, "block data does not match CID"),
            BlockstoreError::NotFound(cid) => write!(f, "block {cid} not found"),
        }
    }
}

impl std::error::Error for BlockstoreError {}

/// An in-memory content-addressed block store.
#[derive(Debug, Default, Clone)]
pub struct Blockstore {
    blocks: HashMap<Cid, Vec<u8>>,
    pins: HashSet<Cid>,
}

impl Blockstore {
    /// An empty store.
    pub fn new() -> Blockstore {
        Blockstore::default()
    }

    /// Inserts a block after verifying `data` hashes to `cid`.
    pub fn put(&mut self, cid: Cid, data: Vec<u8>) -> Result<(), BlockstoreError> {
        if !cid.hash().verify(&data) {
            return Err(BlockstoreError::IntegrityMismatch);
        }
        self.blocks.insert(cid, data);
        Ok(())
    }

    /// Inserts a block whose `cid` was computed from `data` by the caller
    /// itself, without hashing it again. Only [`IpfsNode::add_chunked`]
    /// stores blocks this way: everything from elsewhere, a peer's block
    /// included, goes through [`Blockstore::put`].
    ///
    /// [`IpfsNode::add_chunked`]: crate::swarm::IpfsNode::add_chunked
    pub(crate) fn put_built(&mut self, cid: Cid, data: Vec<u8>) {
        self.blocks.insert(cid, data);
    }

    /// Fetches a block.
    pub fn get(&self, cid: &Cid) -> Option<&[u8]> {
        self.blocks.get(cid).map(Vec::as_slice)
    }

    /// Presence check.
    pub fn has(&self, cid: &Cid) -> bool {
        self.blocks.contains_key(cid)
    }

    /// Number of blocks stored.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if no blocks are stored.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Total stored bytes.
    #[expect(clippy::disallowed_methods, reason = "the sum is order-independent")]
    pub fn total_bytes(&self) -> u64 {
        self.blocks.values().map(|b| b.len() as u64).sum()
    }

    /// Pins a root CID, protecting it (and, transitively, its DAG) from GC.
    pub fn pin(&mut self, cid: Cid) {
        self.pins.insert(cid);
    }

    /// Removes a pin.
    pub fn unpin(&mut self, cid: &Cid) -> bool {
        self.pins.remove(cid)
    }

    /// Mark-and-sweep GC: removes every block not reachable from a pin.
    /// Returns the number of blocks collected.
    pub fn gc(&mut self) -> usize {
        let mut live: HashSet<Cid> = HashSet::new();
        #[expect(
            clippy::disallowed_methods,
            reason = "the live set reached from the pins does not depend on their order"
        )]
        let mut queue: VecDeque<Cid> = self.pins.iter().cloned().collect();
        while let Some(cid) = queue.pop_front() {
            if !live.insert(cid.clone()) {
                continue;
            }
            if let Some(data) = self.blocks.get(&cid) {
                // Interior nodes reference children; leaves don't parse.
                if cid.codec() == crate::cid::Codec::DagPb && cid.version() == 1 {
                    if let Ok(node) = DagNode::from_bytes(data) {
                        for link in node.links {
                            queue.push_back(link.cid);
                        }
                    }
                }
            }
        }
        let before = self.blocks.len();
        self.blocks.retain(|cid, _| live.contains(cid));
        before - self.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{build_dag, CHUNK_SIZE};

    #[test]
    fn put_get_roundtrip() {
        let mut store = Blockstore::new();
        let cid = Cid::v0_of(b"data");
        store.put(cid.clone(), b"data".to_vec()).unwrap();
        assert_eq!(store.get(&cid), Some(&b"data"[..]));
        assert!(store.has(&cid));
        assert_eq!(store.len(), 1);
        assert_eq!(store.total_bytes(), 4);
    }

    #[test]
    fn integrity_enforced() {
        let mut store = Blockstore::new();
        let cid = Cid::v0_of(b"honest");
        assert_eq!(
            store.put(cid, b"tampered".to_vec()),
            Err(BlockstoreError::IntegrityMismatch)
        );
        assert!(store.is_empty());
    }

    #[test]
    fn gc_keeps_pinned_dag() {
        let mut store = Blockstore::new();
        // A multi-block file, pinned.
        let keep = vec![1u8; 300 * 1024];
        let kept_dag = build_dag(&keep, CHUNK_SIZE);
        for b in &kept_dag.blocks {
            store.put(b.cid.clone(), b.data.clone()).unwrap();
        }
        store.pin(kept_dag.root.clone());
        // An unpinned file.
        let drop_data = vec![2u8; 300 * 1024];
        let dropped_dag = build_dag(&drop_data, CHUNK_SIZE);
        for b in &dropped_dag.blocks {
            store.put(b.cid.clone(), b.data.clone()).unwrap();
        }
        let collected = store.gc();
        assert_eq!(collected, dropped_dag.blocks.len());
        for b in &kept_dag.blocks {
            assert!(store.has(&b.cid), "pinned DAG block must survive GC");
        }
        for b in &dropped_dag.blocks {
            assert!(!store.has(&b.cid));
        }
    }

    #[test]
    fn unpin_then_gc_collects() {
        let mut store = Blockstore::new();
        let cid = Cid::v0_of(b"ephemeral");
        store.put(cid.clone(), b"ephemeral".to_vec()).unwrap();
        store.pin(cid.clone());
        assert_eq!(store.gc(), 0);
        assert!(store.unpin(&cid));
        assert!(!store.unpin(&cid)); // idempotent
        assert_eq!(store.gc(), 1);
        assert!(!store.has(&cid));
    }

    #[test]
    fn gc_on_empty_store() {
        let mut store = Blockstore::new();
        assert_eq!(store.gc(), 0);
    }
}
