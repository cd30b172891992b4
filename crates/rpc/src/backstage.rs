//! Backstage operations: the **simulator's** side channel to a node
//! backend, as a typed, wire-able request/reply pair.
//!
//! Client traffic travels as [`RpcRequest`](crate::RpcRequest) envelopes
//! and is priced, dropped, and metered by decorators. The simulation
//! driver, though, also owns the infrastructure: it mines slots, checks
//! conservation invariants, spawns IPFS nodes, and injects failures.
//! Historically those backstage hands reached straight into the backend via
//! the `chain()`/`swarm_mut()` reference accessors — which can never cross
//! a process boundary. A [`BackstageOp`] is the same hand as a value: the
//! in-process backend answers it locally ([`dispatch_local`]), and the
//! [`SocketProvider`](crate::SocketProvider) ships it to the `rpcd` daemon
//! as one frame.
//!
//! Backstage traffic is deliberately **not** client traffic: decorators
//! forward it untouched (no pricing, no faults, no metering), exactly as
//! the reference accessors always bypassed them.

use crate::provider::NodeProvider;
use ofl_eth::block::{Block, Receipt};
use ofl_eth::chain::ChainConfig;
use ofl_ipfs::cid::Cid;
use ofl_ipfs::swarm::IpfsNode;
use ofl_primitives::u256::U256;
use ofl_primitives::{H160, H256};

/// One backstage request to a node backend.
#[derive(Debug, Clone, PartialEq)]
pub enum BackstageOp {
    /// Mine the slot at `slot_secs` into a block (clock-driven block
    /// production — the network produces blocks whether or not any client
    /// watches).
    MineSlot {
        /// The slot boundary, in whole seconds.
        slot_secs: u64,
    },
    /// A 12-second slot boundary elapsed (window-based decorators renew).
    SlotElapsed,
    /// Current chain height.
    Height,
    /// The chain's static parameters.
    Config,
    /// Transactions waiting in the mempool.
    MempoolLen,
    /// Sum of all live account balances (conservation checks).
    TotalSupply,
    /// Total wei burned by EIP-1559 (conservation checks).
    Burned,
    /// The mined receipt for a hash, if any — the driver's ground truth,
    /// unaffected by flaky client polls.
    ReceiptOf {
        /// Transaction hash.
        hash: H256,
    },
    /// Whether a hash still waits in the mempool (evicted vs merely
    /// unmined).
    IsPending {
        /// Transaction hash.
        hash: H256,
    },
    /// An account balance read for invariant checks.
    BalanceOf {
        /// Account queried.
        address: H160,
    },
    /// The current base fee.
    BaseFee,
    /// Spawn one new IPFS node per label into the backend's swarm, in
    /// label order, returning their indices — a market's buyer and owner
    /// nodes come up in one round trip.
    SpawnIpfsNodes {
        /// The nodes' peer ids.
        labels: Vec<String>,
    },
    /// Failure injection: unpin `cid` on `node` and garbage-collect, so no
    /// peer can serve the content any more.
    DropIpfsBlock {
        /// Node index in the swarm.
        node: u64,
        /// Root CID to drop.
        cid: Cid,
    },
    /// Per CID, whether *any* node in the swarm can still serve it — a
    /// buyer's whole finalize check in one round trip.
    SwarmHas {
        /// Root CIDs queried.
        cids: Vec<Cid>,
    },
}

/// The backend's answer to a [`BackstageOp`], variant-matched to the op.
#[derive(Debug, Clone, PartialEq)]
pub enum BackstageReply {
    /// [`BackstageOp::MineSlot`]: the mined block (boxed: a block is by
    /// far the largest reply, and most replies are a word or two).
    Mined(Box<Block>),
    /// [`BackstageOp::SlotElapsed`]: acknowledged.
    SlotAcked,
    /// [`BackstageOp::Height`]: chain height.
    Height(u64),
    /// [`BackstageOp::Config`]: chain parameters.
    Config(ChainConfig),
    /// [`BackstageOp::MempoolLen`]: pending transaction count.
    MempoolLen(u64),
    /// [`BackstageOp::TotalSupply`] / [`BackstageOp::Burned`] /
    /// [`BackstageOp::BalanceOf`] / [`BackstageOp::BaseFee`]: a wei amount.
    Wei(U256),
    /// [`BackstageOp::ReceiptOf`]: the receipt, if mined.
    Receipt(Option<Receipt>),
    /// [`BackstageOp::IsPending`]: a yes/no.
    Flag(bool),
    /// [`BackstageOp::SwarmHas`]: one yes/no per queried CID, in query
    /// order.
    Flags(Vec<bool>),
    /// [`BackstageOp::SpawnIpfsNodes`]: the new nodes' indices, in label
    /// order.
    NodeIndices(Vec<u64>),
    /// [`BackstageOp::DropIpfsBlock`]: injection applied.
    Dropped,
}

impl BackstageReply {
    /// Unwraps a [`BackstageReply::Mined`] block.
    pub fn into_block(self) -> Block {
        match self {
            BackstageReply::Mined(block) => *block,
            other => panic!("backstage reply shape mismatch: expected Mined, got {other:?}"),
        }
    }

    /// Unwraps a [`BackstageReply::Height`] / [`BackstageReply::MempoolLen`]
    /// count.
    pub fn into_u64(self) -> u64 {
        match self {
            BackstageReply::Height(n) | BackstageReply::MempoolLen(n) => n,
            other => panic!("backstage reply shape mismatch: expected a count, got {other:?}"),
        }
    }

    /// Unwraps a [`BackstageReply::Wei`] amount.
    pub fn into_wei(self) -> U256 {
        match self {
            BackstageReply::Wei(v) => v,
            other => panic!("backstage reply shape mismatch: expected Wei, got {other:?}"),
        }
    }

    /// Unwraps a [`BackstageReply::Config`].
    pub fn into_config(self) -> ChainConfig {
        match self {
            BackstageReply::Config(config) => config,
            other => panic!("backstage reply shape mismatch: expected Config, got {other:?}"),
        }
    }

    /// Unwraps a [`BackstageReply::Receipt`].
    pub fn into_receipt(self) -> Option<Receipt> {
        match self {
            BackstageReply::Receipt(receipt) => receipt,
            other => panic!("backstage reply shape mismatch: expected Receipt, got {other:?}"),
        }
    }

    /// Unwraps a [`BackstageReply::Flag`].
    pub fn into_flag(self) -> bool {
        match self {
            BackstageReply::Flag(flag) => flag,
            other => panic!("backstage reply shape mismatch: expected Flag, got {other:?}"),
        }
    }

    /// Unwraps a [`BackstageReply::Flags`] list.
    pub fn into_flags(self) -> Vec<bool> {
        match self {
            BackstageReply::Flags(flags) => flags,
            other => panic!("backstage reply shape mismatch: expected Flags, got {other:?}"),
        }
    }

    /// Unwraps a [`BackstageReply::NodeIndices`] list.
    pub fn into_node_indices(self) -> Vec<u64> {
        match self {
            BackstageReply::NodeIndices(nodes) => nodes,
            other => panic!("backstage reply shape mismatch: expected NodeIndices, got {other:?}"),
        }
    }
}

/// Answers a backstage op against a provider's local chain/swarm — the
/// default for every in-process backend, and what the `rpcd` daemon runs
/// server-side when the op arrives as a frame.
pub fn dispatch_local<P: NodeProvider + ?Sized>(
    provider: &mut P,
    op: &BackstageOp,
) -> BackstageReply {
    match op {
        BackstageOp::MineSlot { slot_secs } => {
            BackstageReply::Mined(Box::new(provider.chain_mut().mine_block(*slot_secs)))
        }
        BackstageOp::SlotElapsed => {
            provider.on_slot();
            BackstageReply::SlotAcked
        }
        BackstageOp::Height => BackstageReply::Height(provider.chain().height()),
        BackstageOp::Config => BackstageReply::Config(provider.chain().config().clone()),
        BackstageOp::MempoolLen => {
            BackstageReply::MempoolLen(provider.chain().mempool_len() as u64)
        }
        BackstageOp::TotalSupply => BackstageReply::Wei(provider.chain().state().total_supply()),
        BackstageOp::Burned => BackstageReply::Wei(provider.chain().burned()),
        BackstageOp::ReceiptOf { hash } => {
            BackstageReply::Receipt(provider.chain().receipt(hash).cloned())
        }
        BackstageOp::IsPending { hash } => BackstageReply::Flag(provider.chain().is_pending(hash)),
        BackstageOp::BalanceOf { address } => {
            BackstageReply::Wei(provider.chain().balance(address))
        }
        BackstageOp::BaseFee => BackstageReply::Wei(provider.chain().base_fee()),
        BackstageOp::SpawnIpfsNodes { labels } => BackstageReply::NodeIndices(
            labels
                .iter()
                .map(|label| provider.swarm_mut().add_node(IpfsNode::new(label.clone())) as u64)
                .collect(),
        ),
        BackstageOp::DropIpfsBlock { node, cid } => {
            let store = provider.swarm_mut().node_mut(*node as usize).store_mut();
            store.unpin(cid);
            store.gc();
            BackstageReply::Dropped
        }
        BackstageOp::SwarmHas { cids } => {
            let swarm = provider.swarm();
            BackstageReply::Flags(
                cids.iter()
                    .map(|cid| (0..swarm.len()).any(|i| swarm.node(i).has_block(cid)))
                    .collect(),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimProvider;
    use ofl_eth::chain::Chain;
    use ofl_ipfs::swarm::Swarm;
    use ofl_primitives::wei_per_eth;

    fn sim() -> SimProvider {
        let addr = H160::from_slice(&[1; 20]);
        SimProvider::new(
            Chain::new(ChainConfig::default(), &[(addr, wei_per_eth())]),
            Swarm::new(),
        )
    }

    #[test]
    fn local_dispatch_matches_direct_access() {
        let mut provider = sim();
        assert_eq!(provider.backstage(&BackstageOp::Height).into_u64(), 0);
        assert_eq!(
            provider.backstage(&BackstageOp::TotalSupply).into_wei(),
            wei_per_eth()
        );
        assert_eq!(
            provider.backstage(&BackstageOp::BaseFee).into_wei(),
            provider.chain.base_fee()
        );
        let block = provider
            .backstage(&BackstageOp::MineSlot { slot_secs: 12 })
            .into_block();
        assert_eq!(block.header.number, 1);
        assert_eq!(provider.backstage(&BackstageOp::Height).into_u64(), 1);
        let config = provider.backstage(&BackstageOp::Config).into_config();
        assert_eq!(config.block_time, 12);
    }

    #[test]
    fn swarm_ops_spawn_drop_and_query() {
        let mut provider = sim();
        let nodes = provider
            .backstage(&BackstageOp::SpawnIpfsNodes {
                labels: vec!["a".into(), "b".into()],
            })
            .into_node_indices();
        assert_eq!(nodes, [0, 1]);
        let c = provider
            .backstage(&BackstageOp::SpawnIpfsNodes {
                labels: vec!["c".into()],
            })
            .into_node_indices();
        assert_eq!(c, [2]);
        let kept = provider.swarm.node_mut(0).add(b"model").root;
        let dropped = provider.swarm.node_mut(1).add(b"other model").root;
        let has = |provider: &mut SimProvider| {
            provider
                .backstage(&BackstageOp::SwarmHas {
                    cids: vec![kept.clone(), dropped.clone()],
                })
                .into_flags()
        };
        assert_eq!(has(&mut provider), [true, true]);
        provider.backstage(&BackstageOp::DropIpfsBlock {
            node: 1,
            cid: dropped.clone(),
        });
        assert_eq!(has(&mut provider), [true, false]);
    }
}
