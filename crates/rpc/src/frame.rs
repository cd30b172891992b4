//! The node-daemon wire protocol: versioned, length-prefixed [`Frame`]s
//! carrying the full provider surface — Ethereum envelopes (single and
//! batched), IPFS operations, backstage simulator ops, and typed protocol
//! error frames.
//!
//! ```text
//!  ┌───────────┬───────────┬──────────────┬───────────────────────┐
//!  │ magic u16 │ version   │ length u32   │ payload (tag + body)  │
//!  │  0x4F57   │  u16 = 5  │ LE, ≤ 64 MiB │ length bytes          │
//!  └───────────┴───────────┴──────────────┴───────────────────────┘
//! ```
//!
//! Every frame is self-delimiting, so a dispatch loop reads exactly one
//! frame per request and answers with exactly one frame. Malformed payloads
//! decode to a typed [`FrameError`] — the daemon answers those with a
//! [`Frame::Error`] carrying a [`ProtocolError`] instead of dropping the
//! connection, and only gives up on I/O failures or an oversized length
//! prefix (where the stream position itself is lost).
//!
//! ## Sessions (v2)
//!
//! Protocol v2 adds the [`Frame::Request`]/[`Frame::Reply`] envelope: any
//! client frame can travel wrapped with a correlation `id` and a `session`
//! number. The `session` routes the inner frame to one of several
//! independent backends a single connection can provision — several shards
//! served concurrently over one socket. Replies echo the `id`, so when
//! sessions interleave on the connection each answer finds its caller
//! whatever order the replies come back in. Bare (unwrapped) v1-style
//! frames keep working and address session 0. [`Frame::Attach`] re-binds
//! to a session that already exists on a persistent daemon (provisioned by
//! an earlier connection) instead of provisioning a fresh one.
//!
//! ## Push streaming (v3)
//!
//! Protocol v3 adds server-initiated push. [`Frame::Subscribe`] registers a
//! typed channel ([`SubscriptionKind`]) and is answered by
//! [`Frame::Subscribed`] carrying the backend-assigned subscription id;
//! after that the daemon interleaves [`Frame::Notify`] frames — each
//! carrying the session, subscription id, chain sequence number, and a
//! [`SubEvent`] — with ordinary replies. The ordering contract: a daemon
//! writes every push a request caused **before** that request's reply, so
//! a client that has received reply N has already buffered every push N
//! triggered. [`Frame::Ping`] is a server keepalive probe (no answer
//! expected) that lets an idle-timeout daemon distinguish a quiet
//! subscriber from a dead peer.

use crate::backstage::{BackstageOp, BackstageReply};
use crate::codec::{bounded_vec, check_count, read_flag, read_option, CodecError, Reader, Writer};
use crate::envelope::{
    read_log_entry, read_receipt, write_log_entry, write_receipt, RpcRequest, RpcResponse,
};
use crate::sub::{SubEvent, SubscriptionKind};
use ofl_eth::block::{Block, Bloom, Header};
use ofl_eth::chain::{ChainConfig, FilteredLog, LogFilter, PendingTxEvent};
use ofl_ipfs::blockstore::BlockstoreError;
use ofl_ipfs::cid::Cid;
use ofl_ipfs::swarm::{AddResult, FetchStats, IpfsError};
use ofl_netsim::clock::SimDuration;
use ofl_primitives::hotpath::{HotPhase, PhaseTimer};
use ofl_primitives::u256::U256;
use ofl_primitives::H160;
use std::io::{Read, Write};

/// First two bytes of every frame: `"OW"` — a cheap way to reject a peer
/// that is not speaking this protocol at all.
pub const FRAME_MAGIC: u16 = 0x4F57;

/// The protocol revision this build speaks. A daemon answers frames from a
/// different revision with a typed [`ProtocolError::Unsupported`] error
/// frame (the stream stays frame-synced, so the conversation survives).
///
/// v2 added the [`Frame::Request`]/[`Frame::Reply`] session envelope and
/// the [`Frame::Attach`]/[`Frame::Attached`] session re-binding pair. v3
/// added push streaming: [`Frame::Subscribe`]/[`Frame::Subscribed`],
/// server-initiated [`Frame::Notify`], [`Frame::Unsubscribe`]/
/// [`Frame::Unsubscribed`], and the [`Frame::Ping`] keepalive probe. v4
/// added the [`Frame::Stats`]/[`Frame::StatsReply`] admin introspection
/// pair. v5 cut [`Frame::StatsReply`] to four daemon counters: the
/// metrics list is gone and the accept counter is now `accept_errors`.
pub const PROTOCOL_VERSION: u16 = 5;

/// Hard cap on one frame's payload. Large enough for any model upload the
/// marketplace ships, small enough to reject allocation-bomb length
/// prefixes outright.
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

/// Why a frame could not be read or written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The underlying stream failed (or reached EOF mid-frame).
    Io(String),
    /// A read deadline elapsed with **no bytes received** — the peer is
    /// quiet, not necessarily gone. Distinct from [`FrameError::Io`] so a
    /// daemon with an idle timeout can probe a quiet subscriber instead of
    /// reaping it.
    Timeout,
    /// The stream did not open with the protocol magic.
    BadMagic {
        /// What arrived instead.
        got: u16,
    },
    /// The peer speaks a different protocol revision.
    Version {
        /// The peer's revision.
        got: u16,
    },
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    TooLarge {
        /// The declared payload length.
        declared: u32,
    },
    /// The payload failed to decode.
    Codec(CodecError),
    /// The peer answered with a protocol error frame.
    Protocol(ProtocolError),
}

impl From<CodecError> for FrameError {
    fn from(e: CodecError) -> Self {
        FrameError::Codec(e)
    }
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
            FrameError::Timeout => write!(f, "read deadline elapsed with no frame"),
            FrameError::BadMagic { got } => {
                write!(
                    f,
                    "bad frame magic {got:#06x} (expected {FRAME_MAGIC:#06x})"
                )
            }
            FrameError::Version { got } => {
                write!(
                    f,
                    "peer speaks protocol v{got}, this build speaks v{PROTOCOL_VERSION}"
                )
            }
            FrameError::TooLarge { declared } => {
                write!(f, "frame declares {declared} bytes (cap {MAX_FRAME_BYTES})")
            }
            FrameError::Codec(e) => write!(f, "frame payload: {e}"),
            FrameError::Protocol(e) => write!(f, "peer protocol error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A typed protocol failure a daemon reports **in-band** as a
/// [`Frame::Error`], keeping the connection alive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The frame's payload failed to decode (the daemon's view of the
    /// [`CodecError`], rendered so it survives the wire).
    Malformed(String),
    /// A request arrived before the connection was provisioned with a
    /// backend.
    Unprovisioned,
    /// A second [`Frame::Provision`] arrived on an already-backed
    /// connection.
    AlreadyProvisioned,
    /// The frame is valid but this daemon cannot serve it.
    Unsupported(String),
    /// A [`Frame::Attach`] named a session this daemon does not hold.
    NoSuchSession(u64),
}

impl core::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProtocolError::Malformed(why) => write!(f, "malformed frame: {why}"),
            ProtocolError::Unprovisioned => {
                write!(f, "connection has no backend (send Provision first)")
            }
            ProtocolError::AlreadyProvisioned => {
                write!(f, "connection already has a backend")
            }
            ProtocolError::Unsupported(what) => write!(f, "unsupported: {what}"),
            ProtocolError::NoSuchSession(session) => {
                write!(
                    f,
                    "no session {session} on this daemon (Provision it first)"
                )
            }
        }
    }
}

/// Everything that travels between a [`SocketProvider`](crate::SocketProvider)
/// and an `rpcd` daemon. Client→server frames first, server→client second.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client→server: build this connection's backend — a fresh simulated
    /// node with the given chain parameters and genesis allocation.
    Provision {
        /// Chain parameters.
        chain: ChainConfig,
        /// Genesis balances.
        genesis: Vec<(H160, U256)>,
    },
    /// Client→server: one Ethereum request.
    Execute(RpcRequest),
    /// Client→server: a whole batch in **one** frame round trip.
    Batch(Vec<RpcRequest>),
    /// Client→server: `ipfs add` on a swarm node.
    IpfsAdd {
        /// Node index.
        node: u64,
        /// File bytes.
        data: Vec<u8>,
    },
    /// Client→server: `ipfs cat` on a swarm node.
    IpfsCat {
        /// Node index.
        node: u64,
        /// Root CID.
        cid: Cid,
    },
    /// Client→server: `ipfs pin add` on a swarm node.
    IpfsPin {
        /// Node index.
        node: u64,
        /// Root CID.
        cid: Cid,
    },
    /// Client→server: one backstage simulator op.
    Backstage(BackstageOp),
    /// Client→server: close this connection gracefully.
    Shutdown,
    /// Client→server: any other client frame, wrapped with a correlation
    /// `id` (echoed by the matching [`Frame::Reply`]) and a `session`
    /// number routing it to one of the connection's backends. The envelope
    /// is flat — a `Request` cannot carry another `Request`.
    Request {
        /// Correlation id, echoed by the reply.
        id: u64,
        /// Which of the connection's backends serves the inner frame
        /// (bare frames address session 0).
        session: u64,
        /// The wrapped client frame.
        frame: Box<Frame>,
    },
    /// Client→server: bind this connection to an **existing** session on a
    /// persistent daemon (one provisioned by an earlier connection),
    /// instead of provisioning a fresh backend.
    Attach {
        /// The session to re-bind.
        session: u64,
    },
    /// Client→server: open a push channel on this session's backend.
    /// Answered by [`Frame::Subscribed`].
    Subscribe {
        /// What to watch.
        kind: SubscriptionKind,
    },
    /// Client→server: close a push channel. Answered by
    /// [`Frame::Unsubscribed`].
    Unsubscribe {
        /// The id from [`Frame::Subscribed`].
        sub_id: u64,
    },
    /// Client→server: admin introspection probe — report live daemon
    /// counters. Answered by [`Frame::StatsReply`]. Read-only:
    /// dispatching it mutates no backend state (beyond the served-frame
    /// counters it reports).
    Stats,

    /// Server→client: the backend is up.
    Provisioned,
    /// Server→client: answer to [`Frame::Execute`].
    Response(RpcResponse),
    /// Server→client: answers to [`Frame::Batch`], in request order.
    BatchResponse(Vec<RpcResponse>),
    /// Server→client: answer to [`Frame::IpfsAdd`].
    IpfsAdded {
        /// Virtual cost the server's stack priced (zero for a bare sim).
        cost: SimDuration,
        /// The add result.
        result: AddResult,
    },
    /// Server→client: answer to [`Frame::IpfsCat`].
    IpfsCatted {
        /// Virtual cost the server's stack priced.
        cost: SimDuration,
        /// The fetched bytes and transfer stats, or a typed IPFS failure.
        result: Result<(Vec<u8>, FetchStats), IpfsError>,
    },
    /// Server→client: answer to [`Frame::IpfsPin`].
    IpfsPinned {
        /// Virtual cost the server's stack priced.
        cost: SimDuration,
        /// Pin outcome.
        result: Result<(), IpfsError>,
    },
    /// Server→client: answer to [`Frame::Backstage`].
    BackstageReply(BackstageReply),
    /// Server→client: a typed protocol failure (connection stays up).
    Error(ProtocolError),
    /// Server→client: goodbye (answer to [`Frame::Shutdown`]).
    Goodbye,
    /// Server→client: the answer to a [`Frame::Request`], echoing its
    /// correlation `id`. Replies to interleaved sessions may arrive in any
    /// order; the id is what re-associates them.
    Reply {
        /// The request's correlation id.
        id: u64,
        /// The wrapped server frame.
        frame: Box<Frame>,
    },
    /// Server→client: answer to [`Frame::Attach`] — the session exists and
    /// is now bound.
    Attached {
        /// The attached session's current chain height (a cheap liveness
        /// check that the client really re-joined existing state).
        height: u64,
    },
    /// Server→client: answer to [`Frame::Subscribe`].
    Subscribed {
        /// The backend-assigned subscription id (monotonic per session).
        sub_id: u64,
    },
    /// Server→client: one pushed event. Written **before** the reply to
    /// whichever request caused it, never inside a [`Frame::Reply`]
    /// envelope — transports route it to a push sink, not a reply slot.
    Notify {
        /// The session whose backend published the event (0 for bare
        /// connections) — what a [`SessionMux`](crate::SessionMux) keys on.
        session: u64,
        /// The subscription the event matched.
        sub_id: u64,
        /// The backend chain's publish-order sequence number.
        seq: u64,
        /// The event itself.
        event: SubEvent,
    },
    /// Server→client: answer to [`Frame::Unsubscribe`].
    Unsubscribed {
        /// The cancelled id.
        sub_id: u64,
    },
    /// Server→client: keepalive probe for quiet subscribers under an idle
    /// timeout. No answer expected; clients skip it when reading.
    Ping,
    /// Server→client: answer to [`Frame::Stats`] — a live snapshot of the
    /// daemon's counters.
    StatsReply {
        /// Sessions currently live on the answering daemon (persistent
        /// store entries, or this connection's private backends).
        sessions: u64,
        /// Worker threads reaped after their connections closed.
        workers_reaped: u64,
        /// Accepts that failed (each logged and backed off).
        accept_errors: u64,
        /// Frames dispatched across all connections since daemon start,
        /// this probe included.
        frames_served: u64,
    },
}

// ----------------------------------------------------------------------
// Payload codecs for the compound types that ride in frames.
// ----------------------------------------------------------------------

fn write_chain_config(w: &mut Writer, config: &ChainConfig) {
    w.u64(config.chain_id);
    w.u64(config.block_time);
    w.u64(config.gas_limit);
    w.u256(&config.initial_base_fee);
    w.h160(&config.coinbase);
    w.u64(config.max_wait_slots);
}

fn read_chain_config(r: &mut Reader<'_>) -> Result<ChainConfig, CodecError> {
    Ok(ChainConfig {
        chain_id: r.u64("chain id")?,
        block_time: r.u64("block time")?,
        gas_limit: r.u64("gas limit")?,
        initial_base_fee: r.u256("initial base fee")?,
        coinbase: r.h160("coinbase")?,
        max_wait_slots: r.u64("max wait slots")?,
    })
}

fn write_cid(w: &mut Writer, cid: &Cid) {
    w.bytes(&cid.to_bytes());
}

fn read_cid(r: &mut Reader<'_>) -> Result<Cid, CodecError> {
    let raw = r.bytes("cid")?;
    Cid::from_bytes(&raw).map_err(|_| CodecError::BadTag {
        reading: "cid",
        tag: raw.first().copied().unwrap_or(0),
    })
}

fn write_add_result(w: &mut Writer, result: &AddResult) {
    write_cid(w, &result.root);
    w.u64(result.blocks as u64);
    w.u64(result.bytes_stored);
    w.u64(result.file_size);
}

fn read_add_result(r: &mut Reader<'_>) -> Result<AddResult, CodecError> {
    Ok(AddResult {
        root: read_cid(r)?,
        blocks: r.u64("add blocks")? as usize,
        bytes_stored: r.u64("add bytes stored")?,
        file_size: r.u64("add file size")?,
    })
}

fn write_fetch_stats(w: &mut Writer, stats: &FetchStats) {
    w.u64(stats.blocks_fetched as u64);
    w.u64(stats.bytes_fetched);
    w.u64(stats.rounds as u64);
    // Deterministic wire order for the provider map.
    let mut providers: Vec<(&String, &usize)> = stats.providers.iter().collect();
    providers.sort();
    w.u64(providers.len() as u64);
    for (peer, blocks) in providers {
        w.string(peer);
        w.u64(*blocks as u64);
    }
}

fn read_fetch_stats(r: &mut Reader<'_>) -> Result<FetchStats, CodecError> {
    let blocks_fetched = r.u64("fetch blocks")? as usize;
    let bytes_fetched = r.u64("fetch bytes")?;
    let rounds = r.u64("fetch rounds")? as usize;
    let n = r.u64("fetch provider count")?;
    check_count(n, r, "fetch provider count")?;
    let mut providers = std::collections::HashMap::new();
    for _ in 0..n {
        let peer = r.string("fetch provider peer")?;
        let blocks = r.u64("fetch provider blocks")? as usize;
        providers.insert(peer, blocks);
    }
    Ok(FetchStats {
        blocks_fetched,
        bytes_fetched,
        rounds,
        providers,
    })
}

fn write_ipfs_error(w: &mut Writer, error: &IpfsError) {
    match error {
        IpfsError::BlockUnavailable(cid) => {
            w.u8(0);
            write_cid(w, cid);
        }
        IpfsError::CorruptDag(cid) => {
            w.u8(1);
            write_cid(w, cid);
        }
        IpfsError::Store(BlockstoreError::IntegrityMismatch) => w.u8(2),
        IpfsError::Store(BlockstoreError::NotFound(cid)) => {
            w.u8(3);
            write_cid(w, cid);
        }
        IpfsError::UnknownPeer(peer) => {
            w.u8(4);
            w.string(peer);
        }
    }
}

fn read_ipfs_error(r: &mut Reader<'_>) -> Result<IpfsError, CodecError> {
    Ok(match r.u8("ipfs error tag")? {
        0 => IpfsError::BlockUnavailable(read_cid(r)?),
        1 => IpfsError::CorruptDag(read_cid(r)?),
        2 => IpfsError::Store(BlockstoreError::IntegrityMismatch),
        3 => IpfsError::Store(BlockstoreError::NotFound(read_cid(r)?)),
        4 => IpfsError::UnknownPeer(r.string("unknown peer")?),
        tag => {
            return Err(CodecError::BadTag {
                reading: "ipfs error tag",
                tag,
            })
        }
    })
}

fn write_block(w: &mut Writer, block: &Block) {
    let h = &block.header;
    w.h256(&h.parent_hash);
    w.u64(h.number);
    w.u64(h.timestamp);
    w.h160(&h.coinbase);
    w.u64(h.gas_used);
    w.u64(h.gas_limit);
    w.u256(&h.base_fee);
    w.h256(&h.tx_root);
    w.raw(&h.bloom.0);
    w.u64(block.tx_hashes.len() as u64);
    for hash in &block.tx_hashes {
        w.h256(hash);
    }
}

fn read_block(r: &mut Reader<'_>) -> Result<Block, CodecError> {
    let parent_hash = r.h256("block parent hash")?;
    let number = r.u64("block number")?;
    let timestamp = r.u64("block timestamp")?;
    let coinbase = r.h160("block coinbase")?;
    let gas_used = r.u64("block gas used")?;
    let gas_limit = r.u64("block gas limit")?;
    let base_fee = r.u256("block base fee")?;
    let tx_root = r.h256("block tx root")?;
    let mut bloom = Bloom::default();
    bloom.0.copy_from_slice(r.take(256, "block bloom")?);
    let n = r.u64("block tx count")?;
    check_count(n, r, "block tx count")?;
    let mut tx_hashes = bounded_vec(n);
    for _ in 0..n {
        tx_hashes.push(r.h256("block tx hash")?);
    }
    Ok(Block {
        header: Header {
            parent_hash,
            number,
            timestamp,
            coinbase,
            gas_used,
            gas_limit,
            base_fee,
            tx_root,
            bloom,
        },
        tx_hashes,
    })
}

fn write_log_filter(w: &mut Writer, filter: &LogFilter) {
    w.u64(filter.from_block);
    w.u64(filter.to_block);
    match &filter.address {
        Some(a) => {
            w.u8(1);
            w.h160(a);
        }
        None => w.u8(0),
    }
    match &filter.topic {
        Some(t) => {
            w.u8(1);
            w.h256(t);
        }
        None => w.u8(0),
    }
}

fn read_log_filter(r: &mut Reader<'_>) -> Result<LogFilter, CodecError> {
    Ok(LogFilter {
        from_block: r.u64("filter from_block")?,
        to_block: r.u64("filter to_block")?,
        address: read_option(r, "filter address", Reader::h160)?,
        topic: read_option(r, "filter topic", Reader::h256)?,
    })
}

fn write_sub_kind(w: &mut Writer, kind: &SubscriptionKind) {
    match kind {
        SubscriptionKind::NewHeads => w.u8(0),
        SubscriptionKind::Logs { filter } => {
            w.u8(1);
            write_log_filter(w, filter);
        }
        SubscriptionKind::PendingTxs => w.u8(2),
    }
}

fn read_sub_kind(r: &mut Reader<'_>) -> Result<SubscriptionKind, CodecError> {
    Ok(match r.u8("subscription kind tag")? {
        0 => SubscriptionKind::NewHeads,
        1 => SubscriptionKind::Logs {
            filter: read_log_filter(r)?,
        },
        2 => SubscriptionKind::PendingTxs,
        tag => {
            return Err(CodecError::BadTag {
                reading: "subscription kind tag",
                tag,
            })
        }
    })
}

fn write_filtered_log(w: &mut Writer, fl: &FilteredLog) {
    w.u64(fl.block_number);
    w.h256(&fl.tx_hash);
    w.u64(fl.log_index as u64);
    write_log_entry(w, &fl.log);
}

fn read_filtered_log(r: &mut Reader<'_>) -> Result<FilteredLog, CodecError> {
    Ok(FilteredLog {
        block_number: r.u64("notify log block")?,
        tx_hash: r.h256("notify log tx hash")?,
        log_index: r.u64("notify log index")? as usize,
        log: read_log_entry(r)?,
    })
}

fn write_pending_tx(w: &mut Writer, p: &PendingTxEvent) {
    w.h256(&p.hash);
    w.h160(&p.sender);
    match &p.to {
        Some(to) => {
            w.u8(1);
            w.h160(to);
        }
        None => w.u8(0),
    }
    match &p.selector {
        Some(sel) => {
            w.u8(1);
            w.raw(sel);
        }
        None => w.u8(0),
    }
    w.u256(&p.tip);
    w.u64(p.nonce);
}

fn read_pending_tx(r: &mut Reader<'_>) -> Result<PendingTxEvent, CodecError> {
    let hash = r.h256("pending tx hash")?;
    let sender = r.h160("pending tx sender")?;
    let to = read_option(r, "pending tx to", Reader::h160)?;
    let selector = read_option(r, "pending tx selector", |r, what| {
        let mut sel = [0u8; 4];
        sel.copy_from_slice(r.take(4, what)?);
        Ok(sel)
    })?;
    Ok(PendingTxEvent {
        hash,
        sender,
        to,
        selector,
        tip: r.u256("pending tx tip")?,
        nonce: r.u64("pending tx nonce")?,
    })
}

fn write_sub_event(w: &mut Writer, event: &SubEvent) {
    match event {
        SubEvent::NewHead(block) => {
            w.u8(0);
            write_block(w, block);
        }
        SubEvent::Log(fl) => {
            w.u8(1);
            write_filtered_log(w, fl);
        }
        SubEvent::PendingTx(p) => {
            w.u8(2);
            write_pending_tx(w, p);
        }
    }
}

fn read_sub_event(r: &mut Reader<'_>) -> Result<SubEvent, CodecError> {
    Ok(match r.u8("sub event tag")? {
        0 => SubEvent::NewHead(Box::new(read_block(r)?)),
        1 => SubEvent::Log(read_filtered_log(r)?),
        2 => SubEvent::PendingTx(read_pending_tx(r)?),
        tag => {
            return Err(CodecError::BadTag {
                reading: "sub event tag",
                tag,
            })
        }
    })
}

fn write_backstage_op(w: &mut Writer, op: &BackstageOp) {
    match op {
        BackstageOp::MineSlot { slot_secs } => {
            w.u8(0);
            w.u64(*slot_secs);
        }
        BackstageOp::SlotElapsed => w.u8(1),
        BackstageOp::Height => w.u8(2),
        BackstageOp::Config => w.u8(3),
        BackstageOp::MempoolLen => w.u8(4),
        BackstageOp::TotalSupply => w.u8(5),
        BackstageOp::Burned => w.u8(6),
        BackstageOp::ReceiptOf { hash } => {
            w.u8(7);
            w.h256(hash);
        }
        BackstageOp::IsPending { hash } => {
            w.u8(8);
            w.h256(hash);
        }
        BackstageOp::BalanceOf { address } => {
            w.u8(9);
            w.h160(address);
        }
        BackstageOp::BaseFee => w.u8(10),
        BackstageOp::SpawnIpfsNode { label } => {
            w.u8(11);
            w.string(label);
        }
        BackstageOp::DropIpfsBlock { node, cid } => {
            w.u8(12);
            w.u64(*node);
            write_cid(w, cid);
        }
        BackstageOp::SwarmHas { cid } => {
            w.u8(13);
            write_cid(w, cid);
        }
    }
}

fn read_backstage_op(r: &mut Reader<'_>) -> Result<BackstageOp, CodecError> {
    Ok(match r.u8("backstage op tag")? {
        0 => BackstageOp::MineSlot {
            slot_secs: r.u64("mine slot secs")?,
        },
        1 => BackstageOp::SlotElapsed,
        2 => BackstageOp::Height,
        3 => BackstageOp::Config,
        4 => BackstageOp::MempoolLen,
        5 => BackstageOp::TotalSupply,
        6 => BackstageOp::Burned,
        7 => BackstageOp::ReceiptOf {
            hash: r.h256("receipt-of hash")?,
        },
        8 => BackstageOp::IsPending {
            hash: r.h256("is-pending hash")?,
        },
        9 => BackstageOp::BalanceOf {
            address: r.h160("balance-of address")?,
        },
        10 => BackstageOp::BaseFee,
        11 => BackstageOp::SpawnIpfsNode {
            label: r.string("spawn node label")?,
        },
        12 => BackstageOp::DropIpfsBlock {
            node: r.u64("drop block node")?,
            cid: read_cid(r)?,
        },
        13 => BackstageOp::SwarmHas { cid: read_cid(r)? },
        tag => {
            return Err(CodecError::BadTag {
                reading: "backstage op tag",
                tag,
            })
        }
    })
}

fn write_backstage_reply(w: &mut Writer, reply: &BackstageReply) {
    match reply {
        BackstageReply::Mined(block) => {
            w.u8(0);
            write_block(w, block);
        }
        BackstageReply::SlotAcked => w.u8(1),
        BackstageReply::Height(n) => {
            w.u8(2);
            w.u64(*n);
        }
        BackstageReply::Config(config) => {
            w.u8(3);
            write_chain_config(w, config);
        }
        BackstageReply::MempoolLen(n) => {
            w.u8(4);
            w.u64(*n);
        }
        BackstageReply::Wei(v) => {
            w.u8(5);
            w.u256(v);
        }
        BackstageReply::Receipt(opt) => {
            w.u8(6);
            match opt {
                Some(receipt) => {
                    w.u8(1);
                    write_receipt(w, receipt);
                }
                None => w.u8(0),
            }
        }
        BackstageReply::Flag(flag) => {
            w.u8(7);
            w.u8(*flag as u8);
        }
        BackstageReply::NodeIndex(n) => {
            w.u8(8);
            w.u64(*n);
        }
        BackstageReply::Dropped => w.u8(9),
    }
}

fn read_backstage_reply(r: &mut Reader<'_>) -> Result<BackstageReply, CodecError> {
    Ok(match r.u8("backstage reply tag")? {
        0 => BackstageReply::Mined(Box::new(read_block(r)?)),
        1 => BackstageReply::SlotAcked,
        2 => BackstageReply::Height(r.u64("height")?),
        3 => BackstageReply::Config(read_chain_config(r)?),
        4 => BackstageReply::MempoolLen(r.u64("mempool len")?),
        5 => BackstageReply::Wei(r.u256("wei")?),
        6 => BackstageReply::Receipt(read_option(r, "receipt presence", |r, _| read_receipt(r))?),
        7 => BackstageReply::Flag(read_flag(r, "flag")?),
        8 => BackstageReply::NodeIndex(r.u64("node index")?),
        9 => BackstageReply::Dropped,
        tag => {
            return Err(CodecError::BadTag {
                reading: "backstage reply tag",
                tag,
            })
        }
    })
}

fn write_protocol_error(w: &mut Writer, error: &ProtocolError) {
    match error {
        ProtocolError::Malformed(why) => {
            w.u8(0);
            w.string(why);
        }
        ProtocolError::Unprovisioned => w.u8(1),
        ProtocolError::AlreadyProvisioned => w.u8(2),
        ProtocolError::Unsupported(what) => {
            w.u8(3);
            w.string(what);
        }
        ProtocolError::NoSuchSession(session) => {
            w.u8(4);
            w.u64(*session);
        }
    }
}

fn read_protocol_error(r: &mut Reader<'_>) -> Result<ProtocolError, CodecError> {
    Ok(match r.u8("protocol error tag")? {
        0 => ProtocolError::Malformed(r.string("malformed reason")?),
        1 => ProtocolError::Unprovisioned,
        2 => ProtocolError::AlreadyProvisioned,
        3 => ProtocolError::Unsupported(r.string("unsupported what")?),
        4 => ProtocolError::NoSuchSession(r.u64("missing session")?),
        tag => {
            return Err(CodecError::BadTag {
                reading: "protocol error tag",
                tag,
            })
        }
    })
}

// ----------------------------------------------------------------------
// Frame payload codec + stream framing.
// ----------------------------------------------------------------------

impl Frame {
    /// Encodes the frame payload (tag + body, without the stream header).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.write_payload(&mut w);
        w.0
    }

    /// Writes the frame payload (tag + body) into an existing writer — the
    /// allocation-free core shared by [`Frame::encode_payload`] and the
    /// buffer-reusing [`Frame::encode_into`].
    fn write_payload(&self, w: &mut Writer) {
        match self {
            Frame::Provision { chain, genesis } => {
                w.u8(0);
                write_chain_config(w, chain);
                w.u64(genesis.len() as u64);
                for (address, amount) in genesis {
                    w.h160(address);
                    w.u256(amount);
                }
            }
            Frame::Execute(request) => {
                w.u8(1);
                request.write(w);
            }
            Frame::Batch(requests) => {
                w.u8(2);
                w.u64(requests.len() as u64);
                for request in requests {
                    request.write(w);
                }
            }
            Frame::IpfsAdd { node, data } => {
                w.u8(3);
                w.u64(*node);
                w.bytes(data);
            }
            Frame::IpfsCat { node, cid } => {
                w.u8(4);
                w.u64(*node);
                write_cid(w, cid);
            }
            Frame::IpfsPin { node, cid } => {
                w.u8(5);
                w.u64(*node);
                write_cid(w, cid);
            }
            Frame::Backstage(op) => {
                w.u8(6);
                write_backstage_op(w, op);
            }
            Frame::Shutdown => w.u8(7),
            Frame::Request { id, session, frame } => {
                w.u8(8);
                w.u64(*id);
                w.u64(*session);
                w.bytes(&frame.encode_payload());
            }
            Frame::Attach { session } => {
                w.u8(9);
                w.u64(*session);
            }
            Frame::Subscribe { kind } => {
                w.u8(10);
                write_sub_kind(w, kind);
            }
            Frame::Unsubscribe { sub_id } => {
                w.u8(11);
                w.u64(*sub_id);
            }
            Frame::Stats => w.u8(12),
            Frame::Provisioned => w.u8(0x80),
            Frame::Response(response) => {
                w.u8(0x81);
                response.write(w);
            }
            Frame::BatchResponse(responses) => {
                w.u8(0x82);
                w.u64(responses.len() as u64);
                for response in responses {
                    response.write(w);
                }
            }
            Frame::IpfsAdded { cost, result } => {
                w.u8(0x83);
                w.u64(cost.as_micros());
                write_add_result(w, result);
            }
            Frame::IpfsCatted { cost, result } => {
                w.u8(0x84);
                w.u64(cost.as_micros());
                match result {
                    Ok((bytes, stats)) => {
                        w.u8(1);
                        w.bytes(bytes);
                        write_fetch_stats(w, stats);
                    }
                    Err(error) => {
                        w.u8(0);
                        write_ipfs_error(w, error);
                    }
                }
            }
            Frame::IpfsPinned { cost, result } => {
                w.u8(0x85);
                w.u64(cost.as_micros());
                match result {
                    Ok(()) => w.u8(1),
                    Err(error) => {
                        w.u8(0);
                        write_ipfs_error(w, error);
                    }
                }
            }
            Frame::BackstageReply(reply) => {
                w.u8(0x86);
                write_backstage_reply(w, reply);
            }
            Frame::Error(error) => {
                w.u8(0x87);
                write_protocol_error(w, error);
            }
            Frame::Goodbye => w.u8(0x88),
            Frame::Reply { id, frame } => {
                w.u8(0x89);
                w.u64(*id);
                w.bytes(&frame.encode_payload());
            }
            Frame::Attached { height } => {
                w.u8(0x8A);
                w.u64(*height);
            }
            Frame::Subscribed { sub_id } => {
                w.u8(0x8B);
                w.u64(*sub_id);
            }
            Frame::Notify {
                session,
                sub_id,
                seq,
                event,
            } => {
                w.u8(0x8C);
                w.u64(*session);
                w.u64(*sub_id);
                w.u64(*seq);
                write_sub_event(w, event);
            }
            Frame::Unsubscribed { sub_id } => {
                w.u8(0x8D);
                w.u64(*sub_id);
            }
            Frame::Ping => w.u8(0x8E),
            Frame::StatsReply {
                sessions,
                workers_reaped,
                accept_errors,
                frames_served,
            } => {
                w.u8(0x8F);
                w.u64(*sessions);
                w.u64(*workers_reaped);
                w.u64(*accept_errors);
                w.u64(*frames_served);
            }
        }
    }

    /// Decodes a frame payload (tag + body). Trailing bytes are an error.
    pub fn decode_payload(payload: &[u8]) -> Result<Frame, CodecError> {
        let _t = PhaseTimer::start(HotPhase::Codec);
        ofl_trace::trace_event!(
            ofl_trace::Category::Codec,
            "frame.decode",
            "bytes" => payload.len(),
        );
        Frame::decode_payload_at(payload, true)
    }

    /// The payload decoder proper. `envelope` gates the
    /// [`Frame::Request`]/[`Frame::Reply`] wrapper tags: the protocol is
    /// flat (an envelope carries exactly one plain frame), so nested
    /// payloads decode with `envelope = false` and a wrapper-in-wrapper is
    /// a typed codec error rather than unbounded recursion.
    fn decode_payload_at(payload: &[u8], envelope: bool) -> Result<Frame, CodecError> {
        let mut r = Reader::new(payload);
        let frame = match r.u8("frame tag")? {
            0 => {
                let chain = read_chain_config(&mut r)?;
                let n = r.u64("genesis count")?;
                check_count(n, &r, "genesis count")?;
                let mut genesis = bounded_vec(n);
                for _ in 0..n {
                    genesis.push((r.h160("genesis address")?, r.u256("genesis amount")?));
                }
                Frame::Provision { chain, genesis }
            }
            1 => Frame::Execute(RpcRequest::read(&mut r)?),
            2 => {
                let n = r.u64("batch count")?;
                check_count(n, &r, "batch count")?;
                let mut requests = bounded_vec(n);
                for _ in 0..n {
                    requests.push(RpcRequest::read(&mut r)?);
                }
                Frame::Batch(requests)
            }
            3 => Frame::IpfsAdd {
                node: r.u64("ipfs add node")?,
                data: r.bytes("ipfs add data")?,
            },
            4 => Frame::IpfsCat {
                node: r.u64("ipfs cat node")?,
                cid: read_cid(&mut r)?,
            },
            5 => Frame::IpfsPin {
                node: r.u64("ipfs pin node")?,
                cid: read_cid(&mut r)?,
            },
            6 => Frame::Backstage(read_backstage_op(&mut r)?),
            7 => Frame::Shutdown,
            8 if envelope => {
                let id = r.u64("request id")?;
                let session = r.u64("request session")?;
                let inner = r.bytes("request inner frame")?;
                Frame::Request {
                    id,
                    session,
                    frame: Box::new(Frame::decode_payload_at(&inner, false)?),
                }
            }
            9 => Frame::Attach {
                session: r.u64("attach session")?,
            },
            10 => Frame::Subscribe {
                kind: read_sub_kind(&mut r)?,
            },
            11 => Frame::Unsubscribe {
                sub_id: r.u64("unsubscribe id")?,
            },
            12 => Frame::Stats,
            0x80 => Frame::Provisioned,
            0x81 => Frame::Response(RpcResponse::read(&mut r)?),
            0x82 => {
                let n = r.u64("batch response count")?;
                check_count(n, &r, "batch response count")?;
                let mut responses = bounded_vec(n);
                for _ in 0..n {
                    responses.push(RpcResponse::read(&mut r)?);
                }
                Frame::BatchResponse(responses)
            }
            0x83 => Frame::IpfsAdded {
                cost: SimDuration::from_micros(r.u64("ipfs add cost")?),
                result: read_add_result(&mut r)?,
            },
            0x84 => {
                let cost = SimDuration::from_micros(r.u64("ipfs cat cost")?);
                let result = match r.u8("ipfs cat outcome")? {
                    1 => {
                        let bytes = r.bytes("ipfs cat bytes")?;
                        Ok((bytes, read_fetch_stats(&mut r)?))
                    }
                    0 => Err(read_ipfs_error(&mut r)?),
                    tag => {
                        return Err(CodecError::BadTag {
                            reading: "ipfs cat outcome",
                            tag,
                        })
                    }
                };
                Frame::IpfsCatted { cost, result }
            }
            0x85 => {
                let cost = SimDuration::from_micros(r.u64("ipfs pin cost")?);
                let result = match r.u8("ipfs pin outcome")? {
                    1 => Ok(()),
                    0 => Err(read_ipfs_error(&mut r)?),
                    tag => {
                        return Err(CodecError::BadTag {
                            reading: "ipfs pin outcome",
                            tag,
                        })
                    }
                };
                Frame::IpfsPinned { cost, result }
            }
            0x86 => Frame::BackstageReply(read_backstage_reply(&mut r)?),
            0x87 => Frame::Error(read_protocol_error(&mut r)?),
            0x88 => Frame::Goodbye,
            0x89 if envelope => {
                let id = r.u64("reply id")?;
                let inner = r.bytes("reply inner frame")?;
                Frame::Reply {
                    id,
                    frame: Box::new(Frame::decode_payload_at(&inner, false)?),
                }
            }
            0x8A => Frame::Attached {
                height: r.u64("attached height")?,
            },
            0x8B => Frame::Subscribed {
                sub_id: r.u64("subscribed id")?,
            },
            0x8C => Frame::Notify {
                session: r.u64("notify session")?,
                sub_id: r.u64("notify sub id")?,
                seq: r.u64("notify seq")?,
                event: read_sub_event(&mut r)?,
            },
            0x8D => Frame::Unsubscribed {
                sub_id: r.u64("unsubscribed id")?,
            },
            0x8E => Frame::Ping,
            0x8F => Frame::StatsReply {
                sessions: r.u64("stats sessions")?,
                workers_reaped: r.u64("stats workers reaped")?,
                accept_errors: r.u64("stats accept errors")?,
                frames_served: r.u64("stats frames served")?,
            },
            tag => {
                return Err(CodecError::BadTag {
                    reading: "frame tag",
                    tag,
                })
            }
        };
        r.finish()?;
        Ok(frame)
    }

    /// Encodes the complete wire form (magic, version, length, payload)
    /// into `out`, **replacing** its contents but reusing its allocation —
    /// a transport that keeps one scratch buffer stops allocating per
    /// frame. Refuses payloads past [`MAX_FRAME_BYTES`] — the peer would
    /// reject them anyway, and a u32 length prefix cannot even represent a
    /// multi-GiB payload without desyncing the stream.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), FrameError> {
        let _t = PhaseTimer::start(HotPhase::Codec);
        out.clear();
        out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        out.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        // Serialize the payload straight after the header, then backpatch
        // the length — no intermediate payload vector.
        let mut w = Writer(std::mem::take(out));
        self.write_payload(&mut w);
        *out = w.0;
        let payload_len = out.len() - 8;
        if payload_len > MAX_FRAME_BYTES as usize {
            return Err(FrameError::TooLarge {
                declared: payload_len.min(u32::MAX as usize) as u32,
            });
        }
        out[4..8].copy_from_slice(&(payload_len as u32).to_le_bytes());
        ofl_trace::trace_event!(
            ofl_trace::Category::Codec,
            "frame.encode",
            "bytes" => payload_len,
        );
        Ok(())
    }

    /// Encodes the complete wire form: magic, version, length, payload.
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(payload.len() + 8);
        out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        out.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Writes the complete wire form to a stream, refusing oversized
    /// payloads **before** any bytes hit the wire (see
    /// [`Frame::encode_into`]).
    pub fn write_to(&self, stream: &mut impl Write) -> Result<(), FrameError> {
        let mut wire = Vec::new();
        self.encode_into(&mut wire)?;
        stream
            .write_all(&wire)
            .and_then(|_| stream.flush())
            .map_err(|e| FrameError::Io(e.to_string()))
    }

    /// Reads exactly one frame from a stream, validating magic, version,
    /// and the length cap before touching the payload.
    pub fn read_from(stream: &mut impl Read) -> Result<Frame, FrameError> {
        let mut header = [0u8; 8];
        // A read deadline elapsing before the *header* starts means a quiet
        // peer, not a broken one — surface it as Timeout so an idle-timeout
        // daemon can probe instead of reap. Mid-frame timeouts (payload
        // below) stay Io: the stream position is lost either way.
        stream.read_exact(&mut header).map_err(|e| {
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) {
                FrameError::Timeout
            } else {
                FrameError::Io(e.to_string())
            }
        })?;
        let magic = u16::from_le_bytes([header[0], header[1]]);
        if magic != FRAME_MAGIC {
            return Err(FrameError::BadMagic { got: magic });
        }
        let declared = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if declared > MAX_FRAME_BYTES {
            return Err(FrameError::TooLarge { declared });
        }
        // The payload is consumed even on a version mismatch, so the stream
        // stays frame-synced and a server can answer the mismatch in-band.
        let mut payload = vec![0u8; declared as usize];
        stream
            .read_exact(&mut payload)
            .map_err(|e| FrameError::Io(e.to_string()))?;
        let version = u16::from_le_bytes([header[2], header[3]]);
        if version != PROTOCOL_VERSION {
            return Err(FrameError::Version { got: version });
        }
        Ok(Frame::decode_payload(&payload)?)
    }

    /// Decodes one complete wire-form frame from a byte slice, returning
    /// the frame and how many bytes it consumed (the in-memory pipe's
    /// entry point; streams use [`Frame::read_from`]).
    pub fn decode(raw: &[u8]) -> Result<(Frame, usize), FrameError> {
        let mut cursor = raw;
        let before = cursor.len();
        let frame = Frame::read_from(&mut cursor)?;
        Ok((frame, before - cursor.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{RpcMethod, RpcResult};
    use ofl_primitives::H256;

    fn cid_of(data: &[u8]) -> Cid {
        Cid::v0_of(data)
    }

    #[test]
    fn frames_roundtrip_through_the_full_wire_form() {
        let frames = vec![
            Frame::Provision {
                chain: ChainConfig::default(),
                genesis: vec![(H160::from_slice(&[3; 20]), U256::from(7u64))],
            },
            Frame::Execute(RpcRequest::new(9, RpcMethod::BlockNumber)),
            Frame::Batch(vec![
                RpcRequest::new(0, RpcMethod::ChainId),
                RpcRequest::new(
                    1,
                    RpcMethod::GetTransactionReceipt {
                        hash: H256::from_bytes([4; 32]),
                    },
                ),
            ]),
            Frame::IpfsAdd {
                node: 2,
                data: vec![1, 2, 3],
            },
            Frame::IpfsCat {
                node: 0,
                cid: cid_of(b"model"),
            },
            Frame::IpfsPin {
                node: 1,
                cid: cid_of(b"model"),
            },
            Frame::Backstage(BackstageOp::MineSlot { slot_secs: 24 }),
            Frame::Backstage(BackstageOp::SpawnIpfsNode {
                label: "owner-3".into(),
            }),
            Frame::Shutdown,
            Frame::Provisioned,
            Frame::Response(RpcResponse {
                id: 9,
                result: Ok(RpcResult::BlockNumber(4)),
                cost: SimDuration::from_millis(3),
            }),
            Frame::IpfsPinned {
                cost: SimDuration::ZERO,
                result: Err(IpfsError::BlockUnavailable(cid_of(b"gone"))),
            },
            Frame::IpfsAdded {
                cost: SimDuration::from_millis(2),
                result: AddResult {
                    root: cid_of(b"model"),
                    blocks: 3,
                    bytes_stored: 700,
                    file_size: 640,
                },
            },
            Frame::IpfsCatted {
                cost: SimDuration::from_millis(5),
                result: Ok((
                    vec![9, 9, 9],
                    FetchStats {
                        blocks_fetched: 3,
                        bytes_fetched: 700,
                        rounds: 2,
                        providers: [("owner-1".to_string(), 2), ("owner-2".to_string(), 1)]
                            .into_iter()
                            .collect(),
                    },
                )),
            },
            Frame::IpfsCatted {
                cost: SimDuration::ZERO,
                result: Err(IpfsError::BlockUnavailable(cid_of(b"gone"))),
            },
            Frame::BackstageReply(BackstageReply::Flag(true)),
            Frame::Error(ProtocolError::Unprovisioned),
            Frame::Error(ProtocolError::NoSuchSession(7)),
            Frame::Goodbye,
            Frame::Request {
                id: 42,
                session: 3,
                frame: Box::new(Frame::Execute(RpcRequest::new(9, RpcMethod::BlockNumber))),
            },
            Frame::Attach { session: 3 },
            Frame::Reply {
                id: 42,
                frame: Box::new(Frame::BackstageReply(BackstageReply::Height(11))),
            },
            Frame::Attached { height: 11 },
            Frame::Subscribe {
                kind: SubscriptionKind::NewHeads,
            },
            Frame::Subscribe {
                kind: SubscriptionKind::Logs {
                    filter: LogFilter::all()
                        .at_address(H160::from_slice(&[7; 20]))
                        .with_topic(H256::from_bytes([8; 32])),
                },
            },
            Frame::Subscribe {
                kind: SubscriptionKind::PendingTxs,
            },
            Frame::Unsubscribe { sub_id: 2 },
            Frame::Subscribed { sub_id: 2 },
            Frame::Notify {
                session: 3,
                sub_id: 2,
                seq: 17,
                event: SubEvent::NewHead(Box::new(Block {
                    header: Header {
                        parent_hash: H256::from_bytes([1; 32]),
                        number: 5,
                        timestamp: 60,
                        coinbase: H160::from_slice(&[2; 20]),
                        gas_used: 21_000,
                        gas_limit: 30_000_000,
                        base_fee: U256::from(7u64),
                        tx_root: H256::from_bytes([3; 32]),
                        bloom: Bloom::default(),
                    },
                    tx_hashes: vec![H256::from_bytes([4; 32])],
                })),
            },
            Frame::Notify {
                session: 0,
                sub_id: 1,
                seq: 18,
                event: SubEvent::Log(FilteredLog {
                    block_number: 5,
                    tx_hash: H256::from_bytes([4; 32]),
                    log_index: 0,
                    log: ofl_eth::evm::LogEntry {
                        address: H160::from_slice(&[7; 20]),
                        topics: vec![H256::from_bytes([8; 32])],
                        data: vec![1, 2, 3],
                    },
                }),
            },
            Frame::Notify {
                session: 1,
                sub_id: 4,
                seq: 19,
                event: SubEvent::PendingTx(PendingTxEvent {
                    hash: H256::from_bytes([9; 32]),
                    sender: H160::from_slice(&[10; 20]),
                    to: Some(H160::from_slice(&[11; 20])),
                    selector: Some([0xde, 0xad, 0xbe, 0xef]),
                    tip: U256::from(12u64),
                    nonce: 13,
                }),
            },
            Frame::Notify {
                session: 1,
                sub_id: 4,
                seq: 20,
                event: SubEvent::PendingTx(PendingTxEvent {
                    hash: H256::from_bytes([9; 32]),
                    sender: H160::from_slice(&[10; 20]),
                    to: None,
                    selector: None,
                    tip: U256::from(0u64),
                    nonce: 0,
                }),
            },
            Frame::Unsubscribed { sub_id: 2 },
            Frame::Ping,
            Frame::Stats,
            Frame::StatsReply {
                sessions: 3,
                workers_reaped: 7,
                accept_errors: 1,
                frames_served: 900,
            },
        ];
        for frame in frames {
            let wire = frame.encode();
            let (decoded, consumed) = Frame::decode(&wire).expect("decodes");
            assert_eq!(consumed, wire.len());
            assert_eq!(decoded, frame);
        }
    }

    /// Every [`BackstageOp`] variant survives the wire. Keep this list
    /// exhaustive — `ofl-lint` rule W1 checks each variant appears in a
    /// round-trip test.
    #[test]
    fn every_backstage_op_roundtrips() {
        let ops = vec![
            BackstageOp::MineSlot { slot_secs: 36 },
            BackstageOp::SlotElapsed,
            BackstageOp::Height,
            BackstageOp::Config,
            BackstageOp::MempoolLen,
            BackstageOp::TotalSupply,
            BackstageOp::Burned,
            BackstageOp::ReceiptOf {
                hash: H256::from_bytes([7; 32]),
            },
            BackstageOp::IsPending {
                hash: H256::from_bytes([8; 32]),
            },
            BackstageOp::BalanceOf {
                address: H160::from_slice(&[9; 20]),
            },
            BackstageOp::BaseFee,
            BackstageOp::SpawnIpfsNode {
                label: "owner-7".into(),
            },
            BackstageOp::DropIpfsBlock {
                node: 4,
                cid: cid_of(b"weights"),
            },
            BackstageOp::SwarmHas {
                cid: cid_of(b"weights"),
            },
        ];
        for op in ops {
            let frame = Frame::Backstage(op);
            let wire = frame.encode();
            let (decoded, consumed) = Frame::decode(&wire).expect("decodes");
            assert_eq!(consumed, wire.len());
            assert_eq!(decoded, frame);
        }
    }

    /// Every [`BackstageReply`] variant survives the wire (W1-checked,
    /// like the ops above).
    #[test]
    fn every_backstage_reply_roundtrips() {
        use ofl_eth::block::{Receipt, TxStatus};
        let block = Block {
            header: Header {
                parent_hash: H256::from_bytes([1; 32]),
                number: 12,
                timestamp: 144,
                coinbase: H160::from_slice(&[2; 20]),
                gas_used: 42_000,
                gas_limit: 30_000_000,
                base_fee: U256::from(7u64),
                tx_root: H256::from_bytes([3; 32]),
                bloom: Bloom::default(),
            },
            tx_hashes: vec![H256::from_bytes([4; 32])],
        };
        let receipt = Receipt {
            tx_hash: H256::from_bytes([4; 32]),
            status: TxStatus::Success,
            gas_used: 21_000,
            effective_gas_price: U256::from(11u64),
            fee: U256::from(231_000u64),
            contract_address: Some(H160::from_slice(&[5; 20])),
            logs: Vec::new(),
            block_number: 12,
            output: vec![0xAA],
        };
        let replies = vec![
            BackstageReply::Mined(Box::new(block)),
            BackstageReply::SlotAcked,
            BackstageReply::Height(12),
            BackstageReply::Config(ChainConfig::default()),
            BackstageReply::MempoolLen(3),
            BackstageReply::Wei(U256::from(1_000_000u64)),
            BackstageReply::Receipt(Some(receipt)),
            BackstageReply::Receipt(None),
            BackstageReply::Flag(false),
            BackstageReply::NodeIndex(6),
            BackstageReply::Dropped,
        ];
        for reply in replies {
            let frame = Frame::BackstageReply(reply);
            let wire = frame.encode();
            let (decoded, consumed) = Frame::decode(&wire).expect("decodes");
            assert_eq!(consumed, wire.len());
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn bad_magic_version_and_oversized_frames_are_rejected() {
        let mut wire = Frame::Shutdown.encode();
        wire[0] = 0xFF;
        assert!(matches!(
            Frame::decode(&wire),
            Err(FrameError::BadMagic { .. })
        ));

        let mut wire = Frame::Shutdown.encode();
        wire[2] = 0xFF;
        assert_eq!(
            Frame::decode(&wire),
            Err(FrameError::Version { got: 0x00FF })
        );

        let mut wire = Frame::Shutdown.encode();
        wire[4..8].copy_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        assert_eq!(
            Frame::decode(&wire),
            Err(FrameError::TooLarge {
                declared: MAX_FRAME_BYTES + 1
            })
        );
    }

    #[test]
    fn nested_envelopes_are_rejected_not_recursed() {
        // The protocol is flat: a Request inside a Request (or a Reply
        // inside a Reply) must decode to a typed error, never recurse.
        let inner = Frame::Request {
            id: 1,
            session: 0,
            frame: Box::new(Frame::Shutdown),
        };
        let nested = Frame::Request {
            id: 2,
            session: 0,
            frame: Box::new(inner),
        };
        assert!(matches!(
            Frame::decode(&nested.encode()),
            Err(FrameError::Codec(CodecError::BadTag { tag: 8, .. }))
        ));
        let reply_nested = Frame::Reply {
            id: 2,
            frame: Box::new(Frame::Reply {
                id: 1,
                frame: Box::new(Frame::Goodbye),
            }),
        };
        assert!(matches!(
            Frame::decode(&reply_nested.encode()),
            Err(FrameError::Codec(CodecError::BadTag { tag: 0x89, .. }))
        ));
    }

    #[test]
    fn truncated_and_garbage_payloads_are_typed_codec_errors() {
        let wire = Frame::Execute(RpcRequest::new(1, RpcMethod::GasPrice)).encode();
        assert!(matches!(
            Frame::decode(&wire[..wire.len() - 1]),
            Err(FrameError::Io(_)) // length prefix promises more bytes
        ));
        // Garbage *payload* with a valid header decodes to a codec error.
        let garbage = Frame::decode(
            &[
                &FRAME_MAGIC.to_le_bytes()[..],
                &PROTOCOL_VERSION.to_le_bytes()[..],
                &3u32.to_le_bytes()[..],
                &[0xEE, 0x01, 0x02],
            ]
            .concat(),
        );
        assert!(matches!(
            garbage,
            Err(FrameError::Codec(CodecError::BadTag { .. }))
        ));
        // A Notify whose event bytes are cut short is a typed codec error.
        let notify = Frame::Notify {
            session: 0,
            sub_id: 1,
            seq: 2,
            event: SubEvent::PendingTx(PendingTxEvent {
                hash: H256::from_bytes([9; 32]),
                sender: H160::from_slice(&[10; 20]),
                to: None,
                selector: Some([1, 2, 3, 4]),
                tip: U256::from(5u64),
                nonce: 6,
            }),
        };
        let mut payload = notify.encode_payload();
        payload.truncate(payload.len() - 1);
        assert!(matches!(
            Frame::decode_payload(&payload),
            Err(CodecError::Truncated { .. })
        ));
        // A Subscribe with an unknown kind tag is rejected, not guessed.
        let mut payload = Frame::Subscribe {
            kind: SubscriptionKind::PendingTxs,
        }
        .encode_payload();
        *payload.last_mut().unwrap() = 0x77;
        assert!(matches!(
            Frame::decode_payload(&payload),
            Err(CodecError::BadTag {
                reading: "subscription kind tag",
                ..
            })
        ));
    }

    #[test]
    fn a_read_deadline_maps_to_timeout_not_io() {
        // A reader that reports WouldBlock before any byte arrives — what a
        // socket with a read timeout does while the peer is merely quiet.
        struct Quiet;
        impl Read for Quiet {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::from(std::io::ErrorKind::WouldBlock))
            }
        }
        assert_eq!(Frame::read_from(&mut Quiet), Err(FrameError::Timeout));
        // EOF (or any other failure) stays an Io error: the peer is gone.
        let empty: &[u8] = &[];
        assert!(matches!(
            Frame::read_from(&mut { empty }),
            Err(FrameError::Io(_))
        ));
    }
}
