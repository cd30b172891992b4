//! The node-daemon wire protocol: versioned, length-prefixed [`Frame`]s
//! carrying the full provider surface — Ethereum request batches (a single
//! request is a batch of one), IPFS operations, backstage simulator ops,
//! and typed protocol error frames.
//!
//! ```text
//!  ┌───────────┬───────────┬──────────────┬───────────────────────┐
//!  │ magic u16 │ version   │ length u32   │ payload (tag + body)  │
//!  │  0x4F57   │  u16 = 7  │ LE, ≤ 64 MiB │ length bytes          │
//!  └───────────┴───────────┴──────────────┴───────────────────────┘
//! ```
//!
//! A payload is a tag byte and then the variant's fields, in the order
//! the `Frame` wire table in this file lists them; the compound types that
//! ride in frames (blocks, backstage ops and replies, subscription kinds
//! and events, IPFS results) have their tables beside it. Encoder and
//! decoder are both generated from those tables (see [`crate::codec`]), so
//! a tag is written down once.
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
use crate::codec::{self, check_count, CodecError, Reader, Wire, Writer};
use crate::envelope::{RpcRequest, RpcResponse};
use crate::sub::{SubEvent, SubscriptionKind};
use ofl_eth::block::{Block, Bloom, Header};
use ofl_eth::chain::{ChainConfig, PendingTxEvent};
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
/// v6 made two backstage ops list-form: [`BackstageOp::SwarmHas`] asks
/// about many CIDs (answered by [`BackstageReply::Flags`]) and
/// [`BackstageOp::SpawnIpfsNodes`] spawns many nodes (answered by
/// [`BackstageReply::NodeIndices`]). v7 dropped the single-request
/// `Execute`/`Response` pair (tags 1 and 0x81): one request travels as a
/// [`Frame::Batch`] of one.
pub const PROTOCOL_VERSION: u16 = 7;

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
    /// Client→server: Ethereum requests in **one** frame round trip (a
    /// single request is a batch of one).
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
// Wire tables for the frames and the compound types that ride in them.
// ----------------------------------------------------------------------

crate::wire_enum! { Frame = "frame tag" {
    0 => Provision { chain, genesis = "genesis count" },
    2 => Batch(requests = "batch count"),
    3 => IpfsAdd { node = "ipfs add node", data = "ipfs add data" },
    4 => IpfsCat { node = "ipfs cat node", cid },
    5 => IpfsPin { node = "ipfs pin node", cid },
    6 => Backstage(op),
    7 => Shutdown,
    8 => Request { id = "request id", session = "request session", frame = "request inner frame" },
    9 => Attach { session = "attach session" },
    10 => Subscribe { kind },
    11 => Unsubscribe { sub_id = "unsubscribe id" },
    12 => Stats,
    0x80 => Provisioned,
    0x82 => BatchResponse(responses = "batch response count"),
    0x83 => IpfsAdded { cost = "ipfs add cost", result },
    0x84 => IpfsCatted { cost = "ipfs cat cost", result = "ipfs cat outcome" },
    0x85 => IpfsPinned { cost = "ipfs pin cost", result = "ipfs pin outcome" },
    0x86 => BackstageReply(reply),
    0x87 => Error(error),
    0x88 => Goodbye,
    0x89 => Reply { id = "reply id", frame = "reply inner frame" },
    0x8A => Attached { height = "attached height" },
    0x8B => Subscribed { sub_id = "subscribed id" },
    0x8C => Notify {
        session = "notify session",
        sub_id = "notify sub id",
        seq = "notify seq",
        event,
    },
    0x8D => Unsubscribed { sub_id = "unsubscribed id" },
    0x8E => Ping,
    0x8F => StatsReply {
        sessions = "stats sessions",
        workers_reaped = "stats workers reaped",
        accept_errors = "stats accept errors",
        frames_served = "stats frames served",
    },
}}

/// The inner frame of the flat [`Frame::Request`]/[`Frame::Reply`]
/// envelope: one plain frame's payload as a length-prefixed byte string.
/// An envelope inside an envelope is refused by its tag before anything
/// decodes, so a nested payload is a typed error, never recursion.
impl Wire for Box<Frame> {
    fn put(&self, w: &mut Writer) {
        w.counted(|w| (**self).put(w));
    }
    fn get(r: &mut Reader<'_>, reading: &'static str) -> Result<Self, CodecError> {
        let inner = r.slice(reading)?;
        // 8 and 0x89: the Request and Reply tags.
        if let Some(&tag @ (8 | 0x89)) = inner.first() {
            return Err(CodecError::BadTag {
                reading: "frame tag",
                tag,
            });
        }
        Ok(Box::new(codec::decode(inner)?))
    }
}

crate::wire_struct! { ChainConfig {
    chain_id = "chain id",
    block_time = "block time",
    gas_limit = "gas limit",
    initial_base_fee = "initial base fee",
    coinbase,
    max_wait_slots = "max wait slots",
}}

/// One genesis allocation: an address and its balance.
impl Wire for (H160, U256) {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<Self, CodecError> {
        Ok((
            H160::get(r, "genesis address")?,
            U256::get(r, "genesis amount")?,
        ))
    }
}

crate::wire_struct! { AddResult {
    root = "cid",
    blocks = "add blocks",
    bytes_stored = "add bytes stored",
    file_size = "add file size",
}}

/// The `IpfsCatted`/`IpfsPinned` outcome byte: `1` and the value, or `0`
/// and the IPFS failure.
impl<T: Wire> Wire for Result<T, IpfsError> {
    fn put(&self, w: &mut Writer) {
        match self {
            Ok(value) => {
                w.u8(1);
                value.put(w);
            }
            Err(error) => {
                w.u8(0);
                error.put(w);
            }
        }
    }
    fn get(r: &mut Reader<'_>, reading: &'static str) -> Result<Self, CodecError> {
        match r.u8(reading)? {
            1 => Ok(Ok(T::get(r, reading)?)),
            0 => Ok(Err(IpfsError::get(r, reading)?)),
            tag => Err(CodecError::BadTag { reading, tag }),
        }
    }
}

/// A fetched file: its bytes, then the transfer stats.
impl Wire for (Vec<u8>, FetchStats) {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<Self, CodecError> {
        Ok((Vec::get(r, "ipfs cat bytes")?, FetchStats::get(r, "")?))
    }
}

/// The provider map travels sorted by peer, so its hash order never
/// reaches the wire.
impl Wire for FetchStats {
    fn put(&self, w: &mut Writer) {
        self.blocks_fetched.put(w);
        self.bytes_fetched.put(w);
        self.rounds.put(w);
        #[expect(clippy::disallowed_methods, reason = "sorted on the next line")]
        let mut providers: Vec<(&String, &usize)> = self.providers.iter().collect();
        providers.sort();
        w.u64(providers.len() as u64);
        for (peer, blocks) in providers {
            peer.put(w);
            blocks.put(w);
        }
    }
    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<FetchStats, CodecError> {
        let blocks_fetched = usize::get(r, "fetch blocks")?;
        let bytes_fetched = u64::get(r, "fetch bytes")?;
        let rounds = usize::get(r, "fetch rounds")?;
        let n = u64::get(r, "fetch provider count")?;
        check_count(n, r, "fetch provider count")?;
        let mut providers = std::collections::HashMap::new();
        for _ in 0..n {
            let peer = String::get(r, "fetch provider peer")?;
            providers.insert(peer, usize::get(r, "fetch provider blocks")?);
        }
        Ok(FetchStats {
            blocks_fetched,
            bytes_fetched,
            rounds,
            providers,
        })
    }
}

/// `Store(..)` flattens the blockstore's two failures into the same tag
/// byte as the swarm's own.
impl Wire for IpfsError {
    fn put(&self, w: &mut Writer) {
        match self {
            IpfsError::BlockUnavailable(cid) => {
                w.u8(0);
                cid.put(w);
            }
            IpfsError::CorruptDag(cid) => {
                w.u8(1);
                cid.put(w);
            }
            IpfsError::Store(BlockstoreError::IntegrityMismatch) => w.u8(2),
            IpfsError::Store(BlockstoreError::NotFound(cid)) => {
                w.u8(3);
                cid.put(w);
            }
            IpfsError::UnknownPeer(peer) => {
                w.u8(4);
                peer.put(w);
            }
        }
    }
    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<IpfsError, CodecError> {
        Ok(match r.u8("ipfs error tag")? {
            0 => IpfsError::BlockUnavailable(Cid::get(r, "cid")?),
            1 => IpfsError::CorruptDag(Cid::get(r, "cid")?),
            2 => IpfsError::Store(BlockstoreError::IntegrityMismatch),
            3 => IpfsError::Store(BlockstoreError::NotFound(Cid::get(r, "cid")?)),
            4 => IpfsError::UnknownPeer(String::get(r, "unknown peer")?),
            tag => {
                return Err(CodecError::BadTag {
                    reading: "ipfs error tag",
                    tag,
                })
            }
        })
    }
}

crate::wire_struct! { Header {
    parent_hash = "block parent hash",
    number = "block number",
    timestamp = "block timestamp",
    coinbase = "block coinbase",
    gas_used = "block gas used",
    gas_limit = "block gas limit",
    base_fee = "block base fee",
    tx_root = "block tx root",
    bloom = "block bloom",
}}

crate::wire_struct! { Block { header, tx_hashes = "block tx count" ["block tx hash"] } }

/// 256 raw bytes.
impl Wire for Bloom {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
    }
    fn get(r: &mut Reader<'_>, reading: &'static str) -> Result<Bloom, CodecError> {
        Ok(Bloom(<[u8; 256]>::get(r, reading)?))
    }
}

impl Wire for Box<Block> {
    fn put(&self, w: &mut Writer) {
        (**self).put(w);
    }
    fn get(r: &mut Reader<'_>, reading: &'static str) -> Result<Self, CodecError> {
        Ok(Box::new(Block::get(r, reading)?))
    }
}

crate::wire_enum! { SubscriptionKind = "subscription kind tag" {
    0 => NewHeads,
    1 => Logs { filter },
    2 => PendingTxs,
}}

crate::wire_enum! { SubEvent = "sub event tag" {
    0 => NewHead(block),
    1 => Log(log),
    2 => PendingTx(tx),
}}

crate::wire_struct! { PendingTxEvent {
    hash = "pending tx hash",
    sender = "pending tx sender",
    to = "pending tx to",
    selector = "pending tx selector",
    tip = "pending tx tip",
    nonce = "pending tx nonce",
}}

crate::wire_enum! { BackstageOp = "backstage op tag" {
    0 => MineSlot { slot_secs = "mine slot secs" },
    1 => SlotElapsed,
    2 => Height,
    3 => Config,
    4 => MempoolLen,
    5 => TotalSupply,
    6 => Burned,
    7 => ReceiptOf { hash = "receipt-of hash" },
    8 => IsPending { hash = "is-pending hash" },
    9 => BalanceOf { address = "balance-of address" },
    10 => BaseFee,
    11 => SpawnIpfsNodes { labels = "spawn node label count" ["spawn node label"] },
    12 => DropIpfsBlock { node = "drop block node", cid },
    13 => SwarmHas { cids = "swarm-has cid count" ["cid"] },
}}

crate::wire_enum! { BackstageReply = "backstage reply tag" {
    0 => Mined(block),
    1 => SlotAcked,
    2 => Height(n = "height"),
    3 => Config(config),
    4 => MempoolLen(n = "mempool len"),
    5 => Wei(wei = "wei"),
    6 => Receipt(receipt = "receipt presence"),
    7 => Flag(flag = "flag"),
    8 => NodeIndices(nodes = "node index count" ["node index"]),
    9 => Dropped,
    10 => Flags(flags = "flag count" ["flag"]),
}}

crate::wire_enum! { ProtocolError = "protocol error tag" {
    0 => Malformed(why = "malformed reason"),
    1 => Unprovisioned,
    2 => AlreadyProvisioned,
    3 => Unsupported(what = "unsupported what"),
    4 => NoSuchSession(session = "missing session"),
}}

// ----------------------------------------------------------------------
// Frame payload codec + stream framing.
// ----------------------------------------------------------------------

impl Frame {
    /// Encodes the frame payload (tag + body, without the stream header).
    pub fn encode_payload(&self) -> Vec<u8> {
        codec::encode(self)
    }

    /// Decodes a frame payload (tag + body). Trailing bytes are an error.
    pub fn decode_payload(payload: &[u8]) -> Result<Frame, CodecError> {
        let _t = PhaseTimer::start(HotPhase::Codec);
        ofl_trace::trace_event!(
            ofl_trace::Category::Codec,
            "frame.decode",
            "bytes" => payload.len(),
        );
        codec::decode(payload)
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
        self.put(&mut w);
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
    ///
    /// # Panics
    ///
    /// When the payload exceeds [`MAX_FRAME_BYTES`]; a caller that may
    /// build one that large uses [`Frame::encode_into`], which refuses it
    /// with a typed error.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out)
            .expect("frame payload exceeds MAX_FRAME_BYTES");
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
    use crate::codec::assert_covers_tags;
    use crate::envelope::{RpcMethod, RpcResult};
    use ofl_eth::chain::{FilteredLog, LogFilter};
    use ofl_primitives::H256;

    fn cid_of(data: &[u8]) -> Cid {
        Cid::v0_of(data)
    }

    /// The literals `frames_roundtrip_through_the_full_wire_form` sends
    /// through the wire.
    fn roundtrip_frames() -> Vec<Frame> {
        vec![
            Frame::Provision {
                chain: ChainConfig::default(),
                genesis: vec![(H160::from_slice(&[3; 20]), U256::from(7u64))],
            },
            Frame::Batch(vec![RpcRequest::new(9, RpcMethod::BlockNumber)]),
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
            Frame::Backstage(BackstageOp::SpawnIpfsNodes {
                labels: vec!["buyer".into(), "owner-3".into()],
            }),
            Frame::Shutdown,
            Frame::Provisioned,
            Frame::BatchResponse(vec![RpcResponse {
                id: 9,
                result: Ok(RpcResult::BlockNumber(4)),
                cost: SimDuration::from_millis(3),
            }]),
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
                frame: Box::new(Frame::Batch(vec![RpcRequest::new(
                    9,
                    RpcMethod::BlockNumber,
                )])),
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
        ]
    }

    #[test]
    fn frames_roundtrip_through_the_full_wire_form() {
        let frames: Vec<Frame> = roundtrip_frames()
            .into_iter()
            .chain([
                Frame::IpfsPinned {
                    cost: SimDuration::from_millis(1),
                    result: Ok(()),
                },
                Frame::IpfsCatted {
                    cost: SimDuration::ZERO,
                    result: Err(IpfsError::CorruptDag(cid_of(b"dag"))),
                },
                Frame::IpfsCatted {
                    cost: SimDuration::ZERO,
                    result: Err(IpfsError::Store(BlockstoreError::IntegrityMismatch)),
                },
                Frame::IpfsCatted {
                    cost: SimDuration::ZERO,
                    result: Err(IpfsError::Store(BlockstoreError::NotFound(cid_of(b"gone")))),
                },
                Frame::IpfsPinned {
                    cost: SimDuration::ZERO,
                    result: Err(IpfsError::UnknownPeer("owner-9".into())),
                },
                Frame::Error(ProtocolError::Malformed("unknown tag 0xee".into())),
                Frame::Error(ProtocolError::AlreadyProvisioned),
                Frame::Error(ProtocolError::Unsupported("protocol v6".into())),
            ])
            .collect();
        for frame in &frames {
            let wire = frame.encode();
            let (decoded, consumed) = Frame::decode(&wire).expect("decodes");
            assert_eq!(consumed, wire.len());
            assert_eq!(&decoded, frame);
        }
        assert_covers_tags(&frames);
        assert_covers_tags(frames.iter().filter_map(|frame| match frame {
            Frame::Subscribe { kind } => Some(kind),
            _ => None,
        }));
        assert_covers_tags(frames.iter().filter_map(|frame| match frame {
            Frame::Notify { event, .. } => Some(event),
            _ => None,
        }));
        assert_covers_tags(frames.iter().filter_map(|frame| match frame {
            Frame::Error(error) => Some(error),
            _ => None,
        }));
    }

    /// Every [`BackstageOp`] variant survives the wire.
    fn backstage_ops() -> Vec<BackstageOp> {
        vec![
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
            BackstageOp::SpawnIpfsNodes {
                labels: vec!["buyer".into(), "owner-7".into()],
            },
            BackstageOp::SpawnIpfsNodes { labels: Vec::new() },
            BackstageOp::DropIpfsBlock {
                node: 4,
                cid: cid_of(b"weights"),
            },
            BackstageOp::SwarmHas {
                cids: vec![cid_of(b"weights"), cid_of(b"other weights")],
            },
            BackstageOp::SwarmHas { cids: Vec::new() },
        ]
    }

    #[test]
    fn every_backstage_op_roundtrips() {
        assert_covers_tags(&backstage_ops());
        for op in backstage_ops() {
            let frame = Frame::Backstage(op);
            let wire = frame.encode();
            let (decoded, consumed) = Frame::decode(&wire).expect("decodes");
            assert_eq!(consumed, wire.len());
            assert_eq!(decoded, frame);
        }
    }

    /// Every [`BackstageReply`] variant survives the wire.
    fn backstage_replies() -> Vec<BackstageReply> {
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
        vec![
            BackstageReply::Mined(Box::new(block)),
            BackstageReply::SlotAcked,
            BackstageReply::Height(12),
            BackstageReply::Config(ChainConfig::default()),
            BackstageReply::MempoolLen(3),
            BackstageReply::Wei(U256::from(1_000_000u64)),
            BackstageReply::Receipt(Some(receipt)),
            BackstageReply::Receipt(None),
            BackstageReply::Flag(false),
            BackstageReply::Flags(vec![true, false, true]),
            BackstageReply::Flags(Vec::new()),
            BackstageReply::NodeIndices(vec![6, 7]),
            BackstageReply::NodeIndices(Vec::new()),
            BackstageReply::Dropped,
        ]
    }

    #[test]
    fn every_backstage_reply_roundtrips() {
        assert_covers_tags(&backstage_replies());
        for reply in backstage_replies() {
            let frame = Frame::BackstageReply(reply);
            let wire = frame.encode();
            let (decoded, consumed) = Frame::decode(&wire).expect("decodes");
            assert_eq!(consumed, wire.len());
            assert_eq!(decoded, frame);
        }
    }

    /// The wire bytes of every round-trip literal in this module and in
    /// the envelope tests, pinned by SHA-256: a codec change that moves
    /// any byte of any literal fails here.
    #[test]
    fn round_trip_literals_keep_their_wire_bytes() {
        use crate::envelope::tests::{roundtrip_requests, roundtrip_responses};
        let mut wire = Vec::new();
        for frame in roundtrip_frames() {
            wire.extend(frame.encode());
        }
        for op in backstage_ops() {
            wire.extend(Frame::Backstage(op).encode());
        }
        for reply in backstage_replies() {
            wire.extend(Frame::BackstageReply(reply).encode());
        }
        for request in roundtrip_requests() {
            wire.extend(request.encode());
        }
        for response in roundtrip_responses() {
            wire.extend(response.encode());
        }
        assert_eq!(
            ofl_primitives::hex::to_hex(&ofl_primitives::sha256(&wire)),
            "796295bf471030361eb4037d035eefb67c240e81024823ad9c73c41518879e94"
        );
    }

    /// A list count is untrusted input: a frame claiming 2^40 elements
    /// is a typed codec error, rejected before anything is reserved.
    #[test]
    fn huge_backstage_list_counts_are_typed_codec_errors() {
        let huge = 1u64 << 40;
        for frame in [
            Frame::Backstage(BackstageOp::SwarmHas { cids: Vec::new() }),
            Frame::Backstage(BackstageOp::SpawnIpfsNodes { labels: Vec::new() }),
            Frame::BackstageReply(BackstageReply::Flags(Vec::new())),
            Frame::BackstageReply(BackstageReply::NodeIndices(Vec::new())),
        ] {
            // An empty list ends the payload with its 8-byte count.
            let mut payload = frame.encode_payload();
            let count_at = payload.len() - 8;
            payload[count_at..].copy_from_slice(&huge.to_le_bytes());
            assert!(
                matches!(
                    Frame::decode_payload(&payload),
                    Err(CodecError::LengthOverflow { declared, remaining: 0, .. })
                        if declared == huge
                ),
                "{frame:?}"
            );
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

    /// `encode_into` refuses a payload one byte past the cap and frames
    /// one exactly at it (the frame lives in memory: ~128 MB transient).
    #[test]
    fn encode_into_refuses_an_ipfs_add_one_byte_over_the_cap() {
        // Tag, node and the data's length prefix take 17 payload bytes.
        let mut frame = Frame::IpfsAdd {
            node: 0,
            data: vec![0; MAX_FRAME_BYTES as usize - 17 + 1],
        };
        let mut wire = Vec::new();
        assert_eq!(
            frame.encode_into(&mut wire),
            Err(FrameError::TooLarge {
                declared: MAX_FRAME_BYTES + 1
            })
        );
        if let Frame::IpfsAdd { data, .. } = &mut frame {
            data.pop();
        }
        assert_eq!(frame.encode_into(&mut wire), Ok(()));
        assert_eq!(wire.len(), 8 + MAX_FRAME_BYTES as usize);
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
        let wire = Frame::Batch(vec![RpcRequest::new(1, RpcMethod::GasPrice)]).encode();
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
