//! # ofl-rpcd
//!
//! The out-of-process node daemon: a dispatch loop that serves any
//! [`NodeProvider`] stack over the `ofl-rpc` frame protocol, one frame in →
//! one frame out, until the client says [`Frame::Shutdown`] or hangs up.
//! Sessions with live subscriptions additionally receive push frames:
//! after every dispatched frame the loop drains pending notifications and
//! writes them as [`Frame::Notify`] **before** the reply, so by the time a
//! client has read a reply every push that dispatch caused is already
//! buffered on its side of the wire.
//!
//! Three transports share the same dispatch code:
//!
//! - **TCP** ([`serve_listener_with`]) and **Unix
//!   sockets** ([`serve_unix_listener_with`]) — real sockets, one thread per
//!   connection: what the `rpcd` binary runs.
//! - **In-memory pipe** ([`PipeTransport`]) — client and server in one
//!   process with zero threads: each `send` encodes the frame to wire
//!   bytes, decodes it server-side, dispatches, and queues the encoded
//!   reply. Deterministic, and it still exercises the full codec in both
//!   directions.
//!
//! ## Provisioning and sessions
//!
//! A connection starts **unprovisioned**: the first frame is normally
//! [`Frame::Provision`], which builds a backend — a fresh simulated node
//! (chain + swarm) with the requested genesis. Bare frames address session
//! 0; a v2 [`Frame::Request`] envelope addresses any session id, so one
//! connection can provision and serve several independent shard backends
//! concurrently (each request's reply carries the correlation id back).
//!
//! Every connection keeps its sessions in a [`SessionStore`]. By default
//! ([`Connection::new`]) the store is the connection's own, so its
//! sessions are **private** and die with it. A daemon started with
//! [`DaemonOptions::sessions`] (the `--persist` flag) instead hands every
//! connection the same store ([`Connection::sharing`]): provision once,
//! reconnect later, [`Frame::Attach`] to the same live backend.
//!
//! ## Error handling
//!
//! Malformed payloads and version mismatches are answered **in-band** with
//! a typed [`Frame::Error`] — the connection survives. Only unframeable
//! input (bad magic, an over-cap length prefix, raw I/O failure) ends the
//! connection, because the byte stream itself is no longer trustworthy.
//! The accept loop logs accept errors, backs off exponentially, and gives
//! up after [`DaemonOptions::max_accept_failures`] consecutive failures
//! instead of busy-spinning; finished workers are reaped on every accept
//! so a long-lived daemon holds a bounded set of [`JoinHandle`]s.
//!
//! [`JoinHandle`]: std::thread::JoinHandle

#![forbid(unsafe_code)]
// R1: a worker facing an untrusted peer degrades with a typed error; it
// never panics. Tests may unwrap (clippy.toml).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use ofl_eth::chain::Chain;
use ofl_ipfs::swarm::Swarm;
use ofl_rpc::frame::{Frame, FrameError, ProtocolError};
use ofl_rpc::transport::FrameTransport;
use ofl_rpc::{BackstageOp, NodeProvider, SimProvider};
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::TcpListener;
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The daemon-wide counters behind [`Frame::Stats`], shared by the accept
/// loop and every connection it spawns; [`serve_incoming`] returns them as
/// [`DaemonStats`]. A standalone connection (pipe transports, unit tests)
/// carries its own.
#[derive(Debug, Default)]
struct DaemonCounters {
    workers_reaped: AtomicU64,
    accept_errors: AtomicU64,
    frames_served: AtomicU64,
}

/// A connection's session backends: session id → live provider. A
/// persistent daemon shares one across connections — provision once,
/// attach from any later connection.
pub type SessionStore = Arc<Mutex<BTreeMap<u64, Box<dyn NodeProvider + Send>>>>;

/// A fresh, empty [`SessionStore`].
pub fn new_session_store() -> SessionStore {
    SessionStore::default()
}

/// Locks a shared session store, recovering from poisoning. Every
/// critical section over the store is a single map operation (entry
/// insert or `get_mut` + dispatch), so a worker thread that panicked
/// mid-hold cannot have left the map half-written — and one bad
/// connection must never take the whole daemon's store down with it.
fn lock_sessions(
    store: &Mutex<BTreeMap<u64, Box<dyn NodeProvider + Send>>>,
) -> std::sync::MutexGuard<'_, BTreeMap<u64, Box<dyn NodeProvider + Send>>> {
    store
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One client's server-side state: the session backends it can reach and
/// the dispatch logic.
pub struct Connection {
    sessions: SessionStore,
    /// Frames dispatched so far (diagnostics).
    pub frames_served: u64,
    /// Live subscription count per session *this connection* opened. Push
    /// routing is per-connection: a client that reconnects and attaches to
    /// a persistent session re-subscribes to resume delivery.
    subs: BTreeMap<u64, u64>,
    /// Daemon-wide counters this connection bumps and reports through
    /// [`Frame::Stats`].
    daemon: Arc<DaemonCounters>,
}

impl Default for Connection {
    fn default() -> Connection {
        Connection::new()
    }
}

impl Connection {
    /// A connection that waits for [`Frame::Provision`]; its sessions are
    /// private and die with it.
    pub fn new() -> Connection {
        Connection::sharing(new_session_store())
    }

    /// A connection onto a persistent daemon's shared [`SessionStore`]:
    /// sessions it provisions outlive it, and sessions earlier
    /// connections provisioned are reachable by [`Frame::Attach`].
    pub fn sharing(sessions: SessionStore) -> Connection {
        Connection {
            sessions,
            frames_served: 0,
            subs: BTreeMap::new(),
            daemon: Arc::default(),
        }
    }

    /// Dispatches one frame, returning the reply and whether the client
    /// asked to close the connection. A [`Frame::Request`] envelope is
    /// unwrapped, dispatched against its session, and answered with a
    /// [`Frame::Reply`] carrying the same correlation id; bare frames
    /// address session 0.
    pub fn handle(&mut self, frame: Frame) -> (Frame, bool) {
        match frame {
            Frame::Request { id, session, frame } => {
                let (reply, done) = self.dispatch(session, *frame);
                (
                    Frame::Reply {
                        id,
                        frame: Box::new(reply),
                    },
                    done,
                )
            }
            frame => self.dispatch(0, frame),
        }
    }

    fn dispatch(&mut self, session: u64, frame: Frame) -> (Frame, bool) {
        self.frames_served += 1;
        self.daemon.frames_served.fetch_add(1, Ordering::Relaxed);
        ofl_trace::trace_event!(
            ofl_trace::Category::Rpcd,
            "rpcd.dispatch",
            "session" => session,
            "served" => self.frames_served,
        );
        let reply = match frame {
            Frame::Provision { chain, genesis } => {
                // The provisioned backend is a *bare* simulated node:
                // costs come back zero and the client's own decorator
                // stack prices, faults, and meters — exactly like an
                // in-process SimProvider.
                let fresh = || {
                    Box::new(SimProvider::new(
                        Chain::new(chain.clone(), &genesis),
                        Swarm::new(),
                    ))
                };
                use std::collections::btree_map::Entry;
                match lock_sessions(&self.sessions).entry(session) {
                    Entry::Occupied(_) => Frame::Error(ProtocolError::AlreadyProvisioned),
                    Entry::Vacant(slot) => {
                        slot.insert(fresh());
                        Frame::Provisioned
                    }
                }
            }
            Frame::Attach { session: target } => self
                .with_provider(target, |p| p.backstage(&BackstageOp::Height).into_u64())
                .map_or(
                    Frame::Error(ProtocolError::NoSuchSession(target)),
                    |height| Frame::Attached { height },
                ),
            Frame::Batch(requests) => match self.with_provider(session, |p| p.batch(&requests)) {
                Ok(responses) => Frame::BatchResponse(responses),
                Err(error) => Frame::Error(error),
            },
            Frame::IpfsAdd { node, data } => {
                match self.with_ipfs(session, node, |p| p.add(node as usize, &data)) {
                    Ok(billed) => Frame::IpfsAdded {
                        cost: billed.cost,
                        result: billed.value,
                    },
                    Err(error) => Frame::Error(error),
                }
            }
            Frame::IpfsCat { node, cid } => {
                match self.with_ipfs(session, node, |p| p.cat(node as usize, &cid)) {
                    Ok(billed) => Frame::IpfsCatted {
                        cost: billed.cost,
                        result: billed.value,
                    },
                    Err(error) => Frame::Error(error),
                }
            }
            Frame::IpfsPin { node, cid } => {
                match self.with_ipfs(session, node, |p| p.pin(node as usize, &cid)) {
                    Ok(billed) => Frame::IpfsPinned {
                        cost: billed.cost,
                        result: billed.value,
                    },
                    Err(error) => Frame::Error(error),
                }
            }
            Frame::Backstage(op) => match self.with_provider(session, |p| p.backstage(&op)) {
                Ok(reply) => Frame::BackstageReply(reply),
                Err(error) => Frame::Error(error),
            },
            Frame::Subscribe { kind } => match self.with_provider(session, |p| p.subscribe(kind)) {
                Ok(sub_id) => {
                    *self.subs.entry(session).or_insert(0) += 1;
                    Frame::Subscribed { sub_id }
                }
                Err(error) => Frame::Error(error),
            },
            Frame::Unsubscribe { sub_id } => {
                match self.with_provider(session, |p| p.unsubscribe(sub_id)) {
                    // Echo the cancelled id; an unknown id echoes 0 (real
                    // ids start at 1) so the client can tell the cases
                    // apart without a dedicated boolean frame.
                    Ok(true) => {
                        if let Some(count) = self.subs.get_mut(&session) {
                            *count -= 1;
                            if *count == 0 {
                                self.subs.remove(&session);
                            }
                        }
                        Frame::Unsubscribed { sub_id }
                    }
                    Ok(false) => Frame::Unsubscribed { sub_id: 0 },
                    Err(error) => Frame::Error(error),
                }
            }
            // Read-only admin probe: a census of the daemon's shared
            // counters, so an operator can watch daemon health without
            // attaching a debugger.
            Frame::Stats => Frame::StatsReply {
                sessions: lock_sessions(&self.sessions).len() as u64,
                workers_reaped: self.daemon.workers_reaped.load(Ordering::Relaxed),
                accept_errors: self.daemon.accept_errors.load(Ordering::Relaxed),
                frames_served: self.daemon.frames_served.load(Ordering::Relaxed),
            },
            Frame::Shutdown => return (Frame::Goodbye, true),
            // The codec refuses nested envelopes; this arm only fires on a
            // hand-built frame.
            Frame::Request { .. } => {
                Frame::Error(ProtocolError::Unsupported("nested request envelope".into()))
            }
            // A server never receives server→client frames.
            other => Frame::Error(ProtocolError::Unsupported(format!(
                "client sent a server-side frame: {other:?}"
            ))),
        };
        (reply, false)
    }

    /// True when this connection holds at least one live subscription —
    /// such connections are exempt from the idle-timeout reap (the serve
    /// loop probes them with [`Frame::Ping`] instead).
    pub fn has_live_subscriptions(&self) -> bool {
        !self.subs.is_empty()
    }

    /// Collects every notification pending on the sessions this connection
    /// subscribed to, as wire-ready [`Frame::Notify`] frames in session
    /// order. The serve loops write these **before** the reply that
    /// triggered them — that ordering is the client's guarantee that a
    /// received reply implies all of its pushes are already buffered.
    pub fn drain_pushes(&mut self) -> Vec<Frame> {
        let sessions: Vec<u64> = self.subs.keys().copied().collect();
        let mut pushes = Vec::new();
        for session in sessions {
            if let Ok(notes) = self.with_provider(session, |p| p.drain_notifications()) {
                pushes.extend(notes.into_iter().map(|n| Frame::Notify {
                    session,
                    sub_id: n.sub_id,
                    seq: n.seq,
                    event: n.event,
                }));
            }
        }
        pushes
    }

    /// Runs `f` against `session`'s provider.
    fn with_provider<R>(
        &mut self,
        session: u64,
        f: impl FnOnce(&mut dyn NodeProvider) -> R,
    ) -> Result<R, ProtocolError> {
        let missing = || {
            if session == 0 {
                ProtocolError::Unprovisioned
            } else {
                ProtocolError::NoSuchSession(session)
            }
        };
        lock_sessions(&self.sessions)
            .get_mut(&session)
            .map(|p| f(p.as_mut()))
            .ok_or_else(missing)
    }

    /// Like [`Connection::with_provider`], additionally bounds-checking
    /// the IPFS node index so a buggy client cannot crash the daemon
    /// thread.
    fn with_ipfs<R>(
        &mut self,
        session: u64,
        node: u64,
        f: impl FnOnce(&mut dyn NodeProvider) -> R,
    ) -> Result<R, ProtocolError> {
        self.with_provider(session, |p| {
            let nodes = p.swarm().len() as u64;
            if node >= nodes {
                return Err(ProtocolError::Unsupported(format!(
                    "ipfs node {node} out of range (swarm has {nodes})"
                )));
            }
            Ok(f(p))
        })?
    }
}

/// Serves one connection's dispatch loop over a blocking byte stream until
/// the client shuts down, hangs up, or the stream desyncs. Returns how many
/// frames were served.
pub fn serve_stream<S: Read + Write>(
    mut stream: S,
    mut conn: Connection,
) -> Result<u64, FrameError> {
    loop {
        let frame = match Frame::read_from(&mut stream) {
            Ok(frame) => frame,
            // The read deadline elapsed on a connection with live
            // subscriptions: that is a *subscriber sitting quiet between
            // frames*, not a stalled client. Probe liveness with a Ping
            // and ship any pending pushes; a dead peer fails the write
            // and frees the worker.
            Err(FrameError::Timeout) if conn.has_live_subscriptions() => {
                if Frame::Ping.write_to(&mut stream).is_err() {
                    return Ok(conn.frames_served);
                }
                for push in conn.drain_pushes() {
                    if push.write_to(&mut stream).is_err() {
                        return Ok(conn.frames_served);
                    }
                }
                continue;
            }
            // A clean hangup between frames is a normal end of session. A
            // read deadline expiring on a subscription-less connection
            // surfaces here too — either way the worker thread is freed.
            Err(FrameError::Io(_) | FrameError::Timeout) if conn.frames_served > 0 => {
                return Ok(conn.frames_served)
            }
            // Typed payload failures are answered in-band; the stream is
            // still frame-synced.
            Err(FrameError::Codec(e)) => {
                Frame::Error(ProtocolError::Malformed(e.to_string())).write_to(&mut stream)?;
                continue;
            }
            Err(FrameError::Version { got }) => {
                Frame::Error(ProtocolError::Unsupported(format!(
                    "protocol v{got} (this daemon speaks v{})",
                    ofl_rpc::PROTOCOL_VERSION
                )))
                .write_to(&mut stream)?;
                continue;
            }
            // Bad magic / oversized / hard I/O: the stream is lost.
            Err(e) => return Err(e),
        };
        let (reply, done) = conn.handle(frame);
        // Pushes caused by this dispatch go out before its reply — the
        // ordering contract clients rely on (see the module docs).
        for push in conn.drain_pushes() {
            push.write_to(&mut stream)?;
        }
        reply.write_to(&mut stream)?;
        if done {
            return Ok(conn.frames_served);
        }
    }
}

/// Knobs for the daemon accept loop.
#[derive(Clone)]
pub struct DaemonOptions {
    /// Stop accepting after this many connections (forever when `None`).
    pub max_connections: Option<usize>,
    /// Read deadline set on accepted sockets, so a client stalled
    /// mid-frame frees its worker thread instead of wedging it forever.
    /// `None` means block indefinitely.
    pub idle_timeout: Option<Duration>,
    /// Initial back-off after a failed accept; doubles per consecutive
    /// failure, capped at one second.
    pub accept_retry: Duration,
    /// Give up (return from the accept loop) after this many
    /// *consecutive* accept failures — a persistent fault like fd
    /// exhaustion must not become a hot spin.
    pub max_accept_failures: u32,
    /// When set, connections share this session store: sessions outlive
    /// the connection that provisioned them and later connections can
    /// [`Frame::Attach`] to them (the `--persist` daemon mode).
    pub sessions: Option<SessionStore>,
}

impl Default for DaemonOptions {
    fn default() -> DaemonOptions {
        DaemonOptions {
            max_connections: None,
            idle_timeout: None,
            accept_retry: Duration::from_millis(10),
            max_accept_failures: 32,
            sessions: None,
        }
    }
}

impl DaemonOptions {
    /// Defaults with an accept budget of `n` connections.
    pub fn max(n: usize) -> DaemonOptions {
        DaemonOptions {
            max_connections: Some(n),
            ..DaemonOptions::default()
        }
    }
}

/// What an accept loop did, for operators and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Connections accepted and served.
    pub connections: u64,
    /// Accepts that failed (logged, backed off).
    pub accept_errors: u64,
    /// Most worker threads alive at once — bounded by reaping, where the
    /// pre-hardening loop grew its handle list without bound.
    pub peak_workers: usize,
    /// Finished worker threads reaped on later accepts.
    pub workers_reaped: u64,
    /// Frames dispatched across every connection.
    pub frames_served: u64,
}

/// The accept loop every listener flavor shares: each accepted stream is
/// served on its own thread with a fresh [`Connection`] (session-sharing
/// when [`DaemonOptions::sessions`] is set). Finished workers are reaped
/// on every accept; accept errors are logged and backed off, and the loop
/// exits after [`DaemonOptions::max_accept_failures`] consecutive
/// failures. Returns once the accept budget is spent **and** every served
/// connection has ended.
pub fn serve_incoming<S>(
    incoming: impl Iterator<Item = std::io::Result<S>>,
    options: DaemonOptions,
) -> DaemonStats
where
    S: Read + Write + Send + 'static,
{
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut stats = DaemonStats::default();
    let daemon = Arc::new(DaemonCounters::default());
    let mut consecutive_failures = 0u32;
    let mut backoff = options.accept_retry;
    for stream in incoming {
        let stream = match stream {
            Ok(stream) => {
                consecutive_failures = 0;
                backoff = options.accept_retry;
                stream
            }
            Err(error) => {
                daemon.accept_errors.fetch_add(1, Ordering::Relaxed);
                consecutive_failures += 1;
                eprintln!("rpcd: accept failed ({consecutive_failures} in a row): {error}");
                if consecutive_failures >= options.max_accept_failures {
                    eprintln!(
                        "rpcd: giving up after {consecutive_failures} consecutive accept failures"
                    );
                    break;
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_secs(1));
                continue;
            }
        };
        let before = workers.len();
        workers.retain(|worker| !worker.is_finished());
        daemon
            .workers_reaped
            .fetch_add((before - workers.len()) as u64, Ordering::Relaxed);
        let sessions = options.sessions.clone();
        let counters = daemon.clone();
        workers.push(std::thread::spawn(move || {
            let mut conn = match sessions {
                Some(store) => Connection::sharing(store),
                None => Connection::new(),
            };
            conn.daemon = counters;
            let _ = serve_stream(stream, conn);
        }));
        stats.connections += 1;
        stats.peak_workers = stats.peak_workers.max(workers.len());
        if options
            .max_connections
            .is_some_and(|max| stats.connections as usize >= max)
        {
            break;
        }
    }
    for worker in workers {
        let _ = worker.join();
    }
    DaemonStats {
        accept_errors: daemon.accept_errors.load(Ordering::Relaxed),
        workers_reaped: daemon.workers_reaped.load(Ordering::Relaxed),
        frames_served: daemon.frames_served.load(Ordering::Relaxed),
        ..stats
    }
}

/// [`serve_incoming`] over a TCP listener: `TCP_NODELAY` plus the
/// configured read deadline on every accepted socket.
pub fn serve_listener_with(listener: TcpListener, options: DaemonOptions) -> DaemonStats {
    let idle = options.idle_timeout;
    serve_incoming(
        listener.incoming().map(move |stream| {
            stream.inspect(|s| {
                let _ = s.set_nodelay(true);
                let _ = s.set_read_timeout(idle);
            })
        }),
        options,
    )
}

/// [`serve_listener_with`] over a Unix domain socket.
#[cfg(unix)]
pub fn serve_unix_listener_with(listener: UnixListener, options: DaemonOptions) -> DaemonStats {
    let idle = options.idle_timeout;
    serve_incoming(
        listener.incoming().map(move |stream| {
            stream.inspect(|s| {
                let _ = s.set_read_timeout(idle);
            })
        }),
        options,
    )
}

/// Client and daemon in one process, zero threads, full codec fidelity:
/// every `send` encodes the frame to wire bytes, re-decodes it
/// server-side, dispatches on the embedded [`Connection`], and queues the
/// **encoded** reply for `recv` to decode — so both directions of the wire
/// format are exercised on every call, deterministically.
pub struct PipeTransport {
    conn: Connection,
    replies: VecDeque<Vec<u8>>,
    /// Push frames diverted out of the reply stream by `recv`, waiting
    /// for `drain_pushes`.
    pushes: VecDeque<Frame>,
    /// Reused request-side encode buffer (replies need owned buffers, so
    /// only the outbound leg can recycle its allocation).
    wire: Vec<u8>,
}

impl PipeTransport {
    /// A pipe to a fresh provisionable server connection.
    pub fn new() -> PipeTransport {
        PipeTransport {
            conn: Connection::new(),
            replies: VecDeque::new(),
            pushes: VecDeque::new(),
            wire: Vec::new(),
        }
    }
}

impl Default for PipeTransport {
    fn default() -> Self {
        PipeTransport::new()
    }
}

impl FrameTransport for PipeTransport {
    fn send(&mut self, frame: &Frame) -> Result<(), FrameError> {
        frame.encode_into(&mut self.wire)?;
        let (decoded, _) = Frame::decode(&self.wire)?;
        let (reply, _done) = self.conn.handle(decoded);
        // Same wire ordering as the stream loops: pushes caused by this
        // dispatch are queued before the reply, and `recv` diverts them.
        // Each is framed as a socket frames it, so an oversized one is a
        // typed `TooLarge` here too.
        for frame in self.conn.drain_pushes().iter().chain([&reply]) {
            let mut wire = Vec::new();
            frame.encode_into(&mut wire)?;
            self.replies.push_back(wire);
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<Frame, FrameError> {
        loop {
            let wire = self
                .replies
                .pop_front()
                .ok_or_else(|| FrameError::Io("pipe: recv with no pending reply".into()))?;
            match Frame::decode(&wire).map(|(frame, _)| frame)? {
                push @ Frame::Notify { .. } => self.pushes.push_back(push),
                Frame::Ping => {}
                frame => return Ok(frame),
            }
        }
    }

    fn drain_pushes(&mut self) -> Vec<Frame> {
        self.pushes.drain(..).collect()
    }

    fn peer(&self) -> String {
        "pipe://in-memory".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofl_eth::chain::ChainConfig;
    use ofl_eth::wallet::Wallet;
    use ofl_ipfs::cid::Cid;
    use ofl_primitives::u256::U256;
    use ofl_primitives::wei_per_eth;
    use ofl_rpc::{
        BackstageOp, EthApi, IpfsApi, NodeProvider, RpcError, RpcMethod, RpcRequest, RpcResult,
        SessionMux, SocketProvider, SubEvent, SubscriptionKind,
    };

    fn provisioned_socket(n_accounts: usize) -> (SocketProvider, Wallet) {
        let wallet = Wallet::from_seed("rpcd-test", n_accounts);
        let genesis: Vec<_> = wallet
            .addresses()
            .iter()
            .map(|a| (*a, wei_per_eth()))
            .collect();
        let mut socket = SocketProvider::new(Box::new(PipeTransport::new()));
        socket
            .provision(ChainConfig::default(), genesis)
            .expect("pipe provisions");
        (socket, wallet)
    }

    #[test]
    fn provision_execute_and_backstage_over_the_pipe() {
        let (mut socket, wallet) = provisioned_socket(2);
        let [a, b] = [wallet.addresses()[0], wallet.addresses()[1]];
        assert_eq!(socket.get_balance(&a).value.unwrap(), wei_per_eth());

        // Submit a transfer through the wire, mine backstage, poll it back.
        let env_chain_id = socket.chain_id().value.unwrap();
        assert_eq!(env_chain_id, ChainConfig::default().chain_id);
        let nonce = socket.get_transaction_count(&a).value.unwrap();
        assert_eq!(nonce, 0);
        let config = socket.backstage(&BackstageOp::Config).into_config();
        let raw = {
            // Sign locally against the fetched environment (no local chain).
            use ofl_eth::tx::{sign_tx, TxRequest};
            let key = wallet.account(&a).unwrap().private_key;
            sign_tx(
                TxRequest {
                    chain_id: config.chain_id,
                    nonce,
                    max_priority_fee_per_gas: U256::from(1_500_000_000u64),
                    max_fee_per_gas: U256::from(40_000_000_000u64),
                    gas_limit: 21_000,
                    to: Some(b),
                    value: U256::from(5u64),
                    data: Vec::new(),
                },
                &key,
            )
            .unwrap()
            .encode()
        };
        let hash = socket.send_raw_transaction(&raw).value.unwrap();
        assert_eq!(
            socket.get_transaction_receipt(hash).value.unwrap(),
            None,
            "unmined"
        );
        let block = socket
            .backstage(&BackstageOp::MineSlot { slot_secs: 12 })
            .into_block();
        assert_eq!(block.tx_hashes, vec![hash]);
        let receipt = socket
            .get_transaction_receipt(hash)
            .value
            .unwrap()
            .expect("mined");
        assert!(receipt.is_success());
        assert_eq!(socket.backstage(&BackstageOp::Height).into_u64(), 1);
    }

    #[test]
    fn batches_travel_as_one_frame_and_scatter_in_order() {
        let (mut socket, wallet) = provisioned_socket(1);
        let a = wallet.addresses()[0];
        let responses = socket.batch(&[
            RpcRequest::new(7, RpcMethod::BlockNumber),
            RpcRequest::new(8, RpcMethod::GetBalance { address: a }),
            RpcRequest::new(9, RpcMethod::ChainId),
        ]);
        assert_eq!(responses.len(), 3);
        assert_eq!(responses[0].id, 7);
        assert!(matches!(responses[0].result, Ok(RpcResult::BlockNumber(0))));
        assert!(matches!(&responses[1].result, Ok(RpcResult::Balance(b)) if *b == wei_per_eth()));
        assert!(matches!(responses[2].result, Ok(RpcResult::ChainId(_))));
    }

    #[test]
    fn a_single_request_before_provisioning_is_a_tagged_transport_error() {
        let mut socket = SocketProvider::new(Box::new(PipeTransport::new()));
        let refused = socket.execute(&RpcRequest::new(17, RpcMethod::BlockNumber));
        assert_eq!(refused.id, 17, "the refusal answers its own request");
        assert!(
            matches!(&refused.result, Err(RpcError::Transport(msg)) if msg.contains("no backend")),
            "{:?}",
            refused.result
        );
        // The connection survives the refusal and serves the same socket
        // once it is provisioned.
        socket
            .provision(ChainConfig::default(), vec![])
            .expect("pipe provisions");
        let served = socket.execute(&RpcRequest::new(18, RpcMethod::BlockNumber));
        assert_eq!(served.id, 18);
        assert!(matches!(served.result, Ok(RpcResult::BlockNumber(0))));
    }

    /// A pipe that counts the frames its client sends.
    struct CountingPipe {
        pipe: PipeTransport,
        sent: Arc<AtomicU64>,
    }

    impl FrameTransport for CountingPipe {
        fn send(&mut self, frame: &Frame) -> Result<(), FrameError> {
            self.sent.fetch_add(1, Ordering::Relaxed);
            self.pipe.send(frame)
        }
        fn recv(&mut self) -> Result<Frame, FrameError> {
            self.pipe.recv()
        }
        fn drain_pushes(&mut self) -> Vec<Frame> {
            self.pipe.drain_pushes()
        }
        fn peer(&self) -> String {
            self.pipe.peer()
        }
    }

    /// Stale reads over a socket shard read the canonical head once per
    /// batch, not once per mined receipt: an 8-receipt poll is 2 frames
    /// (it was 9), still one metered round trip, and hides exactly the
    /// receipts the in-process stack hides.
    #[test]
    fn stale_receipt_polls_read_the_head_once_per_batch_over_the_pipe() {
        use ofl_eth::tx::{sign_tx, TxRequest};
        use ofl_netsim::link::NetworkProfile;
        use ofl_rpc::{decorate, EndpointFaults, StaleProfile};

        let wallet = Wallet::from_seed("rpcd-stale", 2);
        let [a, b] = [wallet.addresses()[0], wallet.addresses()[1]];
        let genesis = vec![(a, wei_per_eth()), (b, wei_per_eth())];
        let knobs = EndpointFaults {
            stale: Some(StaleProfile::new(11, 2)),
            ..EndpointFaults::default()
        };
        let sent = Arc::new(AtomicU64::new(0));
        let mut socket = SocketProvider::new(Box::new(CountingPipe {
            pipe: PipeTransport::new(),
            sent: Arc::clone(&sent),
        }));
        socket
            .provision(ChainConfig::default(), genesis.clone())
            .expect("pipe provisions");
        let in_process =
            SimProvider::new(Chain::new(ChainConfig::default(), &genesis), Swarm::new());
        let mut stacks = [
            Box::new(socket) as Box<dyn NodeProvider>,
            Box::new(in_process),
        ]
        .map(|backend| decorate(backend, NetworkProfile::campus(), 250, knobs));

        // 8 transfers mined two per slot, so the head ends 4 blocks up and
        // the receipts sit at different depths below it.
        let key = wallet.account(&a).unwrap().private_key;
        let mut hashes = Vec::new();
        for nonce in 0..8u64 {
            let raw = sign_tx(
                TxRequest {
                    chain_id: ChainConfig::default().chain_id,
                    nonce,
                    max_priority_fee_per_gas: U256::from(1_500_000_000u64),
                    max_fee_per_gas: U256::from(40_000_000_000u64),
                    gas_limit: 21_000,
                    to: Some(b),
                    value: U256::from(5u64),
                    data: Vec::new(),
                },
                &key,
            )
            .unwrap()
            .encode();
            let [remote_hash, local_hash] = stacks
                .each_mut()
                .map(|stack| stack.send_raw_transaction(&raw).value);
            assert_eq!(remote_hash, local_hash);
            hashes.push(remote_hash.unwrap());
            if nonce % 2 == 1 {
                for stack in &mut stacks {
                    stack.backstage(&BackstageOp::MineSlot { slot_secs: 12 });
                }
            }
        }
        let polls: Vec<RpcRequest> = hashes
            .iter()
            .zip(100..)
            .map(|(hash, id)| RpcRequest::new(id, RpcMethod::GetTransactionReceipt { hash: *hash }))
            .collect();

        let [remote, local] = &mut stacks;
        let (frames, round_trips) = (
            sent.load(Ordering::Relaxed),
            remote.metrics().unwrap().round_trips,
        );
        let answers = remote.batch(&polls);
        assert_eq!(
            sent.load(Ordering::Relaxed) - frames,
            2,
            "poll + one head read"
        );
        assert_eq!(remote.metrics().unwrap().round_trips - round_trips, 1);
        assert_eq!(answers, local.batch(&polls));
        let shown = answers
            .iter()
            .filter(|answer| matches!(answer.result, Ok(RpcResult::Receipt(Some(_)))))
            .count();
        assert!(0 < shown && shown < 8, "{shown} of 8 receipts shown");
    }

    #[test]
    fn ipfs_round_trips_with_spawned_nodes() {
        let (mut socket, _) = provisioned_socket(1);
        let nodes = socket
            .backstage(&BackstageOp::SpawnIpfsNodes {
                labels: vec!["a".into(), "b".into()],
            })
            .into_node_indices();
        assert_eq!(nodes, [0, 1]);
        let (n0, n1) = (0, 1);
        let added = socket.add(n0, b"model bytes").value;
        let (bytes, stats) = socket.cat(n1, &added.root).value.unwrap();
        assert_eq!(bytes, b"model bytes");
        assert!(stats.blocks_fetched >= 1);
        assert!(socket.pin(n1, &added.root).value.is_ok());
        let missing = Cid::v0_of(b"never added");
        assert_eq!(
            socket
                .backstage(&BackstageOp::SwarmHas {
                    cids: vec![added.root.clone(), missing]
                })
                .into_flags(),
            [true, false]
        );
        socket.backstage(&BackstageOp::DropIpfsBlock {
            node: n0 as u64,
            cid: added.root.clone(),
        });
        // Node 1 pinned it, so the swarm still serves the content.
        assert_eq!(
            socket
                .backstage(&BackstageOp::SwarmHas {
                    cids: vec![added.root]
                })
                .into_flags(),
            [true]
        );
    }

    #[test]
    fn protocol_errors_keep_the_connection_alive() {
        let mut conn = Connection::new();
        // Request before provisioning → typed error, connection lives.
        let (reply, done) = conn.handle(Frame::Batch(vec![RpcRequest::new(
            0,
            RpcMethod::BlockNumber,
        )]));
        assert_eq!(reply, Frame::Error(ProtocolError::Unprovisioned));
        assert!(!done);
        // Provision, then provision again → typed error again.
        let (reply, _) = conn.handle(Frame::Provision {
            chain: ChainConfig::default(),
            genesis: vec![],
        });
        assert_eq!(reply, Frame::Provisioned);
        let (reply, _) = conn.handle(Frame::Provision {
            chain: ChainConfig::default(),
            genesis: vec![],
        });
        assert_eq!(reply, Frame::Error(ProtocolError::AlreadyProvisioned));
        // Out-of-range IPFS node → typed error, not a panic.
        let (reply, _) = conn.handle(Frame::IpfsAdd {
            node: 3,
            data: vec![1],
        });
        assert!(matches!(reply, Frame::Error(ProtocolError::Unsupported(_))));
        // A session nobody provisioned → typed error naming the session.
        let (reply, _) = conn.handle(Frame::Request {
            id: 1,
            session: 9,
            frame: Box::new(Frame::Batch(vec![RpcRequest::new(
                0,
                RpcMethod::BlockNumber,
            )])),
        });
        assert_eq!(
            reply,
            Frame::Reply {
                id: 1,
                frame: Box::new(Frame::Error(ProtocolError::NoSuchSession(9))),
            }
        );
        // Attaching to a missing session, likewise.
        let (reply, _) = conn.handle(Frame::Attach { session: 9 });
        assert_eq!(reply, Frame::Error(ProtocolError::NoSuchSession(9)));
        // Shutdown is graceful.
        let (reply, done) = conn.handle(Frame::Shutdown);
        assert_eq!(reply, Frame::Goodbye);
        assert!(done);
    }

    #[test]
    fn new_connections_keep_their_sessions_private() {
        let provision = |conn: &mut Connection, session| {
            let (reply, _) = conn.handle(Frame::Request {
                id: session,
                session,
                frame: Box::new(Frame::Provision {
                    chain: ChainConfig::default(),
                    genesis: vec![],
                }),
            });
            assert_eq!(
                reply,
                Frame::Reply {
                    id: session,
                    frame: Box::new(Frame::Provisioned),
                }
            );
        };
        let sessions = |conn: &mut Connection| match conn.handle(Frame::Stats).0 {
            Frame::StatsReply { sessions, .. } => sessions,
            other => panic!("expected a stats reply, got {other:?}"),
        };
        let (mut a, mut b) = (Connection::new(), Connection::new());
        provision(&mut a, 1);
        provision(&mut b, 2);
        provision(&mut b, 3);
        // Each connection reaches its own sessions and nobody else's.
        assert!(matches!(
            a.handle(Frame::Attach { session: 1 }).0,
            Frame::Attached { .. }
        ));
        assert_eq!(
            b.handle(Frame::Attach { session: 1 }).0,
            Frame::Error(ProtocolError::NoSuchSession(1))
        );
        assert_eq!(
            a.handle(Frame::Attach { session: 2 }).0,
            Frame::Error(ProtocolError::NoSuchSession(2))
        );
        assert_eq!(sessions(&mut a), 1);
        assert_eq!(sessions(&mut b), 2);
    }

    #[test]
    fn session_mux_serves_two_independent_chains_over_one_pipe() {
        let mux = SessionMux::new(Box::new(PipeTransport::new()));
        let mut s1 = mux.session(1);
        let mut s2 = mux.session(2);
        let genesis = |seed: &str| {
            let wallet = Wallet::from_seed(seed, 1);
            vec![(wallet.addresses()[0], wei_per_eth())]
        };
        // Interleave: both requests on the wire before either reply is
        // read, and the replies read in the *opposite* order — the mux
        // parks session 1's reply while session 2 asks first.
        s1.send(&Frame::Provision {
            chain: ChainConfig::default(),
            genesis: genesis("mux-1"),
        })
        .unwrap();
        s2.send(&Frame::Provision {
            chain: ChainConfig::default(),
            genesis: genesis("mux-2"),
        })
        .unwrap();
        assert_eq!(s2.recv().unwrap(), Frame::Provisioned);
        assert_eq!(s1.recv().unwrap(), Frame::Provisioned);
        // Mine only on session 1; heights must not bleed across sessions.
        s1.send(&Frame::Backstage(BackstageOp::MineSlot { slot_secs: 12 }))
            .unwrap();
        s1.recv().unwrap();
        s1.send(&Frame::Backstage(BackstageOp::Height)).unwrap();
        s2.send(&Frame::Backstage(BackstageOp::Height)).unwrap();
        let h2 = match s2.recv().unwrap() {
            Frame::BackstageReply(reply) => reply.into_u64(),
            other => panic!("unexpected reply: {other:?}"),
        };
        let h1 = match s1.recv().unwrap() {
            Frame::BackstageReply(reply) => reply.into_u64(),
            other => panic!("unexpected reply: {other:?}"),
        };
        assert_eq!((h1, h2), (1, 0));
        assert_eq!(s1.peer(), "pipe://in-memory#session1");
    }

    #[test]
    fn real_tcp_socket_serves_a_provisioned_chain() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let server =
            std::thread::spawn(move || serve_listener_with(listener, DaemonOptions::max(1)));

        let endpoint = ofl_rpc::RemoteEndpoint::Tcp(addr.to_string());
        let wallet = Wallet::from_seed("rpcd-tcp", 1);
        let a = wallet.addresses()[0];
        let mut socket = SocketProvider::new(endpoint.connect().expect("connect"));
        socket
            .provision(ChainConfig::default(), vec![(a, wei_per_eth())])
            .expect("provisions over tcp");
        assert_eq!(socket.get_balance(&a).value.unwrap(), wei_per_eth());
        socket
            .backstage(&BackstageOp::MineSlot { slot_secs: 12 })
            .into_block();
        assert_eq!(socket.block_number().value.unwrap(), 1);
        socket.shutdown();
        server.join().expect("server thread exits cleanly");
    }

    #[test]
    fn malformed_payloads_get_error_frames_over_a_real_stream() {
        use std::io::Write as _;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let server =
            std::thread::spawn(move || serve_listener_with(listener, DaemonOptions::max(1)));

        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        // A valid header framing a garbage payload.
        let mut wire = Vec::new();
        wire.extend_from_slice(&ofl_rpc::frame::FRAME_MAGIC.to_le_bytes());
        wire.extend_from_slice(&ofl_rpc::PROTOCOL_VERSION.to_le_bytes());
        wire.extend_from_slice(&2u32.to_le_bytes());
        wire.extend_from_slice(&[0xEE, 0xFF]);
        stream.write_all(&wire).unwrap();
        let reply = Frame::read_from(&mut stream).expect("server answered in-band");
        assert!(matches!(reply, Frame::Error(ProtocolError::Malformed(_))));
        // The connection survived: a well-formed shutdown still works.
        Frame::Shutdown.write_to(&mut stream).unwrap();
        assert_eq!(Frame::read_from(&mut stream).unwrap(), Frame::Goodbye);
        server.join().expect("server thread exits");
    }

    /// A canned client: `Read` yields the scripted request bytes then EOF,
    /// `Write` discards the daemon's replies.
    struct ScriptedStream {
        input: std::io::Cursor<Vec<u8>>,
    }

    impl ScriptedStream {
        fn sending(frames: &[Frame]) -> ScriptedStream {
            let mut wire = Vec::new();
            for frame in frames {
                wire.extend_from_slice(&frame.encode());
            }
            ScriptedStream {
                input: std::io::Cursor::new(wire),
            }
        }
    }

    impl Read for ScriptedStream {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for ScriptedStream {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn persistent_accept_failures_back_off_and_exit_instead_of_spinning() {
        let incoming =
            std::iter::repeat_with(|| Err::<ScriptedStream, _>(std::io::Error::other("emfile")));
        let stats = serve_incoming(
            incoming,
            DaemonOptions {
                accept_retry: Duration::ZERO,
                max_accept_failures: 5,
                ..DaemonOptions::default()
            },
        );
        // Without the failure cap this loop would never return.
        assert_eq!(stats.accept_errors, 5);
        assert_eq!(stats.connections, 0);
    }

    #[test]
    fn accept_errors_reset_on_success_and_do_not_end_the_loop_early() {
        let mut step = 0u32;
        let incoming = std::iter::from_fn(move || {
            step += 1;
            Some(match step % 2 {
                // Alternate error/success: consecutive-failure count must
                // reset each time, so 8 errors never trip a cap of 3.
                1 => Err(std::io::Error::other("transient")),
                _ => Ok(ScriptedStream::sending(&[Frame::Shutdown])),
            })
        })
        .take(16);
        let stats = serve_incoming(
            incoming,
            DaemonOptions {
                accept_retry: Duration::ZERO,
                max_accept_failures: 3,
                ..DaemonOptions::default()
            },
        );
        assert_eq!(stats.accept_errors, 8);
        assert_eq!(stats.connections, 8);
    }

    #[test]
    fn finished_workers_are_reaped_not_accumulated() {
        // Each scripted client shuts down immediately; with a pause
        // between accepts every worker is long dead by the next one, so a
        // reaping loop holds ~1 handle where the old loop would hold 8.
        let incoming = std::iter::repeat_with(|| {
            std::thread::sleep(Duration::from_millis(50));
            Ok(ScriptedStream::sending(&[Frame::Shutdown]))
        })
        .take(8);
        let stats = serve_incoming(incoming, DaemonOptions::default());
        assert_eq!(stats.connections, 8);
        assert!(
            stats.peak_workers <= 2,
            "workers not reaped: peak {}",
            stats.peak_workers
        );
    }

    #[test]
    fn a_stalled_client_cannot_wedge_the_daemon() {
        use std::io::Write as _;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let stats = serve_listener_with(
                listener,
                DaemonOptions {
                    max_connections: Some(1),
                    idle_timeout: Some(Duration::from_millis(100)),
                    ..DaemonOptions::default()
                },
            );
            let _ = done_tx.send(stats);
        });
        // Write half a header, then stall without hanging up.
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        stream
            .write_all(&ofl_rpc::frame::FRAME_MAGIC.to_le_bytes())
            .unwrap();
        // The read deadline frees the worker; without it the daemon would
        // block in read_from forever and this recv would time out.
        let stats = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("daemon freed the stalled worker");
        assert_eq!(stats.connections, 1);
        drop(stream);
    }

    #[test]
    fn pushes_arrive_before_the_reply_that_triggered_them_over_the_pipe() {
        let (mut socket, wallet) = provisioned_socket(2);
        let [a, b] = [wallet.addresses()[0], wallet.addresses()[1]];
        assert_eq!(socket.subscribe(SubscriptionKind::PendingTxs), 1);
        assert_eq!(socket.subscribe(SubscriptionKind::NewHeads), 2);
        // Submit through the wire: the daemon queues the PendingTx push
        // before the TxHash reply, so once send_raw_transaction returns
        // the notification is already client-side.
        let config = socket.backstage(&BackstageOp::Config).into_config();
        let raw = {
            use ofl_eth::tx::{sign_tx, TxRequest};
            let key = wallet.account(&a).unwrap().private_key;
            sign_tx(
                TxRequest {
                    chain_id: config.chain_id,
                    nonce: 0,
                    max_priority_fee_per_gas: U256::from(1_500_000_000u64),
                    max_fee_per_gas: U256::from(40_000_000_000u64),
                    gas_limit: 21_000,
                    to: Some(b),
                    value: U256::from(5u64),
                    data: Vec::new(),
                },
                &key,
            )
            .unwrap()
            .encode()
        };
        let hash = socket.send_raw_transaction(&raw).value.unwrap();
        let notes = socket.drain_notifications();
        assert_eq!(notes.len(), 1);
        assert_eq!((notes[0].sub_id, notes[0].seq), (1, 0));
        assert!(matches!(&notes[0].event, SubEvent::PendingTx(p) if p.hash == hash));
        // Mining backstage pushes the new head the same way.
        socket
            .backstage(&BackstageOp::MineSlot { slot_secs: 12 })
            .into_block();
        let notes = socket.drain_notifications();
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[0].sub_id, 2);
        assert!(matches!(&notes[0].event, SubEvent::NewHead(h) if h.tx_hashes == vec![hash]));
        // Unsubscribing echoes the id; an unknown id echoes 0 → false.
        assert!(socket.unsubscribe(2));
        assert!(!socket.unsubscribe(99));
        socket
            .backstage(&BackstageOp::MineSlot { slot_secs: 12 })
            .into_block();
        assert!(socket.drain_notifications().is_empty());
    }

    #[test]
    fn a_subscriber_survives_the_read_deadline_while_a_stalled_client_is_reaped() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let stats = serve_listener_with(
                listener,
                DaemonOptions {
                    max_connections: Some(2),
                    idle_timeout: Some(Duration::from_millis(50)),
                    ..DaemonOptions::default()
                },
            );
            let _ = done_tx.send(stats);
        });
        let endpoint = ofl_rpc::RemoteEndpoint::Tcp(addr.to_string());
        let wallet = Wallet::from_seed("rpcd-keepalive", 1);
        let a = wallet.addresses()[0];
        let mut socket = SocketProvider::new(endpoint.connect().expect("connect"));
        socket
            .provision(ChainConfig::default(), vec![(a, wei_per_eth())])
            .expect("provisions");
        assert_eq!(socket.subscribe(SubscriptionKind::NewHeads), 1);
        // A second client that never sends a frame: the read deadline
        // must still reap it — the keepalive exemption is only for
        // connections with live subscriptions.
        let stalled = std::net::TcpStream::connect(addr).expect("connect");
        // Sit quiet across several deadline periods. Pre-fix, the daemon
        // reaped this connection too; now it answers each deadline with a
        // Ping (which the client transport swallows) and keeps serving.
        std::thread::sleep(Duration::from_millis(300));
        socket
            .backstage(&BackstageOp::MineSlot { slot_secs: 12 })
            .into_block();
        let notes = socket.drain_notifications();
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[0].sub_id, 1);
        assert!(matches!(notes[0].event, SubEvent::NewHead(_)));
        socket.shutdown();
        drop(stalled);
        let stats = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("daemon exits once both connections end");
        assert_eq!(stats.connections, 2);
    }

    #[test]
    fn stats_probe_reports_daemon_counters_over_live_tcp() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let store = new_session_store();
        let server = {
            let options = DaemonOptions {
                max_connections: Some(2),
                sessions: Some(store.clone()),
                ..DaemonOptions::default()
            };
            std::thread::spawn(move || serve_listener_with(listener, options))
        };
        let endpoint = ofl_rpc::RemoteEndpoint::Tcp(addr.to_string());
        let wallet = Wallet::from_seed("rpcd-stats", 1);
        let a = wallet.addresses()[0];
        // Connection 1 does real work against a persistent session, so the
        // probe has something to count.
        {
            let mut socket = SocketProvider::new(endpoint.connect().expect("connect"));
            socket
                .provision(ChainConfig::default(), vec![(a, wei_per_eth())])
                .expect("provisions");
            assert_eq!(socket.get_balance(&a).value.unwrap(), wei_per_eth());
            socket.shutdown();
        }
        // Connection 2 is a raw wire-level admin probe.
        use std::net::TcpStream;
        let mut stream = TcpStream::connect(addr).expect("connect");
        Frame::Stats.write_to(&mut stream).unwrap();
        match Frame::read_from(&mut stream).expect("stats reply") {
            // Whether connection 1's worker was reaped yet races the
            // second accept, so `workers_reaped` is not pinned.
            Frame::StatsReply {
                sessions,
                accept_errors,
                frames_served,
                ..
            } => {
                assert_eq!(sessions, 1, "the persistent session outlives connection 1");
                assert_eq!(accept_errors, 0);
                assert_eq!(
                    frames_served, 4,
                    "provision + balance + shutdown on connection 1, then this probe"
                );
            }
            other => panic!("expected StatsReply, got {other:?}"),
        }
        Frame::Shutdown.write_to(&mut stream).unwrap();
        assert_eq!(Frame::read_from(&mut stream).unwrap(), Frame::Goodbye);
        let stats = server.join().expect("server exits");
        // The same counters the wire probe read, plus this Shutdown.
        assert_eq!(stats.connections, 2);
        assert_eq!(stats.accept_errors, 0);
        assert_eq!(stats.frames_served, 5);
    }

    #[test]
    fn persistent_sessions_survive_reconnects() {
        let store = new_session_store();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let server_store = store.clone();
        let server = std::thread::spawn(move || {
            serve_listener_with(
                listener,
                DaemonOptions {
                    max_connections: Some(2),
                    sessions: Some(server_store),
                    ..DaemonOptions::default()
                },
            )
        });
        let endpoint = ofl_rpc::RemoteEndpoint::Tcp(addr.to_string());
        let wallet = Wallet::from_seed("rpcd-persist", 1);
        let a = wallet.addresses()[0];

        // Connection 1: provision session 7 through the mux and mine one
        // block, then hang up without shutting the daemon down.
        {
            let mux = SessionMux::new(endpoint.connect().expect("connect"));
            let mut socket = SocketProvider::new(Box::new(mux.session(7)));
            socket
                .provision(ChainConfig::default(), vec![(a, wei_per_eth())])
                .expect("provisions session 7");
            socket
                .backstage(&BackstageOp::MineSlot { slot_secs: 12 })
                .into_block();
        }

        // Connection 2: the session is still there, mined state intact.
        let mux = SessionMux::new(endpoint.connect().expect("connect"));
        let mut socket = SocketProvider::new(Box::new(mux.session(7)));
        assert_eq!(socket.attach(7).expect("session 7 lives"), 1);
        assert_eq!(socket.block_number().value.unwrap(), 1);
        assert!(matches!(
            socket.attach(8),
            Err(FrameError::Protocol(ProtocolError::NoSuchSession(8)))
        ));
        socket.shutdown();
        let stats = server.join().expect("server thread exits");
        assert_eq!(stats.connections, 2);
        assert_eq!(store.lock().unwrap().len(), 1);
    }
}
