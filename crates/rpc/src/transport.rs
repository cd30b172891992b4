//! Byte-stream transports for the frame protocol: one trait, served by a
//! real TCP/Unix socket in production and by an in-memory duplex pipe in
//! deterministic tests.
//!
//! A [`FrameTransport`] is request/response from the client's side: `send`
//! one frame, `recv` its answer. That matches the dispatch loop the `rpcd`
//! daemon runs — one frame in, one frame out — and keeps the client free
//! of any read-buffer state machine. A provider batch is one
//! [`Frame::Batch`], so a batch costs one round trip.
//!
//! [`SessionMux`] multiplexes several independent sessions — several
//! provisioned shard backends — over **one** underlying connection, each
//! session exposed as its own [`FrameTransport`].

// R1: the daemon serves untrusted peers on this code, so it returns
// typed errors and never panics. Tests may unwrap (clippy.toml).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::frame::{Frame, FrameError};
use ofl_primitives::hotpath::{HotPhase, PhaseTimer};
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One end of a frame conversation. Transports are `Send` so a provider
/// stack built over one can run on a per-shard worker thread.
pub trait FrameTransport: Send {
    /// Ships one frame to the peer.
    fn send(&mut self, frame: &Frame) -> Result<(), FrameError>;
    /// Receives the peer's next frame.
    fn recv(&mut self) -> Result<Frame, FrameError>;
    /// A human-readable peer description for error messages.
    fn peer(&self) -> String {
        "peer".into()
    }
    /// Takes every [`Frame::Notify`] push buffered so far, in arrival
    /// order. Pushes only accumulate while the transport is reading (the
    /// daemon writes them ahead of the reply that caused them, so by the
    /// time a reply lands its pushes are already buffered). Transports
    /// without a push path (the default) return nothing.
    fn drain_pushes(&mut self) -> Vec<Frame> {
        Vec::new()
    }
}

/// Wire-level counters a transport reports (shared, clonable handle): how
/// many frames actually crossed the wire and how long the client sat
/// blocked waiting for replies. The benches read these to split a socket
/// run's wall time into frames shipped and time spent waiting on the
/// daemon.
#[derive(Debug, Default)]
pub struct WireStats {
    frames_sent: AtomicU64,
    frames_received: AtomicU64,
    recv_wait_nanos: AtomicU64,
}

/// A clonable handle onto one transport's [`WireStats`].
#[derive(Debug, Clone, Default)]
pub struct WireCounter(Arc<WireStats>);

impl WireCounter {
    /// Frames shipped to the peer.
    pub fn frames_sent(&self) -> u64 {
        self.0.frames_sent.load(Ordering::Relaxed)
    }
    /// Frames received from the peer.
    pub fn frames_received(&self) -> u64 {
        self.0.frames_received.load(Ordering::Relaxed)
    }
    /// Wall-clock seconds the client spent blocked inside `recv`: the
    /// daemon's turnaround as this client saw it.
    pub fn recv_wait_secs(&self) -> f64 {
        self.0.recv_wait_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }
    fn count_send(&self) {
        self.0.frames_sent.fetch_add(1, Ordering::Relaxed);
    }
    fn count_recv(&self, waited: std::time::Duration) {
        self.0.frames_received.fetch_add(1, Ordering::Relaxed);
        self.0
            .recv_wait_nanos
            .fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Frame framing over any blocking byte stream (TCP socket, Unix socket,
/// or anything else `Read + Write`). [`Frame::Notify`] pushes read while
/// waiting for a reply are buffered until
/// [`FrameTransport::drain_pushes`] collects them.
pub struct StreamTransport<S> {
    stream: S,
    peer: String,
    counter: WireCounter,
    /// Reused encode buffer: every outgoing frame is serialized into this
    /// vector and written in one syscall, so steady-state sends allocate
    /// nothing.
    wire: Vec<u8>,
    /// [`Frame::Notify`] pushes read off the wire while waiting for a
    /// reply, in arrival order, until [`FrameTransport::drain_pushes`]
    /// collects them.
    pushes: VecDeque<Frame>,
}

impl<S: Read + Write + Send> StreamTransport<S> {
    /// Wraps a connected stream.
    pub fn new(stream: S, peer: impl Into<String>) -> StreamTransport<S> {
        StreamTransport {
            stream,
            peer: peer.into(),
            counter: WireCounter::default(),
            wire: Vec::new(),
            pushes: VecDeque::new(),
        }
    }

    /// A handle onto this transport's wire counters.
    pub fn counter(&self) -> WireCounter {
        self.counter.clone()
    }

    /// The underlying stream (e.g. to inspect a test double).
    pub fn stream(&self) -> &S {
        &self.stream
    }
}

impl<S: Read + Write + Send> FrameTransport for StreamTransport<S> {
    fn send(&mut self, frame: &Frame) -> Result<(), FrameError> {
        let _t = PhaseTimer::start(HotPhase::Wire);
        self.counter.count_send();
        frame.encode_into(&mut self.wire)?;
        self.stream
            .write_all(&self.wire)
            .map_err(|e| FrameError::Io(format!("write to {}: {e}", self.peer)))
    }
    fn recv(&mut self) -> Result<Frame, FrameError> {
        let _t = PhaseTimer::start(HotPhase::Wire);
        #[expect(
            clippy::disallowed_methods,
            reason = "feeds WireCounter bench metering only; never enters a digest"
        )]
        let started = std::time::Instant::now();
        loop {
            match Frame::read_from(&mut self.stream)? {
                // Pushes ride interleaved with replies: divert them to the
                // push buffer and keep reading for the actual answer.
                push @ Frame::Notify { .. } => self.pushes.push_back(push),
                // Server keepalive probe — not an answer to anything.
                Frame::Ping => {}
                frame => {
                    self.counter.count_recv(started.elapsed());
                    return Ok(frame);
                }
            }
        }
    }
    fn peer(&self) -> String {
        self.peer.clone()
    }
    fn drain_pushes(&mut self) -> Vec<Frame> {
        self.pushes.drain(..).collect()
    }
}

struct MuxInner {
    transport: Box<dyn FrameTransport>,
    next_id: u64,
    /// Replies read off the wire while looking for some *other* session's
    /// reply, parked by correlation id until their caller asks.
    parked: BTreeMap<u64, Frame>,
    /// [`Frame::Notify`] pushes parked per session (the `session` field on
    /// the push, not a correlation id), so one shard's subscriber never
    /// steals a sibling's events.
    parked_pushes: BTreeMap<u64, Vec<Frame>>,
}

impl MuxInner {
    /// Pulls pushes buffered by the underlying transport and parks each
    /// under the session named on its `Notify` frame.
    fn park_pushes(&mut self) {
        for push in self.transport.drain_pushes() {
            if let Frame::Notify { session, .. } = &push {
                self.parked_pushes.entry(*session).or_default().push(push);
            }
        }
    }
}

/// Multiplexes several daemon sessions over one connection.
///
/// Each [`SessionMux::session`] handle is an independent
/// [`FrameTransport`]: its `send` wraps the frame in a v2
/// [`Frame::Request`] tagged with the session id and a fresh correlation
/// id, and its `recv` re-associates [`Frame::Reply`] envelopes by id —
/// parking replies destined for sibling sessions so interleaved traffic
/// from several shards shares one socket without cross-talk. Handles
/// share the connection behind a mutex, so sessions may live on
/// different shard worker threads. A send holds the lock for the one
/// frame it writes. A recv holds it from its first read until its own
/// reply arrives: it blocks on the socket with the lock held, and every
/// sibling reply (or push) that arrives first is parked along the way,
/// so a sibling session's recv waits for the lock, not the wire.
pub struct SessionMux {
    inner: Arc<Mutex<MuxInner>>,
}

impl SessionMux {
    /// Wraps a connected transport.
    pub fn new(transport: Box<dyn FrameTransport>) -> SessionMux {
        SessionMux {
            inner: Arc::new(Mutex::new(MuxInner {
                transport,
                next_id: 0,
                parked: BTreeMap::new(),
                parked_pushes: BTreeMap::new(),
            })),
        }
    }

    /// A transport handle speaking for `session` on the shared connection.
    pub fn session(&self, session: u64) -> SessionTransport {
        SessionTransport {
            inner: Arc::clone(&self.inner),
            session,
            outstanding: VecDeque::new(),
        }
    }
}

/// Locks the shared mux state, recovering from poisoning. The critical
/// sections never leave `MuxInner` half-written (each frame a send writes
/// or a recv reads is either fully handled or returned before mutating),
/// so if a sibling handle's thread panicked mid-hold the state is still
/// coherent — and a transport must degrade with an error, never cascade
/// a panic across sessions.
fn lock_mux(inner: &Mutex<MuxInner>) -> std::sync::MutexGuard<'_, MuxInner> {
    inner
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One session's view of a [`SessionMux`]-shared connection.
pub struct SessionTransport {
    inner: Arc<Mutex<MuxInner>>,
    session: u64,
    /// Correlation ids this session has sent and not yet received, oldest
    /// first — `recv` resolves them in send order.
    outstanding: VecDeque<u64>,
}

impl FrameTransport for SessionTransport {
    fn send(&mut self, frame: &Frame) -> Result<(), FrameError> {
        let mut inner = lock_mux(&self.inner);
        let id = inner.next_id;
        inner.next_id = inner.next_id.wrapping_add(1);
        inner.transport.send(&Frame::Request {
            id,
            session: self.session,
            frame: Box::new(frame.clone()),
        })?;
        self.outstanding.push_back(id);
        Ok(())
    }

    fn recv(&mut self) -> Result<Frame, FrameError> {
        let wanted = *self.outstanding.front().ok_or_else(|| {
            FrameError::Io(format!(
                "session {} recv with no request outstanding",
                self.session
            ))
        })?;
        let mut inner = lock_mux(&self.inner);
        loop {
            if let Some(frame) = inner.parked.remove(&wanted) {
                self.outstanding.pop_front();
                return Ok(frame);
            }
            match inner.transport.recv()? {
                Frame::Reply { id, frame } => {
                    if id == wanted {
                        self.outstanding.pop_front();
                        return Ok(*frame);
                    }
                    inner.parked.insert(id, *frame);
                }
                // A transport that does not buffer pushes itself may hand
                // them up raw — park by the push's own session field.
                push @ Frame::Notify { .. } => {
                    if let Frame::Notify { session, .. } = &push {
                        let session = *session;
                        inner.parked_pushes.entry(session).or_default().push(push);
                    }
                }
                Frame::Ping => {}
                other => {
                    return Err(FrameError::Io(format!(
                        "session {} recv: expected a Reply envelope, got {other:?}",
                        self.session
                    )))
                }
            }
        }
    }

    fn peer(&self) -> String {
        let inner = lock_mux(&self.inner);
        format!("{}#session{}", inner.transport.peer(), self.session)
    }

    fn drain_pushes(&mut self) -> Vec<Frame> {
        let mut inner = lock_mux(&self.inner);
        inner.park_pushes();
        inner
            .parked_pushes
            .remove(&self.session)
            .unwrap_or_default()
    }
}

/// Where a remote node daemon listens — the value-typed half of a
/// connection, so shard specifications stay `Clone`/`Debug`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteEndpoint {
    /// A TCP address, e.g. `127.0.0.1:8945`.
    Tcp(String),
    /// A Unix domain socket path.
    #[cfg(unix)]
    Unix(String),
}

impl core::fmt::Display for RemoteEndpoint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RemoteEndpoint::Tcp(addr) => write!(f, "tcp://{addr}"),
            #[cfg(unix)]
            RemoteEndpoint::Unix(path) => write!(f, "unix://{path}"),
        }
    }
}

impl RemoteEndpoint {
    /// Connects, returning a ready frame transport.
    pub fn connect(&self) -> Result<Box<dyn FrameTransport>, FrameError> {
        Ok(self.connect_counted()?.0)
    }

    /// Connects, also handing back the transport's [`WireCounter`] so the
    /// caller (the bench harness, mostly) can watch wire traffic from the
    /// outside.
    pub fn connect_counted(&self) -> Result<(Box<dyn FrameTransport>, WireCounter), FrameError> {
        match self {
            RemoteEndpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr)
                    .map_err(|e| FrameError::Io(format!("connect {self}: {e}")))?;
                stream
                    .set_nodelay(true)
                    .map_err(|e| FrameError::Io(format!("nodelay {self}: {e}")))?;
                let transport = StreamTransport::new(stream, self.to_string());
                let counter = transport.counter();
                Ok((Box::new(transport), counter))
            }
            #[cfg(unix)]
            RemoteEndpoint::Unix(path) => {
                let stream = UnixStream::connect(path)
                    .map_err(|e| FrameError::Io(format!("connect {self}: {e}")))?;
                let transport = StreamTransport::new(stream, self.to_string());
                let counter = transport.counter();
                Ok((Box::new(transport), counter))
            }
        }
    }
}
