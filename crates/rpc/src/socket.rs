//! [`SocketProvider`]: the out-of-process backend client.
//!
//! Implements the same [`EthApi`]/[`IpfsApi`]/[`NodeProvider`] surface as
//! the in-process [`SimProvider`](crate::sim::SimProvider), but every call
//! becomes one [`Frame`] round trip to an `rpcd` daemon: `batch` ships the
//! whole slice as **one** [`Frame::Batch`] and `execute` ships a batch of
//! one (so batching semantics — and batch pricing by the decorators above —
//! survive the process boundary unchanged), IPFS calls
//! ship their bytes, and the simulator's backstage ops travel as
//! [`Frame::Backstage`].
//!
//! Because the daemon's bare backend prices nothing (costs come back zero,
//! exactly like a local `SimProvider`), the ordinary client-side decorator
//! stack — `Metered(Latency(Flaky(…)))` — wraps a `SocketProvider`
//! unchanged and prices, faults, and meters remote traffic *identically*
//! to in-process traffic. That is what makes a remote-backed world
//! bit-reproducible against an in-process one.
//!
//! The one thing a socket cannot carry is a Rust reference: the
//! [`NodeProvider::chain`]/[`NodeProvider::swarm`] reference accessors
//! panic here. Simulation drivers reach remote backends exclusively
//! through [`NodeProvider::backstage`] ops.

use crate::backstage::{BackstageOp, BackstageReply};
use crate::envelope::{RpcError, RpcRequest, RpcResponse};
use crate::eth::EthApi;
use crate::frame::{Frame, FrameError};
use crate::ipfs::IpfsApi;
use crate::provider::{decorate, EndpointFaults, NodeProvider};
use crate::sub::{Notification, SubscriptionKind};
use crate::transport::FrameTransport;
use crate::Billed;
use ofl_eth::chain::{Chain, ChainConfig};
use ofl_ipfs::cid::Cid;
use ofl_ipfs::swarm::{AddResult, FetchStats, IpfsError, Swarm};
use ofl_netsim::clock::SimDuration;
use ofl_netsim::link::NetworkProfile;
use ofl_primitives::u256::U256;
use ofl_primitives::H160;
use std::slice;

/// How a [`SocketProvider`] ships a batch of requests over the wire. It has
/// one discipline, so this enum exists only because the benchmark harness
/// names it when it mounts a socket shard through
/// [`SocketProvider::with_mode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireMode {
    /// One [`Frame::Batch`] carrying the whole slice: a single round trip.
    Jumbo,
}

/// A node backend served over a socket (or any frame transport).
pub struct SocketProvider {
    transport: Box<dyn FrameTransport>,
}

impl SocketProvider {
    /// Wraps a connected transport.
    pub fn new(transport: Box<dyn FrameTransport>) -> SocketProvider {
        SocketProvider { transport }
    }

    /// Same as [`SocketProvider::new`]; [`WireMode`] has one variant. Kept
    /// because the benchmark harness calls it.
    pub fn with_mode(transport: Box<dyn FrameTransport>, _mode: WireMode) -> SocketProvider {
        SocketProvider::new(transport)
    }

    /// Asks the daemon to build this connection's backend: a fresh
    /// simulated node with the given chain parameters and genesis.
    pub fn provision(
        &mut self,
        chain: ChainConfig,
        genesis: Vec<(H160, U256)>,
    ) -> Result<(), FrameError> {
        match self.roundtrip(&Frame::Provision { chain, genesis })? {
            Frame::Provisioned => Ok(()),
            Frame::Error(e) => Err(FrameError::Protocol(e)),
            other => Err(FrameError::Io(format!(
                "unexpected provision reply from {}: {other:?}",
                self.transport.peer()
            ))),
        }
    }

    /// Attaches to an already-provisioned session on a persistent daemon
    /// (provisioned by an earlier connection), returning the backend's
    /// current chain height as proof of life.
    pub fn attach(&mut self, session: u64) -> Result<u64, FrameError> {
        match self.roundtrip(&Frame::Attach { session })? {
            Frame::Attached { height } => Ok(height),
            Frame::Error(e) => Err(FrameError::Protocol(e)),
            other => Err(FrameError::Io(format!(
                "unexpected attach reply from {}: {other:?}",
                self.transport.peer()
            ))),
        }
    }

    /// Tells the daemon to close this connection gracefully. Errors are
    /// ignored — the peer may already be gone.
    pub fn shutdown(&mut self) {
        if let Ok(Frame::Goodbye) = self.roundtrip(&Frame::Shutdown) {}
    }

    fn roundtrip(&mut self, frame: &Frame) -> Result<Frame, FrameError> {
        self.transport.send(frame)?;
        self.transport.recv()
    }

    /// A wire/protocol failure rendered as the typed client error.
    fn transport_error(&self, what: &str, error: &FrameError) -> RpcError {
        RpcError::Transport(format!("{what} via {}: {error}", self.transport.peer()))
    }

    /// Backstage and IPFS calls have no in-band error channel (the
    /// simulator cannot meaningfully continue without its substrate), so a
    /// broken wire is fatal there.
    fn must(&mut self, what: &str, frame: &Frame) -> Frame {
        match self.roundtrip(frame) {
            Ok(Frame::Error(e)) => panic!(
                "socket provider: daemon at {} refused {what}: {e}",
                self.transport.peer()
            ),
            Ok(reply) => reply,
            Err(e) => panic!(
                "socket provider: {what} via {} failed: {e}",
                self.transport.peer()
            ),
        }
    }
}

impl EthApi for SocketProvider {
    fn execute(&mut self, request: &RpcRequest) -> RpcResponse {
        let mut responses = self.batch(slice::from_ref(request));
        responses
            .pop()
            .expect("a batch of one answers one response")
    }

    fn batch(&mut self, requests: &[RpcRequest]) -> Vec<RpcResponse> {
        let fail = |error: RpcError| -> Vec<RpcResponse> {
            requests
                .iter()
                .map(|r| RpcResponse {
                    id: r.id,
                    result: Err(error.clone()),
                    cost: SimDuration::ZERO,
                })
                .collect()
        };
        match self.roundtrip(&Frame::Batch(requests.to_vec())) {
            Ok(Frame::BatchResponse(responses)) if responses.len() == requests.len() => responses,
            Ok(Frame::BatchResponse(responses)) => fail(RpcError::Transport(format!(
                "batch answered {} of {} requests",
                responses.len(),
                requests.len()
            ))),
            Ok(Frame::Error(e)) => fail(self.transport_error("batch", &FrameError::Protocol(e))),
            Ok(other) => fail(RpcError::Transport(format!(
                "unexpected batch reply: {other:?}"
            ))),
            Err(e) => fail(self.transport_error("batch", &e)),
        }
    }
}

impl IpfsApi for SocketProvider {
    fn add(&mut self, node: usize, data: &[u8]) -> Billed<AddResult> {
        match self.must(
            "ipfs add",
            &Frame::IpfsAdd {
                node: node as u64,
                data: data.to_vec(),
            },
        ) {
            Frame::IpfsAdded { cost, result } => Billed {
                value: result,
                cost,
            },
            other => panic!("socket provider: unexpected ipfs add reply: {other:?}"),
        }
    }

    fn cat(&mut self, node: usize, cid: &Cid) -> Billed<Result<(Vec<u8>, FetchStats), IpfsError>> {
        match self.must(
            "ipfs cat",
            &Frame::IpfsCat {
                node: node as u64,
                cid: cid.clone(),
            },
        ) {
            Frame::IpfsCatted { cost, result } => Billed {
                value: result,
                cost,
            },
            other => panic!("socket provider: unexpected ipfs cat reply: {other:?}"),
        }
    }

    fn pin(&mut self, node: usize, cid: &Cid) -> Billed<Result<(), IpfsError>> {
        match self.must(
            "ipfs pin",
            &Frame::IpfsPin {
                node: node as u64,
                cid: cid.clone(),
            },
        ) {
            Frame::IpfsPinned { cost, result } => Billed {
                value: result,
                cost,
            },
            other => panic!("socket provider: unexpected ipfs pin reply: {other:?}"),
        }
    }
}

impl NodeProvider for SocketProvider {
    fn chain(&self) -> &Chain {
        panic!(
            "socket provider ({}): reference access to a remote chain is impossible; \
             use NodeProvider::backstage ops",
            self.transport.peer()
        )
    }
    fn chain_mut(&mut self) -> &mut Chain {
        panic!(
            "socket provider ({}): reference access to a remote chain is impossible; \
             use NodeProvider::backstage ops",
            self.transport.peer()
        )
    }
    fn swarm(&self) -> &Swarm {
        panic!(
            "socket provider ({}): reference access to a remote swarm is impossible; \
             use NodeProvider::backstage ops",
            self.transport.peer()
        )
    }
    fn swarm_mut(&mut self) -> &mut Swarm {
        panic!(
            "socket provider ({}): reference access to a remote swarm is impossible; \
             use NodeProvider::backstage ops",
            self.transport.peer()
        )
    }
    fn on_slot(&mut self) {
        self.backstage(&BackstageOp::SlotElapsed);
    }
    fn backstage(&mut self, op: &BackstageOp) -> BackstageReply {
        match self.must("backstage op", &Frame::Backstage(op.clone())) {
            Frame::BackstageReply(reply) => reply,
            other => panic!("socket provider: unexpected backstage reply: {other:?}"),
        }
    }
    fn subscribe(&mut self, kind: SubscriptionKind) -> u64 {
        match self.must("subscribe", &Frame::Subscribe { kind }) {
            Frame::Subscribed { sub_id } => sub_id,
            other => panic!("socket provider: unexpected subscribe reply: {other:?}"),
        }
    }
    fn unsubscribe(&mut self, sub_id: u64) -> bool {
        match self.must("unsubscribe", &Frame::Unsubscribe { sub_id }) {
            Frame::Unsubscribed { sub_id: echoed } => echoed == sub_id,
            other => panic!("socket provider: unexpected unsubscribe reply: {other:?}"),
        }
    }
    fn drain_notifications(&mut self) -> Vec<Notification> {
        // The daemon writes pushes ahead of the replies that caused them,
        // so everything published up to the last round trip is already in
        // the transport's push buffer — no extra wire exchange needed.
        self.transport
            .drain_pushes()
            .into_iter()
            .filter_map(|frame| match frame {
                Frame::Notify {
                    sub_id, seq, event, ..
                } => Some(Notification { sub_id, seq, event }),
                _ => None,
            })
            .collect()
    }
}

/// Provisions a daemon connection with a chain + genesis and wraps it in
/// the standard client-side decorator stack — the remote twin of
/// [`build_provider`](crate::provider::build_provider), so a remote
/// endpoint faults, throttles, prices, and meters exactly like an
/// in-process one. Every mount path (a world's `ShardSpec::Remote`, a
/// test's pipe-backed shard, a bench's boundary run) goes through here.
pub fn provision_socket_provider(
    transport: Box<dyn FrameTransport>,
    chain: ChainConfig,
    genesis: Vec<(H160, U256)>,
    profile: NetworkProfile,
    envelope_bytes: u64,
    knobs: EndpointFaults,
) -> Result<Box<dyn NodeProvider>, FrameError> {
    let mut socket = SocketProvider::new(transport);
    socket.provision(chain, genesis)?;
    Ok(decorate(Box::new(socket), profile, envelope_bytes, knobs))
}
