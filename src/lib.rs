//! # ofl-w3 — umbrella crate
//!
//! Re-exports the full OFL-W3 stack so that examples and downstream users
//! can depend on a single crate. See the individual crates for details:
//!
//! - [`ofl_primitives`] — hashes, big integers, encodings
//! - [`ofl_eth`] — Ethereum-like blockchain simulator with a gas-metered EVM
//! - [`ofl_ipfs`] — content-addressed storage (CIDs, Merkle-DAG, swarm)
//! - [`ofl_tensor`] — dense tensors and MLP training
//! - [`ofl_data`] — synthetic MNIST and non-IID partitioners
//! - [`ofl_fl`] — one-shot FL algorithms (PFNM, ensemble, averaging) and FedAvg
//! - [`ofl_incentive`] — Leave-one-out / Shapley payment mechanisms
//! - [`ofl_netsim`] — simulated clock, links, and event scheduling
//! - [`ofl_rpc`] — the node-API boundary: provider traits, typed RPC
//!   envelopes with batching, the contract client, provider decorators, and
//!   the frame protocol + socket client for out-of-process backends
//! - [`ofl_rpcd`] — the node daemon serving that protocol over TCP/Unix
//!   sockets (plus the in-memory pipe transport tests mount)
//! - [`ofl_core`] — the OFL-W3 marketplace: buyers, owners, the 7-step workflow
//! - [`ofl_trace`] — deterministic virtual-time tracing and trace-diff

#![forbid(unsafe_code)]

pub use ofl_core as core;
pub use ofl_data as data;
pub use ofl_eth as eth;
pub use ofl_fl as fl;
pub use ofl_incentive as incentive;
pub use ofl_ipfs as ipfs;
pub use ofl_netsim as netsim;
pub use ofl_primitives as primitives;
pub use ofl_rpc as rpc;
pub use ofl_rpcd as rpcd;
pub use ofl_tensor as tensor;
pub use ofl_trace as trace;
