//! # ofl-netsim
//!
//! Virtual-time infrastructure for the OFL-W3 reproduction:
//!
//! - [`clock`]: a shared microsecond-resolution simulation clock.
//! - [`link`]: latency/bandwidth models with the paper's campus-LAN profile;
//!   a request/response round trip over one prices the paper's backend
//!   server (its Flask app).
//! - [`par`]: a deterministic fork/join executor for per-shard work —
//!   results merge in item order, so parallel runs are bit-identical to
//!   serial ones.
//! - [`sched`]: a discrete-event queue and per-participant timelines — the
//!   substrate of the concurrent session engine.
//! - [`timing`]: phase recorders (the Fig 7 breakdown) and compute models
//!   (the 2×RTX A5000 server as a throughput estimate).
//!
//! Everything runs on virtual time, so minutes of simulated blockchain
//! waiting cost microseconds of real time and results are deterministic.

#![forbid(unsafe_code)]

pub mod clock;
pub mod link;
pub mod par;
pub mod sched;
pub mod timing;

pub use clock::{SimClock, SimDuration, SimInstant};
pub use link::{Link, NetworkProfile};
pub use par::{fork_join_mut, parallel_enabled, set_parallel};
pub use sched::{EventQueue, Timeline};
pub use timing::{ComputeModel, PhaseRecorder};
