//! # ofl-perfbench
//!
//! The OFL-W3 benchmark. Three seeded workloads stress different layers of
//! the system — `fleet` and `fleet-tcp` the chain, signing and IPFS path
//! (in process, then behind `rpcd`), `pfnm-loo` the FL training and
//! aggregation path — so a gain on one path cannot hide a loss on another.
//!
//! - [`spec`]: the workloads, metrics, bounds, and which layer metric
//!   should move which end-to-end metric; validates `BENCHMARK.json`.
//! - [`bench`](mod@bench): the unit loop every workload shares and the metrics it
//!   reports.
//! - [`markets`]: the workload drivers.
//! - [`timed`]: spans at the provider boundary; `daemon`: an in-process
//!   `rpcd` on loopback TCP.
//! - [`stats`], `clock`, [`json`]: order statistics, the one wall-clock
//!   read, and a JSON reader.
//! - [`suite`]: the whole suite in child processes, and `--compare`.
//!
//! The program under test only ever sees the configurations the drivers
//! generate from the seed; all timing wraps its public entry points from
//! here.

#![forbid(unsafe_code)]

pub mod bench;
mod clock;
mod daemon;
pub mod json;
pub mod markets;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod timed;

use bench::Workload;
use markets::{Markets, Transport};

/// Owners in a `fleet` or `fleet-tcp` unit: 156 markets of 32, half the
/// ROADMAP's 9,984, so a run still holds three units.
const FLEET_OWNERS: usize = 4_992;
/// Shards a fleet unit's markets are spread over.
const FLEET_SHARDS: usize = 4;

/// The workload named `name` at `seed`; `None` for an unknown name.
pub fn workload(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    let fleet = |transport| {
        Box::new(Markets::fleet(seed, FLEET_OWNERS, FLEET_SHARDS, transport)) as Box<dyn Workload>
    };
    Some(match name {
        "fleet" => fleet(Transport::InProcess),
        "fleet-tcp" => fleet(Transport::Tcp),
        "pfnm-loo" => Box::new(Markets::pfnm_loo(seed)),
        _ => return None,
    })
}

/// This process's peak resident set (`VmHWM`), in MiB; `None` where
/// `/proc/self/status` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
