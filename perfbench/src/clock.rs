//! The benchmark's one timing primitive: wall-clock nanoseconds since a
//! process-wide epoch. Every wall-clock read of the benchmark goes through
//! [`now_ns`], so spans taken on different threads share one time axis and
//! the determinism lint's wall-clock escape sits on a single line.

use std::sync::OnceLock;
use std::time::Instant;

fn instant() -> Instant {
    // lint: wall-clock-ok(benchmark timing only; never enters a digest)
    Instant::now()
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(instant);
    u64::try_from(instant().duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds as seconds.
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Runs `f` and returns its result with the wall time it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = now_ns();
    let value = f();
    (value, now_ns().saturating_sub(start))
}
