//! Wall-clock hot-path phase accounting.
//!
//! The fleet benches want to know *where* real time goes — signing, codec,
//! event-queue bookkeeping, aggregation, or the wire — so regressions are
//! attributable to a phase instead of a whole run. This module keeps one
//! process-wide nanosecond counter per [`HotPhase`]; call sites guard a
//! region with a [`PhaseTimer`] and the drop adds the elapsed wall time to
//! that phase's counter.
//!
//! Timing is **off by default** ([`set_phase_timing`]) so the instrumented
//! hot paths pay only a relaxed atomic load when nobody is measuring.
//! Phases may nest or overlap — e.g. the wire phase of a socket round trip
//! includes the codec phase of encoding its frames — so the counters are a
//! breakdown of *attributed* time, not a partition of wall time.
//!
//! Unlike `ofl_netsim::timing::PhaseRecorder` (which accounts *virtual*
//! time inside a simulated session), these counters measure real host
//! nanoseconds and exist purely for benchmarking; they never influence
//! simulation results.

use serde::Serialize;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// The instrumented hot-path phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HotPhase {
    /// Transaction signing (secp256k1 scalar multiplication + RFC-6979).
    Sign,
    /// Envelope/frame encode + decode.
    Codec,
    /// Discrete-event queue schedule/pop bookkeeping.
    Queue,
    /// Model aggregation and payment finalisation.
    Aggregate,
    /// Socket send/receive, including time blocked on the peer.
    Wire,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Accumulated nanoseconds, indexed by `HotPhase as usize`.
static PHASE_NS: [AtomicU64; 5] = [const { AtomicU64::new(0) }; 5];

/// Turns wall-clock phase accounting on or off process-wide (default: off).
pub fn set_phase_timing(enabled: bool) {
    ENABLED.store(enabled, Ordering::SeqCst);
}

/// True when [`PhaseTimer`]s are currently recording.
fn phase_timing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Adds `ns` nanoseconds to a phase's counter (recorded even while timing
/// is disabled).
fn record_phase_ns(phase: HotPhase, ns: u64) {
    PHASE_NS[phase as usize].fetch_add(ns, Ordering::Relaxed);
}

/// Zeroes every phase counter, e.g. between bench legs.
pub fn reset_phase_times() {
    for counter in &PHASE_NS {
        counter.store(0, Ordering::Relaxed);
    }
}

/// A snapshot of the accumulated wall-clock nanoseconds per phase — the
/// `phase_times` object written into `BENCH_fleet.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PhaseTimes {
    /// Nanoseconds spent signing transactions.
    pub sign_ns: u64,
    /// Nanoseconds spent encoding/decoding envelopes and frames.
    pub codec_ns: u64,
    /// Nanoseconds spent in event-queue schedule/pop bookkeeping.
    pub queue_ns: u64,
    /// Nanoseconds spent aggregating models and finalising payments.
    pub aggregate_ns: u64,
    /// Nanoseconds spent on socket send/receive (includes peer wait).
    pub wire_ns: u64,
}

/// Reads the current per-phase totals.
pub fn phase_snapshot() -> PhaseTimes {
    let ns = |phase: HotPhase| PHASE_NS[phase as usize].load(Ordering::Relaxed);
    PhaseTimes {
        sign_ns: ns(HotPhase::Sign),
        codec_ns: ns(HotPhase::Codec),
        queue_ns: ns(HotPhase::Queue),
        aggregate_ns: ns(HotPhase::Aggregate),
        wire_ns: ns(HotPhase::Wire),
    }
}

/// RAII guard that attributes the wall time between construction and drop
/// to one [`HotPhase`]. Construction is a no-op (no clock read) while
/// timing is disabled.
pub struct PhaseTimer {
    phase: HotPhase,
    started: Option<Instant>,
}

impl PhaseTimer {
    /// Starts timing `phase` if accounting is enabled.
    pub fn start(phase: HotPhase) -> Self {
        #[expect(
            clippy::disallowed_methods,
            reason = "runtime-gated bench timer; its counters never enter a digest"
        )]
        let started = phase_timing_enabled().then(Instant::now);
        PhaseTimer { phase, started }
    }
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        if let Some(started) = self.started {
            let ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            record_phase_ns(self.phase, ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The counters and the enable flag are process-wide, so the tests in
    // this module exercise disjoint phases and never reset globally.

    #[test]
    fn disabled_timer_records_nothing() {
        set_phase_timing(false);
        let before = phase_snapshot().queue_ns;
        {
            let _t = PhaseTimer::start(HotPhase::Queue);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(phase_snapshot().queue_ns, before);
    }

    #[test]
    fn direct_recording_accumulates() {
        let before = phase_snapshot().aggregate_ns;
        record_phase_ns(HotPhase::Aggregate, 17);
        record_phase_ns(HotPhase::Aggregate, 25);
        assert_eq!(phase_snapshot().aggregate_ns, before + 42);
    }

    #[test]
    fn enabled_timer_attributes_elapsed_time() {
        let before = phase_snapshot().wire_ns;
        set_phase_timing(true);
        {
            let _t = PhaseTimer::start(HotPhase::Wire);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        set_phase_timing(false);
        assert!(phase_snapshot().wire_ns >= before + 1_000_000);
    }
}
