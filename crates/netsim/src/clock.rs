//! A virtual clock with microsecond resolution.
//!
//! All timing in the OFL-W3 simulator — block intervals, network transfers,
//! GPU-training estimates — advances this clock rather than real time, so a
//! full Fig 7 experiment (minutes of simulated wall clock) runs in
//! milliseconds and is perfectly reproducible.

use std::cell::Cell;
use std::rc::Rc;

/// A duration in virtual microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct SimDuration(pub u64);

impl SimDuration {
    /// Zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From whole seconds.
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000)
    }

    /// From milliseconds.
    pub fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000)
    }

    /// From microseconds.
    pub fn from_micros(us: u64) -> SimDuration {
        SimDuration(us)
    }

    /// From fractional seconds (clamped at zero).
    pub fn from_secs_f64(s: f64) -> SimDuration {
        SimDuration((s.max(0.0) * 1e6).round() as u64)
    }

    /// As fractional seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// As whole microseconds.
    pub fn as_micros(&self) -> u64 {
        self.0
    }

    /// Saturating addition.
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }
}

impl core::ops::Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl core::ops::AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl core::ops::Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("duration underflow"))
    }
}

/// An instant on the virtual timeline (microseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct SimInstant(pub u64);

impl SimInstant {
    /// Duration since an earlier instant.
    pub fn since(&self, earlier: SimInstant) -> SimDuration {
        SimDuration(self.0.checked_sub(earlier.0).expect("instant ordering"))
    }
}

/// A shared virtual clock. Cheap to clone; all clones observe the same time.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: Rc<Cell<u64>>,
}

impl SimClock {
    /// A clock at t = 0.
    pub fn new() -> SimClock {
        SimClock::default()
    }

    /// Current instant.
    pub fn now(&self) -> SimInstant {
        SimInstant(self.now.get())
    }

    /// Advances time by `d`.
    pub fn advance(&self, d: SimDuration) {
        self.now.set(
            self.now
                .get()
                .checked_add(d.0)
                .expect("virtual clock overflow"),
        );
        ofl_trace::set_vtime(self.now.get());
    }

    /// Advances to an absolute instant (no-op if already past it).
    pub fn advance_to(&self, t: SimInstant) {
        if t.0 > self.now.get() {
            self.now.set(t.0);
        }
        ofl_trace::set_vtime(self.now.get());
    }

    /// Seconds since simulation start.
    pub fn elapsed_secs(&self) -> f64 {
        self.now.get() as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_monotonically() {
        let clock = SimClock::new();
        assert_eq!(clock.now(), SimInstant(0));
        clock.advance(SimDuration::from_secs(12));
        assert_eq!(clock.now(), SimInstant(12_000_000));
        clock.advance(SimDuration::from_millis(500));
        assert_eq!(clock.elapsed_secs(), 12.5);
    }

    #[test]
    fn clones_share_time() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(SimDuration::from_secs(1));
        assert_eq!(b.now(), SimInstant(1_000_000));
    }

    #[test]
    fn advance_to_never_goes_backward() {
        let clock = SimClock::new();
        clock.advance(SimDuration::from_secs(10));
        clock.advance_to(SimInstant(5_000_000));
        assert_eq!(clock.now(), SimInstant(10_000_000));
        clock.advance_to(SimInstant(15_000_000));
        assert_eq!(clock.now(), SimInstant(15_000_000));
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_secs(2);
        let b = SimDuration::from_millis(500);
        assert_eq!((a + b).as_secs_f64(), 2.5);
        assert_eq!((a - b).as_secs_f64(), 1.5);
        assert_eq!(SimDuration::from_secs_f64(0.25).as_micros(), 250_000);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn instant_since() {
        let t0 = SimInstant(100);
        let t1 = SimInstant(350);
        assert_eq!(t1.since(t0), SimDuration(250));
    }
}
