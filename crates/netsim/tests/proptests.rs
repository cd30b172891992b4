//! Property-based tests for the virtual-time substrate: the clock only
//! moves forward, link timing is ordered the way physics says it must be,
//! and phase accounting balances.

use ofl_netsim::clock::{SimClock, SimDuration, SimInstant};
use ofl_netsim::link::{Link, NetworkProfile};
use ofl_netsim::sched::EventQueue;
use ofl_netsim::timing::{ComputeModel, PhaseRecorder};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn clock_is_monotone_under_any_advance_sequence(
        steps in proptest::collection::vec(0u64..10_000_000, 1..40),
    ) {
        let clock = SimClock::new();
        let mut last = clock.now();
        let mut total = 0u64;
        for &us in &steps {
            clock.advance(SimDuration::from_micros(us));
            total += us;
            let now = clock.now();
            prop_assert!(now >= last, "clock went backwards");
            last = now;
        }
        prop_assert_eq!(last, SimInstant(total));
        prop_assert!((clock.elapsed_secs() - total as f64 / 1e6).abs() < 1e-9);
    }

    #[test]
    fn advance_to_is_a_lower_bound_only(
        forward in 0u64..1_000_000,
        target in 0u64..2_000_000,
    ) {
        let clock = SimClock::new();
        clock.advance(SimDuration::from_micros(forward));
        clock.advance_to(SimInstant(target));
        prop_assert_eq!(clock.now(), SimInstant(forward.max(target)));
    }

    #[test]
    fn clock_clones_observe_the_same_time(
        a_steps in proptest::collection::vec(0u64..100_000, 0..10),
        b_steps in proptest::collection::vec(0u64..100_000, 0..10),
    ) {
        let a = SimClock::new();
        let b = a.clone();
        for &us in &a_steps {
            a.advance(SimDuration::from_micros(us));
        }
        for &us in &b_steps {
            b.advance(SimDuration::from_micros(us));
        }
        prop_assert_eq!(a.now(), b.now());
    }

    #[test]
    fn duration_seconds_roundtrip(us in 0u64..u64::MAX / 2) {
        let d = SimDuration::from_micros(us);
        let rebuilt = SimDuration::from_secs_f64(d.as_secs_f64());
        // from_secs_f64 goes through f64; tolerate its quantization.
        let err = rebuilt.as_micros().abs_diff(us);
        prop_assert!(err as f64 <= 1.0 + us as f64 * 1e-9, "err {err} at {us}");
    }

    #[test]
    fn transfer_time_monotone_in_bytes_and_latency(
        latency_us in 0u64..1_000_000,
        extra_latency_us in 1u64..1_000_000,
        bandwidth in 1_000.0f64..1e10,
        bytes in 0u64..100_000_000,
        extra_bytes in 1u64..100_000_000,
    ) {
        let link = Link::new(SimDuration::from_micros(latency_us), bandwidth);
        let slower = Link::new(
            SimDuration::from_micros(latency_us + extra_latency_us),
            bandwidth,
        );
        // More bytes on the same link never arrive sooner.
        prop_assert!(link.transfer_time(bytes + extra_bytes) >= link.transfer_time(bytes));
        // Same payload over higher latency never arrives sooner.
        prop_assert!(slower.transfer_time(bytes) >= link.transfer_time(bytes));
        // Latency is a hard floor.
        prop_assert!(link.transfer_time(bytes) >= SimDuration::from_micros(latency_us));
    }

    #[test]
    fn exchange_time_monotone_in_rounds(
        latency_us in 1u64..100_000,
        bandwidth in 1_000.0f64..1e9,
        bytes in 0u64..1_000_000,
        rounds in 1usize..20,
    ) {
        let link = Link::new(SimDuration::from_micros(latency_us), bandwidth);
        let t1 = link.exchange_time(bytes, rounds);
        let t2 = link.exchange_time(bytes, rounds + 1);
        // One more round trip costs exactly one more RTT.
        prop_assert_eq!(
            t2 - t1,
            SimDuration::from_micros(2 * latency_us)
        );
        prop_assert!(t1 >= link.transfer_time(bytes) || latency_us == 0);
    }

    #[test]
    fn campus_beats_wan_for_any_payload(bytes in 0u64..10_000_000) {
        let campus = NetworkProfile::campus();
        let wan = NetworkProfile::wan();
        prop_assert!(campus.lan.transfer_time(bytes) <= wan.lan.transfer_time(bytes));
    }

    #[test]
    fn phase_recorder_breakdown_is_a_distribution(
        durations in proptest::collection::vec((0usize..4, 1u64..1_000_000), 1..30),
    ) {
        let phases = ["train", "upload", "send", "wait"];
        let mut recorder = PhaseRecorder::new();
        let mut total = 0u64;
        for &(which, us) in &durations {
            recorder.add(phases[which], SimDuration::from_micros(us));
            total += us;
        }
        prop_assert_eq!(recorder.total(), SimDuration::from_micros(total));
        let rows = recorder.breakdown();
        let share_sum: f64 = rows.iter().map(|(_, _, share)| share).sum();
        prop_assert!((share_sum - 1.0).abs() < 1e-9);
        // Per-phase sums match a straight fold.
        for (index, name) in phases.iter().enumerate() {
            let expect: u64 = durations
                .iter()
                .filter(|&&(w, _)| w == index)
                .map(|&(_, us)| us)
                .sum();
            prop_assert_eq!(recorder.get(name), SimDuration::from_micros(expect));
        }
    }

    #[test]
    fn event_queue_matches_a_model_stable_sort(
        delays in proptest::collection::vec(0u64..16, 1..400),
    ) {
        // Model: a stable sort by firing instant. The tight delay range
        // forces dense same-instant collisions so the tie-break (schedule
        // order) is what's actually under test. Instants are cumulative
        // maxima so nothing schedules into the popped past.
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, usize)> = Vec::new();
        let mut at = 0u64;
        for (i, &d) in delays.iter().enumerate() {
            at += d;
            q.schedule(SimInstant(at), i);
            model.push((at, i));
        }
        model.sort_by_key(|&(at, _)| at); // stable: preserves schedule order
        for &(expect_at, expect_event) in &model {
            let (got_at, got_event) = q.pop().expect("queue drained early");
            prop_assert_eq!(got_at, SimInstant(expect_at));
            prop_assert_eq!(got_event, expect_event);
        }
        prop_assert!(q.is_empty());
    }

    #[test]
    fn compute_time_scales_with_work(
        examples in 1usize..1_000_000,
        extra in 1usize..1_000_000,
        epochs in 1usize..50,
    ) {
        for model in [ComputeModel::rtx_a5000(), ComputeModel::laptop_cpu()] {
            let base = model.training_time(examples, epochs);
            prop_assert!(model.training_time(examples + extra, epochs) >= base);
            prop_assert!(model.training_time(examples, epochs + 1) >= base);
            prop_assert!(model.inference_time(examples) <= base);
        }
    }
}
