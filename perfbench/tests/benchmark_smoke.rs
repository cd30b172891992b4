//! Every workload driver at a tiny size, through the same output checks
//! and report assembly the benchmark runs.

use ofl_core::config::MarketConfig;
use ofl_perfbench::bench::{measure, report, Workload};
use ofl_perfbench::markets::{Markets, Transport};
use ofl_perfbench::spec::{END_TO_END, PER_LAYER};
use ofl_perfbench::{json, peak_rss_mb};
use std::sync::Mutex;

/// Hot-path phase timing is process-wide, so traced units of concurrent
/// tests would read each other's phases: the tests take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Runs the minimum units untraced and traced, and checks both reports.
fn smoke(name: &str, workload: &mut dyn Workload) {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let run = measure(workload, 0.0, false);
    let e2e = report(&run, false, peak_rss_mb().unwrap_or(1.0));
    assert!(e2e.correct, "{name}: {:?}", e2e.problems);
    assert_eq!(e2e.failed, 0, "{name}");
    assert_eq!(e2e.metrics.len(), END_TO_END.len());
    for (metric, value, _) in &e2e.metrics {
        assert!(*value > 0.0, "{name}: end-to-end {metric} is {value}");
    }
    let line = json::parse(&e2e.json_line()).expect("the result line is JSON");
    assert_eq!(line.field("correct"), Some(&serde::Value::Bool(true)));

    let run = measure(workload, 0.0, true);
    let layers = report(&run, true, 0.0);
    assert!(layers.correct, "{name}: {:?}", layers.problems);
    assert_eq!(layers.metrics.len(), PER_LAYER.len());
    let value = |metric: &str| {
        layers
            .metrics
            .iter()
            .find(|m| m.0 == metric)
            .map(|m| m.1)
            .unwrap()
    };
    assert!(value("provider.send_raw.calls") > 0.0, "{name}");
    // Layers plus self time account for the whole run: self time is what
    // is left, so it can only go negative if spans were double counted.
    assert!(value("core.engine.self_share") > -0.05, "{name}");
}

#[test]
fn fleet_on_two_in_process_shards() {
    smoke(
        "fleet",
        &mut Markets::fleet(42, 64, 2, Transport::InProcess),
    );
}

#[test]
fn fleet_over_one_multiplexed_tcp_connection() {
    // The warm-up runs in process, and every unit must repeat its digest.
    let mut fleet = Markets::fleet(42, 64, 2, Transport::Tcp);
    smoke("fleet-tcp", &mut fleet);
}

#[test]
fn pfnm_loo_market_at_test_size() {
    smoke(
        "pfnm-loo",
        &mut Markets::with_config(MarketConfig::small_test()),
    );
}
