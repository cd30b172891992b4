//! Mempool watching over push subscriptions: a funded non-participant
//! opens a `pendingTxs` subscription, sees every `uploadCid` broadcast
//! while it is still in the mempool, and front-runs each one with a junk
//! registration bid at tip + 1 wei — landing *ahead* of the victim in the
//! same block. The junk CIDs are unparseable, so the buyer never retrieves
//! them and the adversary is never paid: visibility is not value.
//!
//! The watched shard is served by the `rpcd` daemon over a real TCP
//! socket, so the pending-tx events cross the wire as `Notify` push
//! frames; an in-process rerun of the same seed then reproduces the
//! identical event stream and outcomes, bit for bit.
//!
//! Run: `cargo run --example mempool_watch`

use ofl_w3::core::config::MarketConfig;
use ofl_w3::core::engine::{EngineConfig, MultiMarket};
use ofl_w3::core::scenario::FailurePlan;
use ofl_w3::core::world::ShardSpec;
use ofl_w3::rpc::RemoteEndpoint;

fn main() {
    // A small two-market fleet. `fund_adversary` gives each market one
    // extra funded account that never trains or sells — the mempool
    // watcher. Only market 1's failure plan actually turns it loose.
    let base = MarketConfig {
        n_owners: 3,
        n_train: 300,
        n_test: 100,
        seed: 11,
        fund_adversary: true,
        train: ofl_w3::fl::client::TrainConfig {
            dims: vec![784, 16, 10],
            epochs: 1,
            ..ofl_w3::fl::client::TrainConfig::default()
        },
        ..MarketConfig::small_test()
    };
    let configs = || MultiMarket::replica_configs(&base, 2, 2);
    let engine = EngineConfig {
        watch_events: true,
        ..EngineConfig::default()
    };
    let failures = vec![
        FailurePlan::clean(),
        FailurePlan {
            mempool_front_run: true,
            ..FailurePlan::default()
        },
    ];

    // The node daemon serving market 1's shard: one TCP listener, one
    // connection — every broadcast, receipt poll, and pending-tx push for
    // that shard crosses this socket.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap().to_string();
    println!("rpcd listening on tcp://{addr} (daemon thread serving the watched shard)");
    let server = std::thread::spawn(move || {
        ofl_w3::rpcd::serve_listener_with(listener, ofl_w3::rpcd::DaemonOptions::max(1))
    });

    let mut shard = 0usize;
    let endpoint = RemoteEndpoint::Tcp(addr);
    let fleet = MultiMarket::with_shards_via(configs(), 2, |config| {
        shard += 1;
        if shard == 2 {
            ShardSpec::Remote {
                endpoint: endpoint.clone(),
                config,
            }
        } else {
            ShardSpec::Local(config)
        }
    });
    let (mm, remote) = fleet
        .run(&engine, &failures)
        .expect("watched fleet completes");

    println!(
        "\n{} push events observed across both shards (digest {:#018x})",
        remote.events_observed, remote.event_digest
    );
    for (m, detail) in remote.details.iter().enumerate() {
        let junk = detail
            .cids_onchain
            .iter()
            .filter(|c| c.starts_with("junk-"))
            .count();
        println!(
            "market {m}: {} front-runs, {} CIDs on-chain ({} junk), {} retrieved, {} paid",
            detail.front_run_count,
            detail.cids_onchain.len(),
            junk,
            detail.cids_retrieved.len(),
            remote.sessions[m].payments.len(),
        );
    }

    // The clean market saw no front-running; the watched market's every
    // honest registration was beaten to its block by a junk bid — which
    // the buyer then skipped at retrieval, so only honest owners got paid.
    assert_eq!(remote.details[0].front_run_count, 0);
    assert_eq!(remote.details[1].front_run_count, base.n_owners);
    assert_eq!(remote.details[1].cids_onchain.len(), 2 * base.n_owners);
    assert!(remote.details[1].cids_onchain[0].starts_with("junk-"));
    assert!(remote.details[1]
        .cids_retrieved
        .iter()
        .all(|c| !c.starts_with("junk-")));
    assert_eq!(remote.sessions[1].payments.len(), base.n_owners);
    println!(
        "\nevery honest uploadCid was front-run, yet the freeloader earned nothing — \
         junk CIDs are never retrieved, never paid"
    );

    // Same seed, all in-process: the socket boundary is invisible to the
    // event stream and to every outcome.
    let (_, local) = MultiMarket::with_shards(configs(), 2)
        .run(&engine, &failures)
        .expect("in-process rerun completes");
    assert_eq!(
        (remote.events_observed, remote.event_digest),
        (local.events_observed, local.event_digest),
        "push event streams must match across backends"
    );
    assert_eq!(remote.total_sim_seconds, local.total_sim_seconds);
    for (r, l) in remote.details.iter().zip(&local.details) {
        assert_eq!(r.cids_onchain, l.cids_onchain);
        assert_eq!(r.cids_retrieved, l.cids_retrieved);
        assert_eq!(r.front_run_count, l.front_run_count);
    }
    println!(
        "in-process rerun reproduces the stream bit-for-bit: {} events, digest {:#018x}",
        local.events_observed, local.event_digest
    );

    drop(mm); // closes the socket; the daemon thread drains and exits
    server.join().expect("daemon thread exits");
}
