//! Out-of-process backend walkthrough: launch the `rpcd` node daemon,
//! mount it as a `ShardSpec::Remote` endpoint of a world's provider pool,
//! and drive the complete 7-step marketplace workflow **through the
//! socket** — then run the identical configuration in-process and show the
//! two runs are indistinguishable, down to the RPC metering.
//!
//! The daemon here is served on a background thread by the same
//! `serve_listener_with` loop the standalone `rpcd` binary runs; point
//! `RemoteEndpoint::Tcp` at `rpcd --tcp 127.0.0.1:8945` for the true
//! two-process version.
//!
//! Run: `cargo run --example rpcd_socket`

use ofl_w3::core::config::MarketConfig;
use ofl_w3::core::engine::{EngineConfig, MultiMarket};
use ofl_w3::core::world::ShardSpec;
use ofl_w3::rpc::RemoteEndpoint;

fn main() {
    // A small two-market fleet: market 0 stays on the in-process shard,
    // market 1 is placed on the shard the daemon serves.
    let base = MarketConfig {
        n_owners: 3,
        n_train: 300,
        n_test: 100,
        seed: 7,
        train: ofl_w3::fl::client::TrainConfig {
            dims: vec![784, 16, 10],
            epochs: 1,
            ..ofl_w3::fl::client::TrainConfig::default()
        },
        ..MarketConfig::small_test()
    };
    let configs = || MultiMarket::replica_configs(&base, 2, 2);

    // 1. The node daemon: one TCP listener, one connection to serve.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap().to_string();
    println!("rpcd listening on tcp://{addr} (background thread running the binary's serve loop)");
    let server = std::thread::spawn(move || {
        ofl_w3::rpcd::serve_listener_with(listener, ofl_w3::rpcd::DaemonOptions::max(1))
    });

    // 2. A world whose pool mixes one local shard with one remote shard.
    //    `World::from_shards` connects, sends a Provision frame carrying
    //    the shard's chain parameters + genesis, and from then on every
    //    contract call, transaction broadcast, receipt poll, IPFS transfer,
    //    and backstage mining op for that shard crosses the socket.
    let mut shard = 0usize;
    let endpoint = RemoteEndpoint::Tcp(addr);
    let remote_fleet = MultiMarket::with_shards_via(configs(), 2, |config| {
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

    let (mm, remote) = remote_fleet
        .run(&EngineConfig::default(), &[])
        .expect("socket-backed fleet completes");

    println!("\nsocket-backed run:");
    for (m, session) in remote.sessions.iter().enumerate() {
        println!(
            "  market {m}: {} models aggregated at {:.2}% accuracy, {} payments, {:.1} virtual s",
            session.cids.len(),
            session.aggregated_accuracy * 100.0,
            session.payments.len(),
            session.total_sim_seconds,
        );
    }
    for (i, metrics) in remote.rpc_per_endpoint.iter().enumerate() {
        let backend = if i == 1 { "remote (socket)" } else { "local" };
        println!(
            "  endpoint {i} [{backend}]: {} rpc calls, {} round trips, {:.2} virtual s priced",
            metrics.total_calls(),
            metrics.round_trips,
            metrics.total_cost().as_secs_f64(),
        );
    }

    // 3. The same seed, all in-process: the boundary must be invisible.
    let (_, local) = MultiMarket::with_shards(configs(), 2)
        .run(&EngineConfig::default(), &[])
        .expect("in-process fleet completes");
    assert_eq!(remote.total_sim_seconds, local.total_sim_seconds);
    assert_eq!(remote.rpc, local.rpc);
    assert_eq!(remote.cid_txs_per_block, local.cid_txs_per_block);
    for (r, l) in remote.sessions.iter().zip(&local.sessions) {
        assert_eq!(r.cids, l.cids);
        assert_eq!(r.total_sim_seconds, l.total_sim_seconds);
    }
    println!(
        "\nin-process rerun matches bit-for-bit: {} total rpc calls, {:.1} virtual s — \
         the process boundary is invisible to the marketplace",
        local.rpc.total_calls(),
        local.total_sim_seconds,
    );

    drop(mm); // closes the socket; the daemon thread drains and exits
    server.join().expect("daemon thread exits");
}
