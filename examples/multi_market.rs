//! Multi-market walkthrough: several complete marketplace sessions sharing
//! ONE Web 3.0 substrate — one chain, one mempool, one IPFS swarm — driven
//! by the discrete-event session engine.
//!
//! Each market has its own buyer, its own `CidStorage` contract, its own
//! owners and budget; what they share is the world. Owners across all
//! markets train and upload concurrently, their `uploadCid` transactions
//! pile into the shared mempool, and the 12-second slot boundary mines them
//! into shared blocks — so base-fee movement and per-block gas pressure
//! emerge from real contention.
//!
//! Run with: `cargo run --release --example multi_market`

use ofl_w3::core::config::MarketConfig;
use ofl_w3::core::engine::{Arrivals, EngineConfig, MultiMarket};
use ofl_w3::core::scenario::Scenario;
use ofl_w3::fl::client::TrainConfig;
use ofl_w3::netsim::clock::SimDuration;
use ofl_w3::primitives::format_eth;
use ofl_w3::rpc::EndpointId;

fn base_config() -> MarketConfig {
    MarketConfig {
        n_owners: 8,
        n_train: 1600,
        n_test: 300,
        train: TrainConfig {
            dims: vec![784, 32, 10],
            epochs: 2,
            ..TrainConfig::default()
        },
        ..MarketConfig::small_test()
    }
}

fn main() {
    println!("OFL-W3 multi-market worlds: 4 concurrent sessions, one chain\n");

    // 4 markets × 8 owners, decorrelated seeds, everyone arriving at once.
    let mm = MultiMarket::replicated(&base_config(), 4);
    let (mm, report) = mm
        .run(&EngineConfig::default(), &[])
        .expect("all four sessions complete");

    println!("market  owners  aggregate acc  paid (ETH)   session time");
    for (m, session) in report.sessions.iter().enumerate() {
        println!(
            "  m{m}    {:>4}   {:>10.2} %  {:>10}   {:>9.1} s",
            session.payments.len(),
            session.aggregated_accuracy * 100.0,
            format_eth(&session.total_paid(), 6),
            session.total_sim_seconds,
        );
    }
    println!(
        "\nwhole world finished in {:.1} virtual seconds on {} blocks",
        report.total_sim_seconds,
        mm.world.chain(EndpointId(0)).height()
    );

    // Shared blocks: the contention the serial workflow can never create.
    println!("\nCID transactions per block (distinct owners, all markets):");
    for (endpoint, block, owners) in &report.cid_txs_per_block {
        println!(
            "  {endpoint} block {block:>3}: {owners:>2} owners  {}",
            "#".repeat(*owners)
        );
    }
    println!(
        "fullest block carried {} of 32 owners",
        report.max_owners_sharing_block()
    );

    // Compare one of those markets against the serial workflow.
    let serial = Scenario::new("serial-8", base_config())
        .run()
        .expect("serial baseline completes");
    let event_secs = report.sessions[0].total_sim_seconds;
    println!(
        "\nserial 8-owner session: {:.1} s of virtual time ({} blockchain waits in a row)",
        serial.total_sim_seconds, 8
    );
    println!(
        "event-driven 8-owner session: {:.1} s  ({:.1}x less virtual time)",
        event_secs,
        serial.total_sim_seconds / event_secs
    );

    // Staggered arrivals: owners trickle in 30 s apart instead.
    let staggered = EngineConfig {
        arrivals: Arrivals::Staggered(SimDuration::from_secs(30)),
        ..EngineConfig::default()
    };
    let (_, rolling) = MultiMarket::new(vec![base_config()])
        .run(&staggered, &[])
        .expect("staggered session completes");
    println!(
        "\nstaggered arrivals (30 s apart): {:.1} s total, fullest block carried {} owner(s)",
        rolling.total_sim_seconds,
        rolling.max_owners_sharing_block()
    );

    // Sharded placement: the same 4 markets, but spread across 2 chains of
    // one provider pool. Each market's traffic — contract calls, wallet
    // signing reads, CID transactions — stays on its own shard, so blocks
    // are only contended by same-shard siblings.
    let (mm, sharded) = MultiMarket::replicated_sharded(&base_config(), 4, 2)
        .run(&EngineConfig::default(), &[])
        .expect("sharded session completes");
    println!(
        "\n4 markets across 2 shards: {:.1} virtual s, CID txs landed on shards {:?}",
        sharded.total_sim_seconds,
        sharded.shards_with_cid_txs()
    );
    for (s, metrics) in sharded.rpc_per_endpoint.iter().enumerate() {
        println!(
            "  shard {s}: {} rpc round trips, {} uploadCid-bearing chain height",
            metrics.round_trips,
            mm.world.chain(EndpointId(s)).height()
        );
    }
}
