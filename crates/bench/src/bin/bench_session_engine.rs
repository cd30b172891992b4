//! **Engine bench** — serial workflow vs the discrete-event session engine.
//!
//! The serial driver pays one ~12 s blockchain confirmation *per owner*
//! because every participant acts alone on one clock. The event engine
//! lets owners train, upload, and broadcast concurrently, so their
//! `uploadCid` transactions share 12-second blocks and the whole session
//! collapses toward a handful of slots. This bench sweeps the owner count
//! and reports both engines' total *virtual* session time, the speedup,
//! and how many distinct owners the fullest block carried.
//!
//! Run: `cargo run -p ofl-bench --release --bin bench_session_engine`

use ofl_bench::{header, write_record};
use ofl_core::config::{MarketConfig, PartitionScheme};
use ofl_core::engine::{EngineConfig, MultiMarket};
use ofl_core::scenario::Scenario;
use ofl_core::world::{ShardSpec, DEFAULT_TX_WIRE_BYTES};
use ofl_fl::client::TrainConfig;
use ofl_rpc::provision_socket_provider;
use ofl_rpcd::PipeTransport;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    owners: usize,
    serial_secs: f64,
    event_secs: f64,
    speedup: f64,
    max_owners_in_one_block: usize,
    blocks_with_cid_txs: usize,
}

#[derive(Serialize)]
struct PollingRow {
    mode: &'static str,
    provider_round_trips: u64,
    receipt_poll_requests: u64,
    receipt_poll_virtual_secs: f64,
    rpc_virtual_secs_total: f64,
    session_secs: f64,
}

#[derive(Serialize)]
struct CidReadRow {
    mode: &'static str,
    provider_round_trips: u64,
    eth_call_requests: u64,
    eth_call_virtual_secs: f64,
    download_phase_secs: f64,
}

#[derive(Serialize)]
struct BoundaryRow {
    backend: &'static str,
    provider_round_trips: u64,
    rpc_requests: u64,
    rpc_virtual_secs: f64,
    session_secs: f64,
    wall_millis: u64,
}

#[derive(Serialize)]
struct ShardRow {
    shards: usize,
    total_secs: f64,
    max_owners_in_one_block: usize,
    blocks_with_cid_txs: usize,
}

#[derive(Serialize)]
struct Record {
    rows: Vec<Row>,
    multi_market_4x8_secs: f64,
    receipt_polling_32_owners: Vec<PollingRow>,
    cid_reads_32_owners: Vec<CidReadRow>,
    sharding_4x8: Vec<ShardRow>,
    backend_boundary_8_owners: Vec<BoundaryRow>,
}

fn sweep_config(owners: usize) -> MarketConfig {
    MarketConfig {
        n_owners: owners,
        n_train: 200 * owners,
        n_test: 200,
        partition: PartitionScheme::Iid,
        seed: 42,
        train: TrainConfig {
            dims: vec![784, 16, 10],
            epochs: 1,
            ..TrainConfig::default()
        },
        ..MarketConfig::small_test()
    }
}

fn main() {
    header("Session engine: serial vs discrete-event virtual time");

    let mut rows = Vec::new();
    println!(
        "{:>7} {:>13} {:>13} {:>9} {:>22}",
        "owners", "serial (s)", "event (s)", "speedup", "max owners per block"
    );
    for owners in [4usize, 8, 16, 32] {
        let config = sweep_config(owners);
        let serial = Scenario::new(format!("serial-{owners}"), config.clone())
            .run()
            .expect("serial session");
        let (_, report) = MultiMarket::new(vec![config])
            .run(&EngineConfig::default(), &[])
            .expect("event-driven session");
        let event_secs = report.sessions[0].total_sim_seconds;
        let speedup = serial.total_sim_seconds / event_secs;
        println!(
            "{:>7} {:>13.1} {:>13.1} {:>8.1}x {:>22}",
            owners,
            serial.total_sim_seconds,
            event_secs,
            speedup,
            report.max_owners_sharing_block()
        );
        rows.push(Row {
            owners,
            serial_secs: serial.total_sim_seconds,
            event_secs,
            speedup,
            max_owners_in_one_block: report.max_owners_sharing_block(),
            blocks_with_cid_txs: report.cid_txs_per_block.len(),
        });
    }

    // One shared chain, four markets of eight owners each — the whole fleet
    // finishes in roughly the virtual time one serial owner used to need.
    let (_, multi) = MultiMarket::replicated(&sweep_config(8), 4)
        .run(&EngineConfig::default(), &[])
        .expect("multi-market run");
    println!(
        "\n4 markets × 8 owners on one chain: {:.1} virtual s total, fullest block carried {} owners",
        multi.total_sim_seconds,
        multi.max_owners_sharing_block()
    );

    // Batched vs per-call receipt polling for the 32-owner session: with
    // batching, the engine's per-slot poll for every pending transaction is
    // ONE provider round trip; without it, every pending hash pays its own.
    println!("\nreceipt polling, 32 owners (EthApi::batch vs one request per hash):");
    println!(
        "{:>10} {:>13} {:>15} {:>17} {:>15} {:>13}",
        "mode", "round trips", "poll requests", "poll virtual (s)", "rpc total (s)", "session (s)"
    );
    let polling: Vec<PollingRow> = [("batched", true), ("per-call", false)]
        .into_iter()
        .map(|(mode, batch_receipt_polls)| {
            let engine = EngineConfig {
                batch_receipt_polls,
                ..EngineConfig::default()
            };
            let (_, report) = MultiMarket::new(vec![sweep_config(32)])
                .run(&engine, &[])
                .expect("event-driven session");
            let polls = report.rpc.method("eth_getTransactionReceipt");
            let row = PollingRow {
                mode,
                provider_round_trips: report.rpc.round_trips,
                receipt_poll_requests: polls.calls,
                receipt_poll_virtual_secs: polls.cost.as_secs_f64(),
                rpc_virtual_secs_total: report.rpc.total_cost().as_secs_f64(),
                session_secs: report.sessions[0].total_sim_seconds,
            };
            println!(
                "{:>10} {:>13} {:>15} {:>17.3} {:>15.3} {:>13.1}",
                row.mode,
                row.provider_round_trips,
                row.receipt_poll_requests,
                row.receipt_poll_virtual_secs,
                row.rpc_virtual_secs_total,
                row.session_secs
            );
            row
        })
        .collect();

    // Batched vs per-index CID downloads for the 32-owner session: the
    // buyer's step-5 read (Fig 7b "download CIDs") is `cidCount` + ONE
    // batched `getCid` round trip, against one `eth_call` per index.
    println!("\nCID downloads, 32 owners (cidCount + one batch vs one eth_call per index):");
    println!(
        "{:>10} {:>13} {:>15} {:>17} {:>15}",
        "mode", "round trips", "eth_call reqs", "call virtual (s)", "download (s)"
    );
    let cid_reads: Vec<CidReadRow> = [("batched", true), ("per-call", false)]
        .into_iter()
        .map(|(mode, batch_cid_reads)| {
            let engine = EngineConfig {
                batch_cid_reads,
                ..EngineConfig::default()
            };
            let (_, report) = MultiMarket::new(vec![sweep_config(32)])
                .run(&engine, &[])
                .expect("event-driven session");
            let calls = report.rpc.method("eth_call");
            let download_phase_secs = report.sessions[0]
                .buyer_breakdown
                .iter()
                .find(|(label, _, _)| label == "download CIDs")
                .map(|(_, d, _)| d.as_secs_f64())
                .unwrap_or(0.0);
            let row = CidReadRow {
                mode,
                provider_round_trips: report.rpc.round_trips,
                eth_call_requests: calls.calls,
                eth_call_virtual_secs: calls.cost.as_secs_f64(),
                download_phase_secs,
            };
            println!(
                "{:>10} {:>13} {:>15} {:>17.3} {:>15.3}",
                row.mode,
                row.provider_round_trips,
                row.eth_call_requests,
                row.eth_call_virtual_secs,
                row.download_phase_secs
            );
            row
        })
        .collect();

    // Same-shard vs cross-shard placement for the 4×8 fleet: one chain
    // carrying all 32 CID transactions, versus two or four chains carrying
    // only their own markets'.
    println!("\nplacement, 4 markets x 8 owners (same-shard vs cross-shard):");
    println!(
        "{:>7} {:>12} {:>22} {:>20}",
        "shards", "total (s)", "max owners per block", "blocks w/ CID txs"
    );
    let sharding: Vec<ShardRow> = [1usize, 2, 4]
        .into_iter()
        .map(|shards| {
            let (_, report) = MultiMarket::replicated_sharded(&sweep_config(8), 4, shards)
                .run(&EngineConfig::default(), &[])
                .expect("sharded run");
            let row = ShardRow {
                shards,
                total_secs: report.total_sim_seconds,
                max_owners_in_one_block: report.max_owners_sharing_block(),
                blocks_with_cid_txs: report.cid_txs_per_block.len(),
            };
            println!(
                "{:>7} {:>12.1} {:>22} {:>20}",
                row.shards, row.total_secs, row.max_owners_in_one_block, row.blocks_with_cid_txs
            );
            row
        })
        .collect();

    // In-process vs socket-backed: the same 8-owner session served by the
    // local SimProvider and by an rpcd server connection over the
    // deterministic in-memory pipe (full frame codec both directions). The
    // boundary must cost zero *virtual* time and zero extra round trips —
    // only wall-clock serialization — or it is not a transparent backend.
    println!(
        "
backend boundary, 8 owners (in-process vs rpcd over the frame codec):"
    );
    println!(
        "{:>12} {:>13} {:>13} {:>15} {:>13} {:>11}",
        "backend", "round trips", "rpc requests", "rpc virtual (s)", "session (s)", "wall (ms)"
    );
    let boundary: Vec<BoundaryRow> = [("in-process", false), ("socket", true)]
        .into_iter()
        .map(|(backend, remote)| {
            let config = sweep_config(8);
            let profile = config.profile;
            let started = std::time::Instant::now();
            let mm = MultiMarket::with_shards_via(vec![config], 1, |shard| {
                if remote {
                    ShardSpec::Mounted(
                        provision_socket_provider(
                            Box::new(PipeTransport::new()),
                            shard.chain.clone(),
                            shard.genesis.clone(),
                            profile,
                            DEFAULT_TX_WIRE_BYTES,
                            shard.knobs(),
                        )
                        .expect("pipe provisions"),
                    )
                } else {
                    ShardSpec::Local(shard)
                }
            });
            let (_, report) = mm.run(&EngineConfig::default(), &[]).expect("boundary run");
            let row = BoundaryRow {
                backend,
                provider_round_trips: report.rpc.round_trips,
                rpc_requests: report.rpc.total_calls(),
                rpc_virtual_secs: report.rpc.total_cost().as_secs_f64(),
                session_secs: report.sessions[0].total_sim_seconds,
                wall_millis: started.elapsed().as_millis() as u64,
            };
            println!(
                "{:>12} {:>13} {:>13} {:>15.3} {:>13.1} {:>11}",
                row.backend,
                row.provider_round_trips,
                row.rpc_requests,
                row.rpc_virtual_secs,
                row.session_secs,
                row.wall_millis
            );
            row
        })
        .collect();
    assert_eq!(
        (
            boundary[0].provider_round_trips,
            boundary[0].rpc_virtual_secs,
            boundary[0].session_secs
        ),
        (
            boundary[1].provider_round_trips,
            boundary[1].rpc_virtual_secs,
            boundary[1].session_secs
        ),
        "the process boundary must be invisible in virtual time"
    );

    let record = Record {
        rows,
        multi_market_4x8_secs: multi.total_sim_seconds,
        receipt_polling_32_owners: polling,
        cid_reads_32_owners: cid_reads,
        sharding_4x8: sharding,
        backend_boundary_8_owners: boundary,
    };
    write_record("bench_session_engine", &record);
}
