//! # ofl-core
//!
//! The OFL-W3 system itself: a one-shot federated-learning marketplace on a
//! (simulated) Web 3.0 stack. Model **buyers** fund a smart contract and
//! aggregate shared models with PFNM; model **owners** train on private
//! silos and are paid by Leave-one-out contribution.
//!
//! - [`config`]: session parameters (the paper's §4 demo defaults),
//!   including each market's shard [`config::MarketConfig::placement`].
//! - [`world`]: the shared substrate — a provider *pool* of N chain shards
//!   plus their IPFS swarms, one virtual clock.
//! - [`market`]: the 7-step workflow and the [`market::SessionReport`] that
//!   feeds every figure/table of the paper.
//! - [`engine`]: the discrete-event session engine that drives every
//!   session — the paper's one-owner-at-a-time workflow, concurrent
//!   owners sharing blocks, and [`engine::MultiMarket`] worlds (N sessions
//!   placed on one or many shards).
//! - [`dapp`]: the button-level React/Flask DApp facade of Fig 3.
//! - [`scenario`]: parameterized sessions with failure injection — the
//!   engine behind the regime sweeps in `tests/scenarios.rs` and the
//!   benches.
//!
//! ## Example: the paper's demo in five lines
//!
//! ```no_run
//! use ofl_core::config::MarketConfig;
//! use ofl_core::market::Marketplace;
//!
//! let (market, report) = Marketplace::run(MarketConfig::default()).unwrap();
//! println!("aggregated accuracy: {:.2} %", report.aggregated_accuracy * 100.0);
//! println!("{}", ofl_core::market::render_payment_table(&report.payments));
//! println!("{}", market.buyer_recorder.render("Buyer time distribution"));
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod dapp;
pub mod engine;
pub mod market;
pub mod scenario;
pub mod world;

pub use config::{FinalizePolicy, MarketConfig, PartitionScheme};
pub use engine::{Arrivals, EngineConfig, EngineReport, MultiMarket};
pub use market::{MarketSession, Marketplace, SessionBlueprint, SessionReport};
pub use ofl_rpc::EndpointId;
pub use scenario::{ExecutionMode, FailurePlan, Scenario, ScenarioOutcome, ScenarioSuite};
pub use world::{ShardSpec, World};
