//! `MultiMarket` builds its market blueprints on every core; the result
//! must be the serial loop's, market for market.

use std::sync::{Mutex, MutexGuard, OnceLock};

use ofl_core::config::MarketConfig;
use ofl_core::engine::MultiMarket;
use ofl_core::market::{MarketSession, SessionBlueprint};
use ofl_core::world::ShardSpec;
use ofl_data::dataset::Dataset;
use ofl_netsim::par::{parallel_enabled, set_parallel};
use ofl_primitives::u256::U256;
use ofl_primitives::H160;

/// The executor flag is process-global, so every test that flips
/// `set_parallel` holds this for its whole body.
fn toggle_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

type Genesis = Vec<(H160, U256)>;
type Data = (Vec<f32>, Vec<usize>);

/// One market's participants and data: the buyer's address, then each
/// owner's; each owner's silo; the buyer's test set.
#[derive(Debug, PartialEq)]
struct Market {
    addresses: Vec<H160>,
    silos: Vec<Data>,
    test: Data,
}

fn data(d: &Dataset) -> Data {
    (d.images.data().to_vec(), d.labels.clone())
}

fn market(session: &MarketSession) -> Market {
    Market {
        addresses: std::iter::once(session.buyer.address)
            .chain(session.owners.iter().map(|o| o.address))
            .collect(),
        silos: session.owners.iter().map(|o| data(&o.data)).collect(),
        test: data(&session.buyer.test),
    }
}

/// Builds the world and returns each shard's genesis and each market.
fn build(configs: &[MarketConfig], shards: usize) -> (Vec<Genesis>, Vec<Market>) {
    let mut genesis = Vec::new();
    let mm = MultiMarket::with_shards_via(configs.to_vec(), shards, |config| {
        genesis.push(config.genesis.clone());
        ShardSpec::Local(config)
    });
    (genesis, mm.sessions.iter().map(market).collect())
}

#[test]
fn blueprints_built_in_parallel_equal_serial_and_solo_ones() {
    let _guard = toggle_lock();
    let (markets, shards) = (5, 2);
    let configs = MultiMarket::replica_configs(&MarketConfig::small_test(), markets, shards);
    let was_parallel = parallel_enabled();
    set_parallel(false);
    let serial = build(&configs, shards);
    set_parallel(true);
    let parallel = build(&configs, shards);
    set_parallel(was_parallel);
    assert_eq!(parallel, serial);

    // Market m is the blueprint a solo build of its config and label
    // gives, and each shard pools its markets' genesis in market order.
    let mut genesis: Vec<Genesis> = vec![Vec::new(); shards];
    for (m, config) in configs.iter().enumerate() {
        let label = if m == 0 {
            String::new()
        } else {
            format!("m{m}/")
        };
        let solo = SessionBlueprint::new(config.clone(), &label);
        genesis[config.placement.0].extend_from_slice(solo.genesis());
        let session = solo.instantiate_with(|labels| (0..labels.len()).collect());
        assert_eq!(parallel.1[m], market(&session), "market {m}");
    }
    assert_eq!(parallel.0, genesis);
}
