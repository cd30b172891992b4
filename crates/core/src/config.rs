//! Marketplace configuration: the knobs of the paper's §4 demo scenario.

use ofl_eth::chain::ChainConfig;
use ofl_fl::client::TrainConfig;
use ofl_fl::pfnm::PfnmConfig;
use ofl_netsim::link::NetworkProfile;
use ofl_netsim::timing::ComputeModel;
use ofl_primitives::u256::U256;
use ofl_primitives::wei_per_eth;
use ofl_rpc::{EndpointFaults, EndpointId};

/// How the training data is split across model owners.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PartitionScheme {
    /// Independent and identically distributed.
    Iid,
    /// PFNM-style Dirichlet label skew (the paper's setting).
    Dirichlet {
        /// Concentration; smaller = more skew.
        alpha: f64,
    },
    /// McMahan shards.
    Shards {
        /// Shards dealt to each client.
        per_client: usize,
    },
    /// Each client sees exactly `classes` labels.
    LabelSkew {
        /// Classes per client.
        classes: usize,
    },
}

/// How the buyer finalizes a session: which aggregator runs and how the
/// budget is split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FinalizePolicy {
    /// The paper's pipeline: PFNM matched averaging plus leave-one-out
    /// Shapley-style payments. LOO is O(n²) aggregations, so this is for
    /// paper-scale federations (tens of owners).
    #[default]
    PfnmLoo,
    /// Fleet-scale pipeline: FedAvg aggregation with payments proportional
    /// to contributed data. Linear in owners, so thousand-owner fleets
    /// finalize in bounded time; accuracy bookkeeping is unchanged.
    FedAvgProportional,
}

/// Full configuration of one marketplace session.
#[derive(Debug, Clone)]
pub struct MarketConfig {
    /// Number of model owners (the paper demos 10).
    pub n_owners: usize,
    /// Token budget the buyer commits for payments (the paper: 0.01 ETH).
    pub budget_wei: U256,
    /// Training-set size drawn for the whole federation.
    pub n_train: usize,
    /// Buyer-held test-set size.
    pub n_test: usize,
    /// Data split across owners.
    pub partition: PartitionScheme,
    /// Local training settings (paper: MLP 784-100-10, batch 64, lr 0.001,
    /// 10 epochs).
    pub train: TrainConfig,
    /// PFNM hyperparameters.
    pub pfnm: PfnmConfig,
    /// Master seed for data, partitioning, and matching.
    pub seed: u64,
    /// Chain parameters (Sepolia-like defaults).
    pub chain: ChainConfig,
    /// Network profile (paper: unified campus network).
    pub profile: NetworkProfile,
    /// Owners' training hardware.
    pub owner_compute: ComputeModel,
    /// Buyer's backend workstation (paper: 2×RTX A5000 server).
    pub buyer_compute: ComputeModel,
    /// Seeded decorators for the market's endpoint — drops, quotas, stale
    /// reads, latency spikes, batch reordering and push lag, the
    /// infrastructure-fault scenario knobs (the default is a clean,
    /// reliable endpoint).
    pub faults: EndpointFaults,
    /// Derive and fund one extra non-participant account (the
    /// mempool-watching adversary of the front-running scenario). Off by
    /// default so clean runs keep their exact genesis allocation.
    pub fund_adversary: bool,
    /// Which shard of the world this market's sessions are pinned to. A
    /// solo serial [`Marketplace`](crate::market::Marketplace) always runs
    /// on shard 0; `MultiMarket` worlds size their provider pool to cover
    /// the largest placement and route each market's traffic — contract
    /// calls, transactions, wallet signing reads, IPFS transfers — through
    /// its own endpoint.
    pub placement: EndpointId,
    /// Aggregation + payment pipeline run at finalize time.
    pub finalize: FinalizePolicy,
}

impl Default for MarketConfig {
    fn default() -> Self {
        MarketConfig {
            n_owners: 10,
            budget_wei: wei_per_eth().div_rem(&U256::from(100u64)).0, // 0.01 ETH
            n_train: 3_000,
            n_test: 1_000,
            // α = 0.3 reproduces the strong skew of the paper's PFNM
            // partitioning: the weakest local models fall to ~40 % while the
            // aggregate stays high (Fig 4's 58.87-point margin).
            partition: PartitionScheme::Dirichlet { alpha: 0.3 },
            train: TrainConfig::default(),
            pfnm: PfnmConfig::default(),
            seed: 42,
            chain: ChainConfig::default(),
            profile: NetworkProfile::campus(),
            owner_compute: ComputeModel::rtx_a5000(),
            buyer_compute: ComputeModel::rtx_a5000(),
            faults: EndpointFaults::default(),
            fund_adversary: false,
            placement: EndpointId(0),
            finalize: FinalizePolicy::default(),
        }
    }
}

impl MarketConfig {
    /// A scaled-down configuration for fast tests: 4 owners, small silos,
    /// a 32-neuron hidden layer.
    pub fn small_test() -> MarketConfig {
        MarketConfig {
            n_owners: 4,
            n_train: 800,
            n_test: 300,
            train: TrainConfig {
                dims: vec![784, 32, 10],
                epochs: 3,
                ..TrainConfig::default()
            },
            ..MarketConfig::default()
        }
    }

    /// One load-harness market cell: `n_owners` owners with tiny silos, a
    /// 2-neuron hidden layer, one epoch, and the linear-time
    /// [`FinalizePolicy::FedAvgProportional`] pipeline — sized so a
    /// `MultiMarket` fleet of thousands of owners pushes its wire and
    /// engine load, not the trainer.
    pub fn fleet(n_owners: usize) -> MarketConfig {
        MarketConfig {
            n_owners,
            n_train: (n_owners * 4).max(64),
            n_test: 32,
            partition: PartitionScheme::Iid,
            train: TrainConfig {
                dims: vec![784, 2, 10],
                epochs: 1,
                ..TrainConfig::default()
            },
            finalize: FinalizePolicy::FedAvgProportional,
            ..MarketConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofl_primitives::format_eth;

    #[test]
    fn default_budget_is_paper_budget() {
        let cfg = MarketConfig::default();
        assert_eq!(format_eth(&cfg.budget_wei, 2), "0.01");
        assert_eq!(cfg.n_owners, 10);
        assert_eq!(cfg.train.dims, vec![784, 100, 10]);
        assert_eq!(cfg.train.batch_size, 64);
        assert_eq!(cfg.train.epochs, 10);
    }

    #[test]
    fn small_test_is_smaller() {
        let cfg = MarketConfig::small_test();
        assert!(cfg.n_owners < 10);
        assert!(cfg.n_train < 4000);
    }
}
