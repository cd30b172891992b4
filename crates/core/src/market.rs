//! The OFL-W3 marketplace: model buyers, model owners, and the paper's
//! seven-step workflow (§3.2) executed end-to-end on the simulated Web 3.0
//! substrate.
//!
//! | Step | Action | Who |
//! |------|--------|-----|
//! | 1 | Design & deploy the `CidStorage` contract | buyer |
//! | 2 | Train locally, upload model to IPFS | owners |
//! | 3 | Receive CIDs from IPFS | owners |
//! | 4 | Send CIDs to the contract | owners |
//! | 5 | Download CIDs (free reads) | buyer |
//! | 6 | Retrieve models from IPFS | buyer |
//! | 7 | Aggregate (PFNM, backend server), compute LOO, pay | buyer |
//!
//! The session state lives in [`MarketSession`], which is deliberately
//! substrate-free: every step is a primitive that either does pure host
//! compute and *returns* the virtual time it would take, or touches the
//! market's [`Endpoint`] of a world, passed in by the caller. One driver
//! runs whole sessions: `ofl_core::engine` drives the primitives from a
//! discrete-event queue over a shared `World`. [`Marketplace::run`] is the
//! paper's serial workflow on it, one market whose owners arrive one at a
//! time ([`Arrivals::OneAtATime`]).
//!
//! [`Marketplace`] also exposes each step as a blocking method on its own
//! `World`, which the DApp screens (`ofl_core::dapp`, the paper's Fig 3)
//! call one click at a time.

use crate::config::{FinalizePolicy, MarketConfig, PartitionScheme};
use crate::engine::{Arrivals, EngineConfig, MultiMarket};
use crate::world::{Endpoint, World, WorldError};
use ofl_data::dataset::Dataset;
use ofl_data::{mnist, partition};
use ofl_eth::block::Receipt;
use ofl_eth::tx::{sign_tx, SignedTx, TxRequest};
use ofl_eth::wallet::{TxEnv, Wallet};
use ofl_fl::baselines::{average_weights, AggregateError};
use ofl_fl::client::TrainedModel;
use ofl_fl::pfnm::{self, PfnmConfig};
use ofl_incentive::{allocate_payments, loo_coalitions, LooReport};
use ofl_ipfs::cid::Cid;
use ofl_netsim::clock::SimDuration;
use ofl_netsim::link::Link;
use ofl_netsim::par::fork_join_mut;
use ofl_netsim::timing::{ComputeModel, PhaseRecorder};
use ofl_primitives::hotpath::{HotPhase, PhaseTimer};
use ofl_primitives::u256::U256;
use ofl_primitives::{format_eth, wei_per_eth, H160, H256};
use ofl_rpc::{BindingError, EndpointId, ModelMarketContract, ProviderMetrics};
use ofl_tensor::nn::Mlp;
use ofl_tensor::serialize::{decode_model, encode_model};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Phase labels (owners), matching the paper's Fig 7a.
pub mod owner_phase {
    /// Local model training.
    pub const TRAIN: &str = "local training";
    /// Model upload to IPFS.
    pub const UPLOAD: &str = "model upload (IPFS)";
    /// Sending the CID to the smart contract and awaiting confirmation.
    pub const SEND_CID: &str = "send CID (blockchain)";
}

/// Phase labels (buyer), matching the paper's Fig 7b.
pub mod buyer_phase {
    /// Contract deployment and confirmation.
    pub const DEPLOY: &str = "contract deployment";
    /// Downloading CIDs from the contract (free reads).
    pub const DOWNLOAD_CIDS: &str = "download CIDs";
    /// Retrieving models from IPFS.
    pub const RETRIEVE: &str = "model retrieval (IPFS)";
    /// One-shot aggregation on the backend workstation.
    pub const AGGREGATE: &str = "aggregation (backend)";
    /// LOO payment computation plus the payment transactions.
    pub const PAYMENT: &str = "payment";
}

/// One model owner's session state.
pub struct OwnerState {
    /// Wallet address (appears in the payment table).
    pub address: H160,
    /// Index of this owner's IPFS node in the swarm.
    pub ipfs_node: usize,
    /// The owner's private silo.
    pub data: Dataset,
    /// Local training output.
    pub trained: Option<TrainedModel>,
    /// Serialized model uploaded to IPFS.
    pub model_bytes: Vec<u8>,
    /// The model's content identifier.
    pub cid: Option<Cid>,
    /// Receipt of the `uploadCid` transaction.
    pub upload_receipt: Option<Receipt>,
}

impl OwnerState {
    /// **Step 2 (training half)** — owner `i` of a market configured by
    /// `config` trains on its silo on the host CPU and keeps the model and
    /// its encoding. Returns the *virtual* time the training would take on
    /// the owner's hardware; the caller decides which clock or timeline to
    /// charge. Touches nothing but this owner.
    pub fn train(&mut self, config: &MarketConfig, i: usize) -> SimDuration {
        let cfg = ofl_fl::client::TrainConfig {
            seed: config.train.seed.wrapping_add(i as u64 * 7919),
            ..config.train.clone()
        };
        let trained = ofl_fl::client::train_local(&self.data, &cfg);
        let train_time = config
            .owner_compute
            .training_time(self.data.len().max(1), cfg.epochs);
        self.model_bytes = encode_model(&trained.model);
        self.trained = Some(trained);
        train_time
    }
}

/// The model buyer's session state.
pub struct BuyerState {
    /// Wallet address.
    pub address: H160,
    /// Buyer's IPFS node.
    pub ipfs_node: usize,
    /// Held-out evaluation set (proxy for the buyer's target task).
    pub test: Dataset,
}

/// A row of the payment table (the paper's Table 1).
#[derive(Debug, Clone)]
pub struct PaymentRow {
    /// Recipient wallet.
    pub address: H160,
    /// Amount paid, wei.
    pub amount_wei: U256,
    /// Receipt of the payment transaction.
    pub receipt: Receipt,
}

/// A gas measurement (the paper's Fig 5).
#[derive(Debug, Clone)]
pub struct GasRow {
    /// Human-readable label, e.g. `deploy`, `uploadCid[3]`, `payment[7]`.
    pub label: String,
    /// Gas units consumed.
    pub gas_used: u64,
    /// Fee in wei.
    pub fee_wei: U256,
}

/// Everything a full session produces — the inputs to every figure and
/// table of the paper's §4.
pub struct SessionReport {
    /// Test accuracy of each owner's local model (Fig 4 bars).
    pub local_accuracies: Vec<f64>,
    /// Test accuracy of the PFNM-aggregated model (Fig 4 line: 93.87 %).
    pub aggregated_accuracy: f64,
    /// Hidden width of the aggregated model.
    pub global_neurons: usize,
    /// `loo_drop_accuracies[i]` = aggregate accuracy without owner i
    /// (Fig 6).
    pub loo_drop_accuracies: Vec<f64>,
    /// Marginal contributions `v(N) − v(N∖i)`.
    pub contributions: Vec<f64>,
    /// The payment table (Table 1).
    pub payments: Vec<PaymentRow>,
    /// Gas per transaction (Fig 5).
    pub gas: Vec<GasRow>,
    /// Per-owner phase breakdowns (Fig 7a).
    pub owner_breakdowns: Vec<Vec<(String, SimDuration, f64)>>,
    /// Buyer phase breakdown (Fig 7b).
    pub buyer_breakdown: Vec<(String, SimDuration, f64)>,
    /// CIDs shared on-chain, in upload order.
    pub cids: Vec<String>,
    /// Total virtual seconds the session took.
    pub total_sim_seconds: f64,
    /// The metering snapshot of **this market's endpoint** (its
    /// [`MarketConfig::placement`] shard), taken when the session
    /// completed: per-method call counts, errors, round trips, and
    /// virtual-time totals. Markets placed on *different* shards meter
    /// independently; markets sharing a shard share its counters (the
    /// snapshot then includes same-shard siblings' traffic up to that
    /// instant — use [`EngineReport::rpc`](crate::engine::EngineReport)
    /// for run-level totals rather than summing across sessions).
    pub rpc: ProviderMetrics,
}

impl SessionReport {
    /// Worst local model accuracy (the paper quotes aggregate − worst =
    /// 58.87 points).
    pub fn worst_local_accuracy(&self) -> f64 {
        self.local_accuracies
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
    }

    /// Index of the least useful owner (paper: model 7).
    pub fn least_useful_owner(&self) -> usize {
        self.loo_drop_accuracies
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("accuracies finite"))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Sum of all payments (must equal the budget).
    pub fn total_paid(&self) -> U256 {
        self.payments
            .iter()
            .fold(U256::ZERO, |acc, p| acc.wrapping_add(&p.amount_wei))
    }
}

/// Errors from marketplace steps.
#[derive(Debug)]
pub enum MarketError {
    /// Substrate failure.
    World(WorldError),
    /// A typed contract-binding failure (revert, corrupt returndata, or
    /// provider error underneath it).
    Binding(BindingError),
    /// A step was invoked out of order.
    StepOrder(&'static str),
    /// Aggregation failure.
    Pfnm(pfnm::PfnmError),
    /// A transaction landed but failed on-chain.
    TxFailed(String),
    /// Model bytes from IPFS failed to decode.
    ModelDecode,
}

impl From<WorldError> for MarketError {
    fn from(e: WorldError) -> Self {
        MarketError::World(e)
    }
}

impl From<BindingError> for MarketError {
    fn from(e: BindingError) -> Self {
        MarketError::Binding(e)
    }
}

impl From<pfnm::PfnmError> for MarketError {
    fn from(e: pfnm::PfnmError) -> Self {
        MarketError::Pfnm(e)
    }
}

impl core::fmt::Display for MarketError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MarketError::World(e) => write!(f, "world: {e}"),
            MarketError::Binding(e) => write!(f, "contract binding: {e}"),
            MarketError::StepOrder(what) => write!(f, "workflow step out of order: {what}"),
            MarketError::Pfnm(e) => write!(f, "aggregation: {e}"),
            MarketError::TxFailed(label) => write!(f, "transaction failed on-chain: {label}"),
            MarketError::ModelDecode => write!(f, "retrieved model bytes failed to decode"),
        }
    }
}

impl std::error::Error for MarketError {}

/// A model the buyer pulled from IPFS, attributed back to its owner.
struct RetrievedModel {
    model: Mlp,
    /// Data weight (the owner's example count).
    weight: usize,
    /// Index into `owners`, when the CID matches a known owner.
    owner_index: Option<usize>,
}

/// Everything the buyer knows after PFNM aggregation, before payment.
pub struct Aggregation {
    models: Vec<Mlp>,
    weights: Vec<usize>,
    /// Payment recipients, in model order (`None` = unattributable CID).
    pub recipients: Vec<Option<H160>>,
    /// The aggregated model plus matching metadata.
    pub result: pfnm::PfnmResult,
    /// Test accuracy of the aggregated model.
    pub accuracy: f64,
}

/// LOO contribution assessment and the resulting payment split.
pub struct LooPayments {
    /// Aggregate accuracy without each model.
    pub drop_values: Vec<f64>,
    /// Marginal contributions `v(N) − v(N∖i)`.
    pub contributions: Vec<f64>,
    /// Wei owed per model, aligned with `Aggregation::recipients`.
    pub amounts: Vec<U256>,
}

/// Pure per-market setup — wallet derivation, genesis allocation, and data
/// partitioning — computed before any [`World`] exists so that several
/// markets can pool their genesis entries into one shared chain.
pub struct SessionBlueprint {
    config: MarketConfig,
    label: String,
    wallet: Wallet,
    buyer_addr: H160,
    owner_addrs: Vec<H160>,
    adversary: Option<H160>,
    genesis: Vec<(H160, U256)>,
    silos: Vec<Dataset>,
    test: Dataset,
}

impl SessionBlueprint {
    /// Derives participants and partitions data. `label` namespaces wallet
    /// seeds and IPFS peer ids so several markets can share one world; use
    /// `""` for a solo market (identical derivation to the original serial
    /// construction).
    pub fn new(config: MarketConfig, label: &str) -> SessionBlueprint {
        let mut wallet = Wallet::from_seed(&format!("ofl-w3/{label}{}", config.seed), 0);
        let buyer_addr = wallet.derive_account(
            &format!("ofl-w3/{label}buyer"),
            config.seed,
            "model-buyer".into(),
        );
        let owner_addrs: Vec<H160> = (0..config.n_owners)
            .map(|i| {
                wallet.derive_account(
                    &format!("ofl-w3/{label}owner"),
                    config.seed.wrapping_mul(1000).wrapping_add(i as u64),
                    format!("model-owner-{i}"),
                )
            })
            .collect();
        // Genesis: buyer gets 1 ETH (covers the 0.01 budget plus fees);
        // owners get 0.1 ETH for their uploadCid gas.
        let mut genesis = vec![(buyer_addr, wei_per_eth())];
        let tenth = wei_per_eth().div_rem(&U256::from(10u64)).0;
        for a in &owner_addrs {
            genesis.push((*a, tenth));
        }
        // Derived after the participants so their addresses (and therefore
        // every clean-run digest) are untouched by the knob.
        let adversary = config.fund_adversary.then(|| {
            let addr = wallet.derive_account(
                &format!("ofl-w3/{label}adversary"),
                config.seed,
                "mempool-freeloader".into(),
            );
            genesis.push((addr, wei_per_eth()));
            addr
        });

        // Data: the buyer holds the test set; owners hold non-IID silos.
        let (train, test) = mnist::generate(config.seed, config.n_train, config.n_test);
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(77));
        let silos = match config.partition {
            PartitionScheme::Iid => partition::iid(&train, config.n_owners, &mut rng),
            PartitionScheme::Dirichlet { alpha } => {
                partition::dirichlet(&train, config.n_owners, 10, alpha, &mut rng)
            }
            PartitionScheme::Shards { per_client } => {
                partition::shards(&train, config.n_owners, per_client, &mut rng)
            }
            PartitionScheme::LabelSkew { classes } => {
                partition::label_skew(&train, config.n_owners, 10, classes, &mut rng)
            }
        };

        SessionBlueprint {
            config,
            label: label.to_string(),
            wallet,
            buyer_addr,
            owner_addrs,
            adversary,
            genesis,
            silos,
            test,
        }
    }

    /// This market's genesis allocation (pooled by multi-market worlds).
    pub fn genesis(&self) -> &[(H160, U256)] {
        &self.genesis
    }

    /// Re-allocates the silos and the test set, the data a session keeps
    /// for its whole run, on the calling thread's heap, and frees the
    /// copies the blueprint was built with.
    pub(crate) fn rehome_data(&mut self) {
        self.silos = self.silos.clone();
        self.test = self.test.clone();
    }

    /// Spawns the market's IPFS nodes through `spawn` (any backstage node
    /// spawner — a local swarm or a remote shard's wire channel), which
    /// gets every label at once (the buyer's first, then each owner's) and
    /// returns the node indices in label order, and assembles the session
    /// state.
    pub fn instantiate_with(self, spawn: impl FnOnce(Vec<String>) -> Vec<usize>) -> MarketSession {
        let SessionBlueprint {
            config,
            label,
            wallet,
            buyer_addr,
            owner_addrs,
            adversary,
            genesis,
            silos,
            test,
        } = self;
        let labels = std::iter::once(format!("{label}buyer"))
            .chain((0..silos.len()).map(|i| format!("{label}owner-{i}")))
            .collect();
        let nodes = spawn(labels);
        let buyer_node = nodes[0];
        let owners: Vec<OwnerState> = silos
            .into_iter()
            .enumerate()
            .map(|(i, data)| OwnerState {
                address: owner_addrs[i],
                ipfs_node: nodes[i + 1],
                data,
                trained: None,
                model_bytes: Vec::new(),
                cid: None,
                upload_receipt: None,
            })
            .collect();

        let n = config.n_owners;
        let placement = config.placement;
        MarketSession {
            genesis_wei: genesis
                .iter()
                .fold(U256::ZERO, |acc, (_, wei)| acc.wrapping_add(wei)),
            placement,
            config,
            wallet,
            owners,
            buyer: BuyerState {
                address: buyer_addr,
                ipfs_node: buyer_node,
                test,
            },
            contract: None,
            deploy_receipt: None,
            owner_recorders: vec![PhaseRecorder::new(); n],
            buyer_recorder: PhaseRecorder::new(),
            adversary,
            retrieved: Vec::new(),
        }
    }
}

/// One marketplace session's participants and progress, independent of the
/// substrate it runs on. See the module docs for how `ofl_core::engine`
/// (whole sessions) and [`Marketplace`]'s step methods (one click at a
/// time) drive it.
pub struct MarketSession {
    /// The world endpoint (shard) every piece of this market's client
    /// traffic is pinned to (copied from [`MarketConfig::placement`]).
    pub placement: EndpointId,
    /// Wei the market's genesis allocation funded (buyer, owners, and the
    /// adversary when there is one) — what ETH conservation checks live
    /// balances plus burn against.
    pub(crate) genesis_wei: U256,
    /// Session configuration.
    pub config: MarketConfig,
    /// Keystore holding the buyer's and every owner's keys (each user's
    /// MetaMask, collapsed into one keystore for the simulation).
    pub wallet: Wallet,
    /// The model owners.
    pub owners: Vec<OwnerState>,
    /// The model buyer.
    pub buyer: BuyerState,
    /// Typed binding for the deployed contract (after step 1).
    pub contract: Option<ModelMarketContract>,
    /// Deployment receipt.
    pub deploy_receipt: Option<Receipt>,
    /// Per-owner timing.
    pub owner_recorders: Vec<PhaseRecorder>,
    /// Buyer timing.
    pub buyer_recorder: PhaseRecorder,
    /// The funded non-participant adversary account (only when
    /// [`MarketConfig::fund_adversary`] asked for one) — the engine's
    /// mempool-watching front-runner signs with this key.
    pub adversary: Option<H160>,
    retrieved: Vec<RetrievedModel>,
}

impl MarketSession {
    // ------------------------------------------------------------------
    // Owner primitives (Train → Upload → SendCid state machine).
    // ------------------------------------------------------------------

    /// **Step 2 (training half)** — owner `i` trains locally
    /// ([`OwnerState::train`]) and returns the virtual time it would take.
    pub fn train_owner(&mut self, i: usize) -> SimDuration {
        self.owners[i].train(&self.config, i)
    }

    /// **Steps 2–3** — owner `i` pushes its model into the swarm and
    /// receives the CID. Returns the CID and the LAN transfer time.
    pub fn upload_owner(
        &mut self,
        endpoint: &mut Endpoint,
        i: usize,
    ) -> Result<(Cid, SimDuration), MarketError> {
        if self.owners[i].trained.is_none() {
            return Err(MarketError::StepOrder("train before upload"));
        }
        let owner = &self.owners[i];
        let billed = endpoint.ipfs_add(owner.ipfs_node, &owner.model_bytes);
        self.owners[i].cid = Some(billed.value.root.clone());
        Ok((billed.value.root, billed.cost))
    }

    /// Calldata for owner `i`'s `uploadCid` call.
    pub fn cid_calldata(&self, i: usize) -> Result<Vec<u8>, MarketError> {
        if self.contract.is_none() {
            return Err(MarketError::StepOrder("deploy before sending CIDs"));
        }
        let cid = self.owners[i]
            .cid
            .as_ref()
            .ok_or(MarketError::StepOrder("upload before sending CID"))?;
        Ok(ModelMarketContract::upload_cid_calldata(
            &cid.to_string_form(),
        ))
    }

    /// **Step 4 (submit half)** — broadcasts owner `i`'s CID transaction
    /// carrying `data` into the placement shard's mempool without
    /// blocking, returning the hash plus the wallet's signing-preflight
    /// cost (the caller charges it). Pair with
    /// [`MarketSession::finish_cid`].
    pub fn submit_cid(
        &self,
        endpoint: &mut Endpoint,
        i: usize,
        data: Vec<u8>,
    ) -> Result<(H256, SimDuration), MarketError> {
        let contract = self
            .contract
            .ok_or(MarketError::StepOrder("deploy before sending CIDs"))?;
        let from = self.owners[i].address;
        Ok(endpoint.submit_tx(
            &self.wallet,
            &from,
            Some(contract.address),
            U256::ZERO,
            data,
        )?)
    }

    /// **Step 4 (confirm half)** — records owner `i`'s mined `uploadCid`
    /// receipt, failing if it reverted on-chain.
    pub fn finish_cid(&mut self, i: usize, receipt: &Receipt) -> Result<(), MarketError> {
        if !receipt.is_success() {
            return Err(MarketError::TxFailed(format!("uploadCid[{i}]")));
        }
        self.owners[i].upload_receipt = Some(receipt.clone());
        Ok(())
    }

    // ------------------------------------------------------------------
    // Buyer primitives.
    // ------------------------------------------------------------------

    /// **Step 1 (confirm half)** — records the mined deployment receipt and
    /// the typed contract handle. (The submit half is just broadcasting
    /// [`ModelMarketContract::init_code`] from the buyer's account.)
    pub fn finish_deploy(&mut self, receipt: &Receipt) -> Result<(), MarketError> {
        if !receipt.is_success() {
            return Err(MarketError::TxFailed("deploy".into()));
        }
        self.contract = Some(ModelMarketContract::from_deploy_receipt(receipt)?);
        self.deploy_receipt = Some(receipt.clone());
        Ok(())
    }

    /// **Step 5** — reads every CID from the contract through the typed
    /// binding (free `eth_call`s, transient provider failures retried) and
    /// returns them with the total RPC time of the read: `cidCount` plus
    /// **one** batched `getCid` round trip.
    pub fn download_cids_computed(
        &self,
        endpoint: &mut Endpoint,
    ) -> Result<(Vec<String>, SimDuration), MarketError> {
        let contract = self
            .contract
            .ok_or(MarketError::StepOrder("deploy before download"))?;
        let buyer = self.buyer.address;
        let (cids, duration) = endpoint.eth_retry(|eth| contract.all_cids(eth, &buyer));
        Ok((cids?, duration))
    }

    /// **Step 6** — fetches every model from the swarm, verifies integrity
    /// (the CID *is* the hash), and attributes each back to its owner.
    /// Returns the retrieved count and the total bitswap transfer time.
    pub fn retrieve_models_computed(
        &mut self,
        endpoint: &mut Endpoint,
        cids: &[String],
    ) -> Result<(usize, SimDuration), MarketError> {
        self.retrieved.clear();
        // Each owner's CID in its text form, encoded once per call: a model
        // is attributed to the first owner whose CID reads exactly as the
        // contract's string.
        let mut owner_by_cid: HashMap<String, usize> = HashMap::new();
        for (i, owner) in self.owners.iter().enumerate() {
            if let Some(cid) = &owner.cid {
                owner_by_cid.entry(cid.to_string_form()).or_insert(i);
            }
        }
        let mut duration = SimDuration::ZERO;
        for cid_str in cids {
            let cid = Cid::parse(cid_str).map_err(|_| MarketError::ModelDecode)?;
            let billed = endpoint.ipfs_cat(self.buyer.ipfs_node, &cid);
            duration = duration.saturating_add(billed.cost);
            let (bytes, _stats) = billed.value.map_err(WorldError::Ipfs)?;
            let model = decode_model(&bytes).map_err(|_| MarketError::ModelDecode)?;
            // Attribute the model back to its owner by CID (for the data
            // weight and, later, the payment address).
            let owner_index = owner_by_cid.get(cid_str).copied();
            let weight = owner_index.map(|i| self.owners[i].data.len()).unwrap_or(1);
            self.retrieved.push(RetrievedModel {
                model,
                weight,
                owner_index,
            });
        }
        Ok((self.retrieved.len(), duration))
    }

    /// **Step 7 (aggregation half)** — one backend `/aggregate` call plus
    /// the PFNM matching and a test-set evaluation, all host-side, with the
    /// backend reached over `lan`. Returns the aggregation and its virtual
    /// duration (backend call + inference).
    pub fn aggregate_computed(
        &mut self,
        lan: &Link,
    ) -> Result<(Aggregation, SimDuration), MarketError> {
        let _t = PhaseTimer::start(HotPhase::Aggregate);
        if self.retrieved.is_empty() {
            return Err(MarketError::StepOrder("retrieve models before aggregating"));
        }
        let models: Vec<Mlp> = self.retrieved.iter().map(|r| r.model.clone()).collect();
        let weights: Vec<usize> = self.retrieved.iter().map(|r| r.weight).collect();
        // Payment recipients, in model order. A CID the buyer cannot map to
        // a known owner earns nothing (there is no address to pay).
        let recipients: Vec<Option<H160>> = self
            .retrieved
            .iter()
            .map(|r| r.owner_index.map(|i| self.owners[i].address))
            .collect();
        let full = match self.config.finalize {
            FinalizePolicy::PfnmLoo => aggregate_subset(
                &models,
                &weights,
                &(0..models.len()).collect::<Vec<_>>(),
                &self.config.pfnm,
                self.config.seed,
            )?,
            FinalizePolicy::FedAvgProportional => {
                let model = average_weights(&models, &weights).map_err(|e| match e {
                    AggregateError::NoModels => MarketError::Pfnm(pfnm::PfnmError::NoModels),
                    AggregateError::ShapeMismatch => {
                        MarketError::Pfnm(pfnm::PfnmError::DimensionMismatch)
                    }
                })?;
                pfnm::PfnmResult {
                    global_neurons: *self.config.train.dims.get(1).unwrap_or(&0),
                    assignments: Vec::new(),
                    model,
                }
            }
        };
        let test = &self.buyer.test;
        let accuracy = full.model.accuracy(&test.images, &test.labels);
        // The backend call: a 6-byte request, a 10-byte reply, and the
        // route's processing time.
        let duration = lan
            .rpc_round_trip(6, 10)
            .saturating_add(aggregate_route_time(&self.config))
            .saturating_add(self.config.buyer_compute.inference_time(test.len()));
        Ok((
            Aggregation {
                models,
                weights,
                recipients,
                result: full,
                accuracy,
            },
            duration,
        ))
    }

    /// **Step 7 (LOO half)** — the backend `/loo` call: re-aggregates the
    /// leave-one-out coalitions, prices contributions, and splits the
    /// budget. Returns the payment plan and the backend call's duration.
    pub fn loo_payments_computed(
        &mut self,
        lan: &Link,
        agg: &Aggregation,
    ) -> (LooPayments, SimDuration) {
        let _t = PhaseTimer::start(HotPhase::Aggregate);
        // The backend call: a 3-byte request, a 10-byte reply, and the
        // route's processing time.
        let duration = lan
            .rpc_round_trip(3, 10)
            .saturating_add(loo_route_time(&self.config));
        if self.config.finalize == FinalizePolicy::FedAvgProportional {
            // Linear-time pricing: each owner's contribution is the data
            // weight it brought; no leave-one-out coalitions are rerun.
            let contributions: Vec<f64> = agg.weights.iter().map(|&w| w as f64).collect();
            let amounts = allocate_payments(&contributions, &self.config.budget_wei)
                .expect("non-empty participant set");
            return (
                LooPayments {
                    drop_values: vec![agg.accuracy; agg.weights.len()],
                    contributions,
                    amounts,
                },
                duration,
            );
        }
        // Each coalition is a pure function of (models, weights, subset,
        // seed) with its own subset-tagged RNG, so the n re-aggregations run
        // as one fork/join batch; its item-ordered merge keeps the drop
        // values in owner order.
        let (config, test) = (&self.config, &self.buyer.test);
        let mut coalitions = loo_coalitions(agg.models.len());
        let drop_values = fork_join_mut(&mut coalitions, |_, subset| {
            match aggregate_subset(&agg.models, &agg.weights, subset, &config.pfnm, config.seed) {
                Ok(result) => result.model.accuracy(&test.images, &test.labels),
                Err(_) => 0.0,
            }
        });
        let report = LooReport::from_values(agg.accuracy, drop_values);
        let amounts = allocate_payments(&report.contributions, &self.config.budget_wei)
            .expect("non-empty participant set");
        (
            LooPayments {
                drop_values: report.drop_values,
                contributions: report.contributions,
                amounts,
            },
            duration,
        )
    }

    /// **Step 7 (payment half)** — signs one transfer per attributable
    /// recipient with consecutive nonces (so they can share a block). The
    /// signing environment — chain id, starting nonce, transfer gas
    /// estimate, base fee — comes from [`Endpoint::tx_env`] envelopes against
    /// the market's endpoint, never a local chain read. Returns
    /// `(recipient, amount, signed_tx)` rows ready to broadcast.
    pub fn build_payment_txs(
        &self,
        env: &TxEnv,
        agg: &Aggregation,
        loo: &LooPayments,
    ) -> Vec<(H160, U256, SignedTx)> {
        let buyer = self.buyer.address;
        let mut nonce = env.nonce;
        let key = self
            .wallet
            .account(&buyer)
            .expect("buyer key in keystore")
            .private_key;
        let mut txs = Vec::new();
        for (recipient, amount) in agg.recipients.iter().zip(&loo.amounts) {
            let Some(address) = recipient else { continue };
            let req = TxRequest {
                chain_id: env.chain_id,
                nonce,
                max_priority_fee_per_gas: U256::from(1_500_000_000u64),
                max_fee_per_gas: env
                    .base_fee
                    .wrapping_mul(&U256::from(2u64))
                    .wrapping_add(&U256::from(1_500_000_000u64)),
                gas_limit: env.gas_estimate,
                to: Some(*address),
                value: *amount,
                data: Vec::new(),
            };
            nonce += 1;
            let tx = sign_tx(req, &key).expect("valid buyer key");
            txs.push((*address, *amount, tx));
        }
        txs
    }

    /// Fetches the buyer's payment-signing environment (one transfer's
    /// worth of gas estimate) against the market's endpoint. Returns the
    /// environment — `None` when there is no attributable recipient to pay
    /// — plus the preflight's RPC cost for the caller to charge.
    pub fn payment_env(
        &self,
        endpoint: &mut Endpoint,
        agg: &Aggregation,
    ) -> Result<(Option<TxEnv>, SimDuration), MarketError> {
        let Some(first) = agg.recipients.iter().flatten().next().copied() else {
            return Ok((None, SimDuration::ZERO));
        };
        let (env, cost) = endpoint.tx_env(&self.buyer.address, Some(&first), &[])?;
        Ok((Some(env), cost))
    }

    /// Test accuracy of every owner's local model on the buyer's test set
    /// (0 for an owner that never trained) — the Fig 4 bars.
    pub fn local_accuracies(&self) -> Vec<f64> {
        let test = &self.buyer.test;
        self.owners
            .iter()
            .map(|o| {
                o.trained
                    .as_ref()
                    .map(|t| t.model.accuracy(&test.images, &test.labels))
                    .unwrap_or(0.0)
            })
            .collect()
    }

    /// Distills the finished session into the [`SessionReport`] feeding
    /// every figure and table of the paper's §4; `local_accuracies` is
    /// [`MarketSession::local_accuracies`].
    pub fn assemble_report(
        &self,
        agg: &Aggregation,
        loo: &LooPayments,
        local_accuracies: Vec<f64>,
        payments: Vec<PaymentRow>,
        total_sim_seconds: f64,
        rpc: ProviderMetrics,
    ) -> SessionReport {
        let mut gas = Vec::new();
        if let Some(d) = &self.deploy_receipt {
            gas.push(GasRow {
                label: "deploy".into(),
                gas_used: d.gas_used,
                fee_wei: d.fee,
            });
        }
        for (i, o) in self.owners.iter().enumerate() {
            if let Some(r) = &o.upload_receipt {
                gas.push(GasRow {
                    label: format!("uploadCid[{i}]"),
                    gas_used: r.gas_used,
                    fee_wei: r.fee,
                });
            }
        }
        for (i, p) in payments.iter().enumerate() {
            gas.push(GasRow {
                label: format!("payment[{i}]"),
                gas_used: p.receipt.gas_used,
                fee_wei: p.receipt.fee,
            });
        }
        SessionReport {
            local_accuracies,
            aggregated_accuracy: agg.accuracy,
            global_neurons: agg.result.global_neurons,
            loo_drop_accuracies: loo.drop_values.clone(),
            contributions: loo.contributions.clone(),
            payments,
            gas,
            owner_breakdowns: self.owner_recorders.iter().map(|r| r.breakdown()).collect(),
            buyer_breakdown: self.buyer_recorder.breakdown(),
            cids: self
                .owners
                .iter()
                .filter_map(|o| o.cid.as_ref().map(Cid::to_string_form))
                .collect(),
            total_sim_seconds,
            rpc,
        }
    }
}

/// One market on a private [`World`]: the paper's serial workflow
/// ([`Marketplace::run`]) and the DApp's step-at-a-time path, whose step
/// methods block in virtual time on each confirmation. Field access
/// passes through to the inner [`MarketSession`].
pub struct Marketplace {
    /// Blockchain + IPFS + clock.
    pub world: World,
    /// The session state (also reachable through `Deref`).
    pub session: MarketSession,
}

impl std::ops::Deref for Marketplace {
    type Target = MarketSession;
    fn deref(&self) -> &MarketSession {
        &self.session
    }
}

impl std::ops::DerefMut for Marketplace {
    fn deref_mut(&mut self) -> &mut MarketSession {
        &mut self.session
    }
}

impl Marketplace {
    /// Sets up the world: funds wallets, partitions data, spawns IPFS
    /// nodes, and builds the single-shard provider pool (with fault/quota
    /// injection when the config asks for it), as a one-market
    /// [`MultiMarket`]. A solo market always runs on shard 0, whatever
    /// placement the config names.
    pub fn new(config: MarketConfig) -> Marketplace {
        let config = MarketConfig {
            placement: EndpointId(0),
            ..config
        };
        Marketplace::from_solo(MultiMarket::new(vec![config]))
    }

    /// The one market of a one-market world.
    fn from_solo(mut market: MultiMarket) -> Marketplace {
        Marketplace {
            session: market.sessions.remove(0),
            world: market.world,
        }
    }

    /// **Step 1** — the buyer deploys `CidStorage`.
    pub fn deploy_contract(&mut self) -> Result<Receipt, MarketError> {
        let start = self.world.clock.now();
        let buyer = self.session.buyer.address;
        let receipt = self.world.send_and_confirm(
            self.session.placement,
            &self.session.wallet,
            &buyer,
            None,
            U256::ZERO,
            ModelMarketContract::init_code(),
        )?;
        self.session.finish_deploy(&receipt)?;
        self.session
            .buyer_recorder
            .add(buyer_phase::DEPLOY, self.world.clock.now().since(start));
        Ok(receipt)
    }

    /// **Step 2 (training half)** — owner `i` trains locally. Virtual time
    /// is charged from the owner's compute model; the real training runs on
    /// the host CPU.
    pub fn owner_train(&mut self, i: usize) {
        let duration = self.session.train_owner(i);
        self.world.clock.advance(duration);
        self.session.owner_recorders[i].add(owner_phase::TRAIN, duration);
    }

    /// **Steps 2–3** — owner `i` uploads its model to IPFS and receives the
    /// CID.
    pub fn owner_upload_model(&mut self, i: usize) -> Result<Cid, MarketError> {
        let mut endpoint = self.world.endpoint(self.session.placement);
        let (cid, duration) = self.session.upload_owner(&mut endpoint, i)?;
        self.world.clock.advance(duration);
        self.session.owner_recorders[i].add(owner_phase::UPLOAD, duration);
        Ok(cid)
    }

    /// **Step 4** — owner `i` sends its CID to the contract and blocks
    /// until it confirms.
    pub fn owner_send_cid(&mut self, i: usize) -> Result<Receipt, MarketError> {
        let start = self.world.clock.now();
        let data = self.session.cid_calldata(i)?;
        let contract = self
            .session
            .contract
            .ok_or(MarketError::StepOrder("deploy before sending CIDs"))?;
        let from = self.session.owners[i].address;
        let receipt = self.world.send_and_confirm(
            self.session.placement,
            &self.session.wallet,
            &from,
            Some(contract.address),
            U256::ZERO,
            data,
        )?;
        self.session.finish_cid(i, &receipt)?;
        self.session.owner_recorders[i]
            .add(owner_phase::SEND_CID, self.world.clock.now().since(start));
        Ok(receipt)
    }

    /// **Step 5** — the buyer downloads every CID from the contract. Free:
    /// only read calls.
    pub fn buyer_download_cids(&mut self) -> Result<Vec<String>, MarketError> {
        let mut endpoint = self.world.endpoint(self.session.placement);
        let (cids, duration) = self.session.download_cids_computed(&mut endpoint)?;
        self.world.clock.advance(duration);
        self.session
            .buyer_recorder
            .add(buyer_phase::DOWNLOAD_CIDS, duration);
        Ok(cids)
    }

    /// **Step 6** — the buyer retrieves every model from IPFS and verifies
    /// integrity (the CID *is* the hash).
    pub fn buyer_retrieve_models(&mut self, cids: &[String]) -> Result<usize, MarketError> {
        let mut endpoint = self.world.endpoint(self.session.placement);
        let (n, duration) = self.session.retrieve_models_computed(&mut endpoint, cids)?;
        self.world.clock.advance(duration);
        self.session
            .buyer_recorder
            .add(buyer_phase::RETRIEVE, duration);
        Ok(n)
    }

    /// **Step 7** — aggregate with PFNM on the backend, evaluate, compute
    /// LOO contributions, and pay every owner from the budget. Returns the
    /// full session report.
    pub fn buyer_aggregate_and_pay(&mut self) -> Result<SessionReport, MarketError> {
        // Aggregation on the backend workstation (Flask call).
        let lan = self.world.profile.lan;
        let (agg, agg_duration) = self.session.aggregate_computed(&lan)?;
        self.world.clock.advance(agg_duration);
        self.session
            .buyer_recorder
            .add(buyer_phase::AGGREGATE, agg_duration);

        // LOO: re-aggregate n leave-one-out coalitions (backend /loo call).
        let pay_start = self.world.clock.now();
        let (loo, loo_duration) = self.session.loo_payments_computed(&lan, &agg);
        self.world.clock.advance(loo_duration);

        // Payment transactions: one signing-environment preflight against
        // the market's endpoint, then consecutive nonces so they share a
        // block.
        let ep = self.session.placement;
        let (env, env_cost) = self
            .session
            .payment_env(&mut self.world.endpoint(ep), &agg)?;
        self.world.clock.advance(env_cost);
        let txs = match env {
            Some(env) => self.session.build_payment_txs(&env, &agg, &loo),
            None => Vec::new(),
        };
        let mut hashes = Vec::new();
        let mut paid: Vec<(H160, U256)> = Vec::new();
        for (address, amount, tx) in txs {
            let (result, cost) = self.world.endpoint(ep).broadcast_raw(&tx.encode());
            self.world.clock.advance(cost);
            let hash = result.map_err(|e| MarketError::TxFailed(format!("payment: {e}")))?;
            hashes.push(hash);
            paid.push((address, amount));
        }
        let payments = paid
            .into_iter()
            .zip(self.world.confirm(ep, &hashes)?)
            .map(|((address, amount_wei), receipt)| PaymentRow {
                address,
                amount_wei,
                receipt,
            })
            .collect();
        self.session.buyer_recorder.add(
            buyer_phase::PAYMENT,
            self.world.clock.now().since(pay_start),
        );

        Ok(self.session.assemble_report(
            &agg,
            &loo,
            self.session.local_accuracies(),
            payments,
            self.world.clock.elapsed_secs(),
            self.world.rpc_metrics(ep),
        ))
    }

    /// Runs the complete seven-step workflow on the event engine: the
    /// buyer deploys, then each owner in turn trains, uploads and sends
    /// its CID once the previous owner's transaction has confirmed, then
    /// the buyer downloads, retrieves, aggregates and pays.
    pub fn run(config: MarketConfig) -> Result<(Marketplace, SessionReport), MarketError> {
        let Marketplace { world, session } = Marketplace::new(config);
        let engine = EngineConfig {
            arrivals: Arrivals::OneAtATime,
            ..EngineConfig::default()
        };
        let (market, mut report) = MultiMarket {
            world,
            sessions: vec![session],
        }
        .run(&engine, &[])?;
        Ok((Marketplace::from_solo(market), report.sessions.remove(0)))
    }
}

/// PFNM over a subset of the retrieved models (the LOO value function).
fn aggregate_subset(
    models: &[Mlp],
    weights: &[usize],
    subset: &[usize],
    config: &PfnmConfig,
    seed: u64,
) -> Result<pfnm::PfnmResult, pfnm::PfnmError> {
    let sub_models: Vec<&Mlp> = subset.iter().map(|&i| &models[i]).collect();
    let sub_weights: Vec<usize> = subset.iter().map(|&i| weights[i]).collect();
    // Deterministic per-subset seed so LOO results are reproducible.
    let mut subset_tag: u64 = 0xcbf29ce484222325;
    for &i in subset {
        subset_tag = (subset_tag ^ i as u64).wrapping_mul(0x100000001b3);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ subset_tag);
    pfnm::aggregate(&sub_models, &sub_weights, config, &mut rng)
}

/// Processing time of the buyer backend's `/aggregate` route (the paper's
/// Flask server). It follows the finalize policy: PFNM+LOO is quadratic in
/// owners, FedAvg+proportional stays linear so fleet cells price
/// realistically at thousands of owners.
fn aggregate_route_time(config: &MarketConfig) -> SimDuration {
    match config.finalize {
        FinalizePolicy::PfnmLoo => aggregation_time(
            &config.buyer_compute,
            config.n_owners,
            *config.train.dims.get(1).unwrap_or(&100),
            config.n_test,
        ),
        FinalizePolicy::FedAvgProportional => fedavg_time(
            &config.buyer_compute,
            config.n_owners,
            &config.train.dims,
            config.n_test,
        ),
    }
}

/// Processing time of the buyer backend's `/loo` route.
fn loo_route_time(config: &MarketConfig) -> SimDuration {
    match config.finalize {
        FinalizePolicy::PfnmLoo => SimDuration::from_secs_f64(
            aggregate_route_time(config).as_secs_f64() * config.n_owners as f64,
        ),
        // Splitting the budget by data weight is one linear pass.
        FinalizePolicy::FedAvgProportional => {
            SimDuration::from_secs_f64(0.01 + config.n_owners as f64 * 1e-6)
        }
    }
}

/// Estimated backend time for one PFNM aggregation: Hungarian matching over
/// `n` clients of `hidden` neurons plus a test-set inference. Calibrated to
/// an A5000-class workstation: `n · hidden² · 900` matching flops at
/// 10¹² flop/s plus 50 ms of fixed overhead.
fn aggregation_time(
    compute: &ComputeModel,
    n_models: usize,
    hidden: usize,
    test_examples: usize,
) -> SimDuration {
    let matching_flops = n_models as f64 * (hidden as f64).powi(2) * 900.0;
    let matching = SimDuration::from_secs_f64(matching_flops / 1e12 + 0.05);
    matching.saturating_add(compute.inference_time(test_examples))
}

/// Estimated backend time for one FedAvg aggregation: a weighted sum over
/// every parameter of every model, plus a test-set inference — linear in
/// clients where PFNM's matching is quadratic-ish, which is what lets a
/// thousand-owner fleet cell finalize in bounded virtual time.
fn fedavg_time(
    compute: &ComputeModel,
    n_models: usize,
    dims: &[usize],
    test_examples: usize,
) -> SimDuration {
    let params: f64 = dims.windows(2).map(|w| (w[0] * w[1] + w[1]) as f64).sum();
    let averaging = SimDuration::from_secs_f64(n_models as f64 * params / 1e12 + 0.01);
    averaging.saturating_add(compute.inference_time(test_examples))
}

/// Renders the payment table in the paper's Table 1 format.
pub fn render_payment_table(payments: &[PaymentRow]) -> String {
    let mut out = String::from("Wallet Address                                Payment (ETH)\n");
    for p in payments {
        out.push_str(&format!(
            "{}  {}\n",
            p.address.to_checksum(),
            format_eth(&p.amount_wei, 8)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MarketConfig;

    fn run_small() -> (Marketplace, SessionReport) {
        Marketplace::run(MarketConfig::small_test()).expect("session completes")
    }

    #[test]
    fn full_session_end_to_end() {
        let (market, report) = run_small();
        let n = market.owners.len();
        assert_eq!(report.local_accuracies.len(), n);
        assert_eq!(report.loo_drop_accuracies.len(), n);
        assert_eq!(report.payments.len(), n);
        assert_eq!(report.cids.len(), n);
        // Fig 4 shape: aggregate beats the worst local model.
        assert!(report.aggregated_accuracy > report.worst_local_accuracy());
        // Table 1 invariant: payments sum exactly to the budget.
        assert_eq!(report.total_paid(), market.config.budget_wei);
        // Every payment landed on-chain.
        for p in &report.payments {
            assert!(p.receipt.is_success());
        }
    }

    #[test]
    fn owners_received_their_payments() {
        let (market, report) = run_small();
        let tenth = wei_per_eth().div_rem(&U256::from(10u64)).0;
        for (owner, payment) in market.owners.iter().zip(&report.payments) {
            let balance = market.world.chain(EndpointId(0)).balance(&owner.address);
            // genesis 0.1 ETH − uploadCid fee + payment
            let fee = owner.upload_receipt.as_ref().unwrap().fee;
            let expect = tenth.wrapping_sub(&fee).wrapping_add(&payment.amount_wei);
            assert_eq!(balance, expect);
        }
    }

    #[test]
    fn gas_report_shape_matches_fig5() {
        let (_, report) = run_small();
        let rows: Vec<(&str, u64)> = report
            .gas
            .iter()
            .map(|g| (g.label.as_str(), g.gas_used))
            .collect();
        // Fig 5 ordering: deployment carries the heaviest fee, the first
        // `uploadCid` sets `cidCount` from zero (later ones only reset
        // it), and a payment is a plain transfer. The exact figures pin
        // the SSTORE pricing the EVM computes across the state and a
        // frame's write map.
        assert_eq!(
            rows,
            vec![
                ("deploy", 151_184),
                ("uploadCid[0]", 112_976),
                ("uploadCid[1]", 95_876),
                ("uploadCid[2]", 95_876),
                ("uploadCid[3]", 95_876),
                ("payment[0]", 21_000),
                ("payment[1]", 21_000),
                ("payment[2]", 21_000),
                ("payment[3]", 21_000),
            ]
        );
    }

    #[test]
    fn blockchain_dominates_owner_time() {
        // Fig 7 claim: "the bulk of time consumption is attributed to
        // blockchain interactions".
        let (market, _) = run_small();
        for rec in &market.owner_recorders {
            let chain_t = rec.get(owner_phase::SEND_CID).as_secs_f64();
            let other = rec.total().as_secs_f64() - chain_t;
            assert!(chain_t > other, "blockchain {chain_t}s vs other {other}s");
        }
    }

    #[test]
    fn cids_on_chain_match_ipfs() {
        let (market, report) = run_small();
        // What the contract stores is exactly what IPFS assigned.
        for (owner, cid_str) in market.owners.iter().zip(&report.cids) {
            assert_eq!(owner.cid.as_ref().unwrap().to_string_form(), *cid_str);
            // CIDv0, 46 chars.
            assert_eq!(cid_str.len(), 46);
            assert!(cid_str.starts_with("Qm"));
        }
    }

    #[test]
    fn step_order_enforced() {
        let mut market = Marketplace::new(MarketConfig::small_test());
        assert!(matches!(
            market.owner_send_cid(0),
            Err(MarketError::StepOrder(_))
        ));
        assert!(matches!(
            market.buyer_download_cids(),
            Err(MarketError::StepOrder(_))
        ));
        assert!(matches!(
            market.owner_upload_model(0),
            Err(MarketError::StepOrder(_))
        ));
        assert!(matches!(
            market.buyer_aggregate_and_pay(),
            Err(MarketError::StepOrder(_))
        ));
    }

    #[test]
    fn event_stream_agrees_with_polling() {
        let mut market = Marketplace::new(MarketConfig::small_test());
        market.deploy_contract().unwrap();
        for i in 0..market.owners.len() {
            market.owner_train(i);
            market.owner_upload_model(i).unwrap();
            market.owner_send_cid(i).unwrap();
        }
        let polled = market.buyer_download_cids().unwrap();
        let contract = market.contract.unwrap();
        let mut watcher = crate::dapp::CidWatcher::new(contract, market.session.placement);
        let (watched, _) = watcher.poll(&mut market.world).unwrap();
        assert_eq!(polled, watched);
        assert_eq!(watched.len(), market.owners.len());
    }

    #[test]
    fn session_tolerates_dropped_owner() {
        // An owner who trains and uploads to IPFS but never sends the CID
        // simply doesn't participate: the buyer aggregates and pays the rest.
        let mut market = Marketplace::new(MarketConfig::small_test());
        market.deploy_contract().unwrap();
        let dropout = 1usize;
        for i in 0..market.owners.len() {
            market.owner_train(i);
            market.owner_upload_model(i).unwrap();
            if i != dropout {
                market.owner_send_cid(i).unwrap();
            }
        }
        let cids = market.buyer_download_cids().unwrap();
        assert_eq!(cids.len(), market.owners.len() - 1);
        market.buyer_retrieve_models(&cids).unwrap();
        let report = market.buyer_aggregate_and_pay().unwrap();
        assert!(report.aggregated_accuracy > 0.2);
        // Payments still exhaust the budget across all rows; the dropout's
        // own wallet received no uploadCid receipt.
        assert_eq!(report.total_paid(), market.config.budget_wei);
        assert!(market.owners[dropout].upload_receipt.is_none());
    }

    #[test]
    fn payment_table_renders_checksummed() {
        let (_, report) = run_small();
        let table = render_payment_table(&report.payments);
        assert!(table.contains("Wallet Address"));
        for p in &report.payments {
            assert!(table.contains(&p.address.to_checksum()));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (_, a) = run_small();
        let (_, b) = run_small();
        assert_eq!(a.aggregated_accuracy, b.aggregated_accuracy);
        assert_eq!(a.local_accuracies, b.local_accuracies);
        assert_eq!(a.cids, b.cids);
        assert_eq!(
            a.payments.iter().map(|p| p.amount_wei).collect::<Vec<_>>(),
            b.payments.iter().map(|p| p.amount_wei).collect::<Vec<_>>()
        );
    }

    #[test]
    fn blueprint_labels_namespace_participants() {
        // Two labelled blueprints of the same config must not collide on
        // addresses — that is what lets several markets share one chain.
        let a = SessionBlueprint::new(MarketConfig::small_test(), "");
        let b = SessionBlueprint::new(MarketConfig::small_test(), "m1/");
        let a_addrs: std::collections::HashSet<_> =
            a.genesis().iter().map(|(addr, _)| *addr).collect();
        assert!(b.genesis().iter().all(|(addr, _)| !a_addrs.contains(addr)));
        // The unlabelled blueprint reproduces the serial construction.
        let market = Marketplace::new(MarketConfig::small_test());
        assert_eq!(a.genesis()[0].0, market.buyer.address);
    }
}
