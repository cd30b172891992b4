//! **Ablation A4** — LOO vs Monte-Carlo Shapley payment allocation.
//!
//! The incentive function is pluggable in OFL-W3's Step 7; the paper uses
//! LOO "for illustration". This ablation pays the same ten owners under
//! both mechanisms and compares the allocations and their cost (value-
//! function evaluations, i.e. re-aggregations the buyer must run).
//!
//! Run: `cargo run -p ofl-bench --release --bin ablation_incentives`

use ofl_bench::{header, write_record};
use ofl_data::{mnist, partition};
use ofl_fl::baselines::train_all_silos;
use ofl_fl::client::TrainConfig;
use ofl_fl::pfnm::{aggregate, PfnmConfig};
use ofl_incentive::{allocate_payments, loo_scores, shapley_monte_carlo};
use ofl_primitives::u256::U256;
use ofl_primitives::{format_eth, wei_per_eth};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::cell::RefCell;
use std::collections::HashMap;

#[derive(Serialize)]
struct Record {
    loo_payments_eth: Vec<String>,
    shapley_payments_eth: Vec<String>,
    loo_evaluations: usize,
    shapley_evaluations: usize,
    rank_agreement: f64,
}

fn main() {
    header("Ablation A4: LOO vs Monte-Carlo Shapley payments");
    let n_owners = 10usize;
    let budget = wei_per_eth().div_rem(&U256::from(100u64)).0; // 0.01 ETH
    let (train, test) = mnist::generate(42, 3_000, 800);
    let mut rng = StdRng::seed_from_u64(5);
    let silos = partition::dirichlet(&train, n_owners, 10, 0.5, &mut rng);
    let cfg = TrainConfig {
        dims: vec![784, 50, 10],
        epochs: 5,
        ..TrainConfig::default()
    };
    let trained = train_all_silos(&silos, &cfg);
    let weights: Vec<usize> = trained.iter().map(|t| t.n_examples).collect();
    let models: Vec<_> = trained.into_iter().map(|t| t.model).collect();
    let n = models.len();

    // Cached value function: subsets recur across permutations.
    let cache: RefCell<HashMap<Vec<usize>, f64>> = RefCell::new(HashMap::new());
    let evals = RefCell::new(0usize);
    let value = |subset: &[usize]| -> f64 {
        if subset.is_empty() {
            return 0.1; // random guessing on 10 classes
        }
        let key = subset.to_vec();
        if let Some(&v) = cache.borrow().get(&key) {
            return v;
        }
        *evals.borrow_mut() += 1;
        let sub_models: Vec<_> = subset.iter().map(|&i| &models[i]).collect();
        let sub_weights: Vec<usize> = subset.iter().map(|&i| weights[i]).collect();
        let mut rng = StdRng::seed_from_u64(1234);
        let acc = aggregate(&sub_models, &sub_weights, &PfnmConfig::default(), &mut rng)
            .map(|r| r.model.accuracy(&test.images, &test.labels))
            .unwrap_or(0.0);
        cache.borrow_mut().insert(key, acc);
        acc
    };

    // LOO.
    let loo = loo_scores(n, |s| value(s));
    let loo_evals = *evals.borrow();
    let loo_pay = allocate_payments(&loo.contributions, &budget).expect("owners present");

    // Monte-Carlo Shapley (8 permutations).
    *evals.borrow_mut() = 0;
    let mut rng2 = StdRng::seed_from_u64(6);
    let shapley = shapley_monte_carlo(n, 8, &mut rng2, |s| value(s));
    let shapley_evals = *evals.borrow();
    let shapley_pay = allocate_payments(&shapley, &budget).expect("owners present");

    println!(
        "\n{:<8} {:>16} {:>16} {:>12} {:>12}",
        "Owner", "LOO (ETH)", "Shapley (ETH)", "LOO score", "Shapley"
    );
    for i in 0..n {
        println!(
            "{:<8} {:>16} {:>16} {:>+12.4} {:>+12.4}",
            i,
            format_eth(&loo_pay[i], 8),
            format_eth(&shapley_pay[i], 8),
            loo.contributions[i],
            shapley[i]
        );
    }

    // Spearman-ish agreement: fraction of pairs ranked the same way.
    let mut agree = 0usize;
    let mut pairs = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            pairs += 1;
            let l = loo.contributions[i] >= loo.contributions[j];
            let s = shapley[i] >= shapley[j];
            if l == s {
                agree += 1;
            }
        }
    }
    let agreement = agree as f64 / pairs as f64;
    println!(
        "\nvalue-function evaluations: LOO {loo_evals} (n+1), Shapley {shapley_evals} \
         (≤ samples×n, cached)"
    );
    println!(
        "pairwise rank agreement between mechanisms: {:.0} %",
        agreement * 100.0
    );
    println!(
        "takeaway: LOO costs {loo_evals} re-aggregations and approximates the \
         Shapley ranking at a fraction of its cost — a reasonable demo choice."
    );

    write_record(
        "ablation_incentives",
        &Record {
            loo_payments_eth: loo_pay.iter().map(|p| format_eth(p, 8)).collect(),
            shapley_payments_eth: shapley_pay.iter().map(|p| format_eth(p, 8)).collect(),
            loo_evaluations: loo_evals,
            shapley_evaluations: shapley_evals,
            rank_agreement: agreement,
        },
    );
}
