//! PFNM — Probabilistic Federated Neural Matching (Yurochkin et al.,
//! ICML 2019), the one-shot aggregation algorithm OFL-W3 demonstrates.
//!
//! Local MLPs trained on different silos have permutation-symmetric hidden
//! units: neuron 17 of client A may play the role of neuron 4 of client B.
//! Naive weight averaging destroys such models. PFNM instead posits a
//! Beta–Bernoulli-process model over *global* neurons and computes a MAP
//! matching: for each client, a Hungarian assignment matches its hidden
//! neurons to global atoms (or spawns new atoms), maximizing the Gaussian
//! posterior of matched weights plus an Indian-buffet-process popularity
//! prior. The aggregated network's hidden layer is the set of posterior-mean
//! atoms.
//!
//! This implementation covers single-hidden-layer MLPs — the paper's
//! experimental network (784, 100, 10). Each neuron is represented by its
//! concatenated input weights, bias, and output weights, as in the reference
//! implementation.

use crate::hungarian::solve_min;
use ofl_tensor::nn::{Linear, Mlp};
use ofl_tensor::tensor::Tensor;
use rand::seq::SliceRandom;
use rand::Rng;
use std::borrow::Borrow;

/// PFNM hyperparameters.
#[derive(Debug, Clone)]
pub struct PfnmConfig {
    /// Likelihood std σ of a local neuron around its global atom.
    pub sigma: f64,
    /// Prior std σ₀ of global atoms around zero.
    pub sigma0: f64,
    /// IBP rate γ₀ controlling how readily new atoms spawn.
    pub gamma: f64,
    /// Refinement passes after the initial greedy sweep.
    pub iterations: usize,
}

impl Default for PfnmConfig {
    fn default() -> Self {
        // Reference-implementation defaults: with σ = σ₀ the attach-vs-spawn
        // margin for two identical neurons is ‖v‖²/3 + ln(J−1)/… > 0, so
        // permutation-equivalent neurons merge, while orthogonal neurons
        // prefer fresh atoms.
        PfnmConfig {
            sigma: 1.0,
            sigma0: 1.0,
            gamma: 1.0,
            iterations: 2,
        }
    }
}

/// Errors from PFNM aggregation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PfnmError {
    /// No models supplied.
    NoModels,
    /// A model is not a single-hidden-layer MLP.
    UnsupportedArchitecture,
    /// Models have mismatched input/output dimensions.
    DimensionMismatch,
    /// `weights` does not hold one example count per model.
    WeightCountMismatch {
        /// Number of models supplied.
        models: usize,
        /// Number of weights supplied.
        weights: usize,
    },
}

impl core::fmt::Display for PfnmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PfnmError::NoModels => write!(f, "no local models to aggregate"),
            PfnmError::UnsupportedArchitecture => {
                write!(f, "PFNM requires single-hidden-layer MLPs")
            }
            PfnmError::DimensionMismatch => write!(f, "local models disagree on in/out dims"),
            PfnmError::WeightCountMismatch { models, weights } => {
                write!(f, "{weights} weights for {models} local models")
            }
        }
    }
}

impl std::error::Error for PfnmError {}

/// Outcome of PFNM aggregation.
#[derive(Debug, Clone)]
pub struct PfnmResult {
    /// The aggregated global model.
    pub model: Mlp,
    /// Number of global atoms (hidden width of the global model).
    pub global_neurons: usize,
    /// Per-client assignment: `assignments[j][l]` = global atom of client
    /// j's neuron l.
    pub assignments: Vec<Vec<usize>>,
}

/// One global atom's sufficient statistics.
#[derive(Debug, Clone)]
pub struct Atom {
    /// Σ v/σ² over matched neuron vectors (μ₀ = 0).
    pub weighted_sum: Vec<f64>,
    /// Number of matched clients.
    pub count: usize,
}

struct Problem {
    /// Per-client neuron matrices, row = [w_in ‖ b ‖ w_out].
    client_neurons: Vec<Vec<Vec<f64>>>,
    /// Per-client output biases and example counts (for the output bias).
    output_biases: Vec<Vec<f32>>,
    weights: Vec<f64>,
    in_dim: usize,
    hidden_total_dim: usize, // D + 1 + C
    out_dim: usize,
}

/// Aggregates local models with PFNM. `weights[j]` is client j's example
/// count (used for the output-bias average), one per model. `models` may
/// hold the models themselves or references to them, so a caller
/// aggregating a subset need not clone it.
pub fn aggregate(
    models: &[impl Borrow<Mlp>],
    weights: &[usize],
    config: &PfnmConfig,
    rng: &mut impl Rng,
) -> Result<PfnmResult, PfnmError> {
    let problem = prepare(models, weights)?;
    let j_total = problem.client_neurons.len();

    // Initial sweep over a random client order, then refinement passes that
    // unassign one client at a time and re-match it.
    let mut order: Vec<usize> = (0..j_total).collect();
    order.shuffle(rng);

    let mut atoms: Vec<Atom> = Vec::new();
    let mut assignments: Vec<Vec<usize>> = vec![Vec::new(); j_total];

    for &j in &order {
        let assignment = match_client(&problem.client_neurons[j], &atoms, j_total, config);
        apply_assignment(&problem.client_neurons[j], &assignment, &mut atoms, config);
        assignments[j] = assignment;
    }

    for _ in 0..config.iterations {
        order.shuffle(rng);
        for &j in &order {
            remove_client(
                &problem.client_neurons[j],
                &assignments[j],
                &mut atoms,
                config,
            );
            // Dropping empty atoms requires renumbering everyone.
            compact_atoms(&mut atoms, &mut assignments);
            let assignment = match_client(&problem.client_neurons[j], &atoms, j_total, config);
            apply_assignment(&problem.client_neurons[j], &assignment, &mut atoms, config);
            assignments[j] = assignment;
        }
    }

    let model = build_global(&problem, &atoms, config);
    Ok(PfnmResult {
        global_neurons: atoms.len(),
        model,
        assignments,
    })
}

fn prepare(models: &[impl Borrow<Mlp>], weights: &[usize]) -> Result<Problem, PfnmError> {
    let models: Vec<&Mlp> = models.iter().map(Borrow::borrow).collect();
    if models.is_empty() {
        return Err(PfnmError::NoModels);
    }
    if weights.len() != models.len() {
        return Err(PfnmError::WeightCountMismatch {
            models: models.len(),
            weights: weights.len(),
        });
    }
    if models.iter().any(|m| m.layers.len() != 2) {
        return Err(PfnmError::UnsupportedArchitecture);
    }
    let in_dim = models[0].layers[0].in_dim();
    let out_dim = models[0].layers[1].out_dim();
    for m in &models {
        if m.layers[0].in_dim() != in_dim || m.layers[1].out_dim() != out_dim {
            return Err(PfnmError::DimensionMismatch);
        }
    }
    let total_dim = in_dim + 1 + out_dim;
    let client_neurons = models
        .iter()
        .map(|m| {
            let hidden = &m.layers[0];
            let output = &m.layers[1];
            (0..hidden.out_dim())
                .map(|l| {
                    let mut v = Vec::with_capacity(total_dim);
                    v.extend(hidden.weight.row(l).iter().map(|&w| w as f64));
                    v.push(hidden.bias[l] as f64);
                    // Column l of the output matrix: weights leaving neuron l.
                    v.extend((0..out_dim).map(|c| output.weight.get(c, l) as f64));
                    v
                })
                .collect()
        })
        .collect();
    let output_biases = models.iter().map(|m| m.layers[1].bias.clone()).collect();
    let weights = weights.iter().map(|&w| w.max(1) as f64).collect();
    Ok(Problem {
        client_neurons,
        output_biases,
        weights,
        in_dim,
        hidden_total_dim: total_dim,
        out_dim,
    })
}

fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum()
}

/// Log-posterior gain of adding a neuron to an atom with statistics
/// (`weighted_sum`, `count`). `with_sum` is `‖weighted_sum + v/σ²‖²` for
/// the neuron's `v`, and `atom_norm2` the atom's `‖weighted_sum‖²`: the
/// caller computes both (see [`cost_matrix`]).
fn attach_benefit(
    with_sum: f64,
    atom: &Atom,
    atom_norm2: f64,
    j_total: usize,
    cfg: &PfnmConfig,
) -> f64 {
    let s2 = cfg.sigma * cfg.sigma;
    let s02 = cfg.sigma0 * cfg.sigma0;
    let denom_with = 1.0 / s02 + (atom.count as f64 + 1.0) / s2;
    let denom_without = 1.0 / s02 + atom.count as f64 / s2;
    let param = with_sum / denom_with - atom_norm2 / denom_without;
    // IBP popularity: atoms matched by many clients attract more.
    let c = (atom.count as f64).clamp(1e-10, j_total as f64 - 1e-10);
    let popularity = (c / (j_total as f64 - c)).ln();
    param + popularity
}

/// Log-posterior gain of spawning a fresh atom from a neuron whose `v/σ²`
/// is `scaled`.
fn new_atom_benefit(scaled: &[f64], j_total: usize, cfg: &PfnmConfig) -> f64 {
    let s2 = cfg.sigma * cfg.sigma;
    let s02 = cfg.sigma0 * cfg.sigma0;
    let denom = 1.0 / s02 + 1.0 / s2;
    let param = norm2(scaled) / denom;
    let penalty = (cfg.gamma / j_total as f64).ln();
    param + penalty
}

/// Cost of a matching slot no neuron may take: another neuron's private
/// "new atom" column.
const FORBIDDEN: f64 = 1e12;

/// Local neurons the cost kernel scores side by side: one client's `v/σ²`
/// vectors are packed `k`-major in panels of this many, one lane each.
const COST_LANES: usize = 4;

/// The min-cost matrix for matching one client's neurons (each `v` one
/// `[w_in ‖ b ‖ w_out]` row) to `atoms`: one row per neuron, columns are
/// the existing atoms then one private "new atom" slot per neuron.
///
/// Each atom's `‖weighted_sum‖²` and each neuron's `v/σ²` are computed
/// once, not once per (neuron, atom) pair. The pair sums
/// `‖weighted_sum + v/σ²‖²` are lane-packed: the neurons' `v/σ²` sit
/// `k`-major in panels of 4 f64 lanes (tail lanes zero-padded and
/// discarded), and one pass over an atom's `weighted_sum` advances every
/// lane of a panel. Each lane still sums `(w + x)²` from `+0.0` in `k`
/// order, so every entry is bit-identical to the per-pair loop.
pub fn cost_matrix(
    neurons: &[Vec<f64>],
    atoms: &[Atom],
    j_total: usize,
    cfg: &PfnmConfig,
) -> Vec<Vec<f64>> {
    let s2 = cfg.sigma * cfg.sigma;
    let l_local = neurons.len();
    let dim = neurons.first().map_or(0, Vec::len);
    let panel_len = dim * COST_LANES;
    let mut packed = vec![0.0f64; l_local.div_ceil(COST_LANES) * panel_len];
    let mut scaled = Vec::with_capacity(dim);
    let new_benefits: Vec<f64> = neurons
        .iter()
        .enumerate()
        .map(|(l, v)| {
            scaled.clear();
            scaled.extend(v.iter().map(|x| x / s2));
            let panel = &mut packed[l / COST_LANES * panel_len..][..panel_len];
            let lane = panel[l % COST_LANES..].iter_mut().step_by(COST_LANES);
            for (slot, &x) in lane.zip(&scaled) {
                *slot = x;
            }
            new_atom_benefit(&scaled, j_total, cfg)
        })
        .collect();
    // with_sums[l][a] = ‖atoms[a].weighted_sum + v_l/σ²‖².
    let mut with_sums = vec![vec![0.0f64; atoms.len()]; l_local];
    // `max(1)`: with no neurons, or zero-width ones, there is no panel to
    // visit, but the chunk width must not be zero.
    for (p, panel) in packed.chunks_exact(panel_len.max(1)).enumerate() {
        let (panel, _) = panel.as_chunks::<COST_LANES>();
        let lanes = &mut with_sums[p * COST_LANES..l_local.min((p + 1) * COST_LANES)];
        for (a, atom) in atoms.iter().enumerate() {
            let mut acc = [0.0f64; COST_LANES];
            for (&w, xs) in atom.weighted_sum.iter().zip(panel) {
                for (sum, &x) in acc.iter_mut().zip(xs) {
                    let s = w + x;
                    *sum += s * s;
                }
            }
            // Read the lanes out of a copy: a partial read of `acc` itself
            // would keep it on the stack for the whole `k` loop.
            let sums = acc;
            for (row, &sum) in lanes.iter_mut().zip(&sums) {
                row[a] = sum;
            }
        }
    }
    let atom_norms: Vec<f64> = atoms.iter().map(|a| norm2(&a.weighted_sum)).collect();
    with_sums
        .into_iter()
        .zip(new_benefits)
        .enumerate()
        .map(|(l, (sums, new_benefit))| {
            let mut row = Vec::with_capacity(atoms.len() + l_local);
            for ((atom, &atom_norm2), with_sum) in atoms.iter().zip(&atom_norms).zip(sums) {
                row.push(-attach_benefit(with_sum, atom, atom_norm2, j_total, cfg));
            }
            for l2 in 0..l_local {
                row.push(if l2 == l { -new_benefit } else { FORBIDDEN });
            }
            row
        })
        .collect()
}

/// Solves the max-benefit matching of one client's neurons to atoms or
/// fresh slots.
fn match_client(
    neurons: &[Vec<f64>],
    atoms: &[Atom],
    j_total: usize,
    cfg: &PfnmConfig,
) -> Vec<usize> {
    let l_global = atoms.len();
    if neurons.is_empty() {
        return Vec::new();
    }
    let cost = cost_matrix(neurons, atoms, j_total, cfg);
    let assignment = solve_min(&cost);
    // Renumber fresh-slot columns into new atom ids (appended in order).
    let mut next_new = l_global;
    assignment
        .into_iter()
        .map(|c| {
            if c < l_global {
                c
            } else {
                let id = next_new;
                next_new += 1;
                id
            }
        })
        .collect()
}

fn apply_assignment(
    neurons: &[Vec<f64>],
    assignment: &[usize],
    atoms: &mut Vec<Atom>,
    cfg: &PfnmConfig,
) {
    let s2 = cfg.sigma * cfg.sigma;
    for (l, &atom_id) in assignment.iter().enumerate() {
        if atom_id >= atoms.len() {
            debug_assert_eq!(atom_id, atoms.len(), "new atoms append in order");
            atoms.push(Atom {
                weighted_sum: vec![0.0; neurons[l].len()],
                count: 0,
            });
        }
        let atom = &mut atoms[atom_id];
        for (s, &x) in atom.weighted_sum.iter_mut().zip(&neurons[l]) {
            *s += x / s2;
        }
        atom.count += 1;
    }
}

fn remove_client(neurons: &[Vec<f64>], assignment: &[usize], atoms: &mut [Atom], cfg: &PfnmConfig) {
    let s2 = cfg.sigma * cfg.sigma;
    for (l, &atom_id) in assignment.iter().enumerate() {
        let atom = &mut atoms[atom_id];
        for (s, &x) in atom.weighted_sum.iter_mut().zip(&neurons[l]) {
            *s -= x / s2;
        }
        atom.count -= 1;
    }
}

/// Drops zero-count atoms and renumbers every client's assignment.
fn compact_atoms(atoms: &mut Vec<Atom>, assignments: &mut [Vec<usize>]) {
    let mut remap = vec![usize::MAX; atoms.len()];
    let mut kept = 0usize;
    for (i, atom) in atoms.iter().enumerate() {
        if atom.count > 0 {
            remap[i] = kept;
            kept += 1;
        }
    }
    atoms.retain(|a| a.count > 0);
    for assignment in assignments.iter_mut() {
        for a in assignment.iter_mut() {
            if *a < remap.len() && remap[*a] != usize::MAX {
                *a = remap[*a];
            }
            // Atoms belonging to the client being re-matched are handled by
            // the caller (its assignment is overwritten immediately after).
        }
    }
}

/// Builds the global MLP from atom posterior means.
fn build_global(problem: &Problem, atoms: &[Atom], cfg: &PfnmConfig) -> Mlp {
    let s2 = cfg.sigma * cfg.sigma;
    let s02 = cfg.sigma0 * cfg.sigma0;
    let h = atoms.len();
    let d = problem.in_dim;
    let c = problem.out_dim;
    let mut hidden_w = Tensor::zeros(h, d);
    let mut hidden_b = vec![0.0f32; h];
    let mut output_w = Tensor::zeros(c, h);
    for (i, atom) in atoms.iter().enumerate() {
        let precision = 1.0 / s02 + atom.count as f64 / s2;
        for (k, &s) in atom.weighted_sum.iter().enumerate() {
            let mean = (s / precision) as f32;
            if k < d {
                hidden_w.set(i, k, mean);
            } else if k == d {
                hidden_b[i] = mean;
            } else {
                output_w.set(k - d - 1, i, mean);
            }
        }
    }
    debug_assert_eq!(problem.hidden_total_dim, d + 1 + c);
    // Output bias: data-weighted average of local output biases.
    let total_weight: f64 = problem.weights.iter().sum();
    let mut output_b = vec![0.0f32; c];
    for (biases, &w) in problem.output_biases.iter().zip(&problem.weights) {
        for (o, &b) in output_b.iter_mut().zip(biases) {
            *o += (b as f64 * w / total_weight) as f32;
        }
    }
    Mlp {
        layers: vec![
            Linear {
                weight: hidden_w,
                bias: hidden_b,
            },
            Linear {
                weight: output_w,
                bias: output_b,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{train_local, TrainConfig};
    use ofl_data::{mnist, partition};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_train_config(seed: u64) -> TrainConfig {
        TrainConfig {
            dims: vec![784, 50, 10],
            batch_size: 64,
            epochs: 4,
            seed,
            ..TrainConfig::default()
        }
    }

    /// The cost matrix as the plain per-pair formulas write it: for each
    /// (neuron, atom) pair, `v/σ²`, the atom norm and `‖w + v/σ²‖²` from
    /// scratch, summed in `k` order. The hoisted, lane-packed
    /// [`cost_matrix`] must match it bit for bit.
    fn per_pair_cost_matrix(
        neurons: &[Vec<f64>],
        atoms: &[Atom],
        j_total: usize,
        cfg: &PfnmConfig,
    ) -> Vec<Vec<f64>> {
        let s2 = cfg.sigma * cfg.sigma;
        let s02 = cfg.sigma0 * cfg.sigma0;
        let attach = |v: &[f64], atom: &Atom| {
            let denom_with = 1.0 / s02 + (atom.count as f64 + 1.0) / s2;
            let denom_without = 1.0 / s02 + atom.count as f64 / s2;
            let mut with_sum = 0.0;
            for (i, &x) in v.iter().enumerate() {
                let s = atom.weighted_sum[i] + x / s2;
                with_sum += s * s;
            }
            let param = with_sum / denom_with - norm2(&atom.weighted_sum) / denom_without;
            let c = (atom.count as f64).clamp(1e-10, j_total as f64 - 1e-10);
            param + (c / (j_total as f64 - c)).ln()
        };
        let spawn = |v: &[f64]| {
            let denom = 1.0 / s02 + 1.0 / s2;
            let param = v.iter().map(|x| (x / s2) * (x / s2)).sum::<f64>() / denom;
            param + (cfg.gamma / j_total as f64).ln()
        };
        neurons
            .iter()
            .enumerate()
            .map(|(l, v)| {
                let mut row: Vec<f64> = atoms.iter().map(|a| -attach(v, a)).collect();
                row.extend(
                    (0..neurons.len()).map(|l2| if l2 == l { -spawn(v) } else { FORBIDDEN }),
                );
                row
            })
            .collect()
    }

    #[test]
    fn hoisted_cost_kernel_matches_per_pair_formula_bit_for_bit() {
        // σ ≠ 1 so the hoisted division by σ² actually rounds.
        let cfg = PfnmConfig {
            sigma: 0.7,
            sigma0: 1.3,
            ..PfnmConfig::default()
        };
        let (j_total, dim) = (6, 795);
        let mut rng = StdRng::seed_from_u64(15);
        let mut vector =
            |scale: f64| -> Vec<f64> { (0..dim).map(|_| rng.gen_range(-scale..scale)).collect() };
        let atoms: Vec<Atom> = [0, 1, j_total - 1, 2, 1, j_total - 1]
            .into_iter()
            .map(|count| Atom {
                weighted_sum: vector(3.0),
                count,
            })
            .collect();
        let bits = |m: &[Vec<f64>]| -> Vec<Vec<u64>> {
            m.iter()
                .map(|row| row.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        // Neuron counts around the lane width: none, one lane, a partial
        // panel, one full panel, a full panel plus one, and several panels.
        for n_neurons in [0, 1, 3, 4, 5, 7, 20] {
            let neurons: Vec<Vec<f64>> = (0..n_neurons).map(|_| vector(1.0)).collect();
            // The first client matched sees no atoms yet.
            for atoms in [&atoms[..0], &atoms[..]] {
                let hoisted = cost_matrix(&neurons, atoms, j_total, &cfg);
                let reference = per_pair_cost_matrix(&neurons, atoms, j_total, &cfg);
                assert_eq!(hoisted.len(), neurons.len());
                for row in &hoisted {
                    assert_eq!(row.len(), atoms.len() + neurons.len());
                }
                assert_eq!(
                    bits(&hoisted),
                    bits(&reference),
                    "{n_neurons} neurons × {} atoms",
                    atoms.len()
                );
            }
        }
    }

    #[test]
    fn identical_models_collapse_to_same_width() {
        // J copies of one model must match neuron-for-neuron: global width
        // equals local width.
        let (train, _) = mnist::generate(20, 300, 10);
        let trained = train_local(&train, &small_train_config(1));
        let models = vec![trained.model.clone(); 5];
        let mut rng = StdRng::seed_from_u64(0);
        let result = aggregate(&models, &[300; 5], &PfnmConfig::default(), &mut rng).unwrap();
        assert_eq!(result.global_neurons, 50);
        // All clients share the same assignment pattern.
        for j in 1..5 {
            assert_eq!(result.assignments[j], result.assignments[0]);
        }
    }

    #[test]
    fn identical_models_roundtrip_accuracy() {
        // Aggregating J identical models must preserve their predictions
        // (posterior mean shrinks weights slightly toward 0; with σ₀ ≫ σ the
        // effect is negligible).
        let (train, test) = mnist::generate(21, 400, 200);
        let trained = train_local(&train, &small_train_config(2));
        let base_acc = trained.model.accuracy(&test.images, &test.labels);
        let models = vec![trained.model.clone(); 4];
        let mut rng = StdRng::seed_from_u64(1);
        let result = aggregate(&models, &[400; 4], &PfnmConfig::default(), &mut rng).unwrap();
        let agg_acc = result.model.accuracy(&test.images, &test.labels);
        assert!(
            (agg_acc - base_acc).abs() < 0.05,
            "base {base_acc} vs aggregated {agg_acc}"
        );
    }

    #[test]
    fn permuted_model_matches_original() {
        // A hidden-permuted clone is functionally identical; PFNM must align
        // it back onto the original's atoms (width stays ~local width).
        let (train, test) = mnist::generate(22, 300, 150);
        let trained = train_local(&train, &small_train_config(3));
        let original = trained.model.clone();
        // Permute hidden neurons.
        let h = original.layers[0].out_dim();
        let perm: Vec<usize> = (0..h).rev().collect();
        let mut permuted = original.clone();
        for (new_i, &old_i) in perm.iter().enumerate() {
            for k in 0..original.layers[0].in_dim() {
                let v = original.layers[0].weight.get(old_i, k);
                permuted.layers[0].weight.set(new_i, k, v);
            }
            permuted.layers[0].bias[new_i] = original.layers[0].bias[old_i];
            for c in 0..original.layers[1].out_dim() {
                let v = original.layers[1].weight.get(c, old_i);
                permuted.layers[1].weight.set(c, new_i, v);
            }
        }
        // Sanity: same function.
        assert_eq!(
            original.predict(&test.images),
            permuted.predict(&test.images)
        );
        let mut rng = StdRng::seed_from_u64(2);
        let result = aggregate(
            &[original.clone(), permuted],
            &[300, 300],
            &PfnmConfig::default(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(result.global_neurons, h, "permutation must be recovered");
        let agg_acc = result.model.accuracy(&test.images, &test.labels);
        let base_acc = original.accuracy(&test.images, &test.labels);
        assert!((agg_acc - base_acc).abs() < 0.05);
    }

    #[test]
    fn heterogeneous_aggregation_beats_worst_local() {
        // The Fig 4 shape: PFNM's aggregate outperforms the weakest local
        // model by a wide margin under non-IID data.
        let (train, test) = mnist::generate(23, 2000, 400);
        let mut rng = StdRng::seed_from_u64(3);
        let silos = partition::dirichlet(&train, 5, 10, 0.5, &mut rng);
        let mut models = Vec::new();
        let mut weights = Vec::new();
        let mut local_accs = Vec::new();
        for (i, silo) in silos.iter().enumerate() {
            if silo.is_empty() {
                continue;
            }
            let trained = train_local(silo, &small_train_config(10 + i as u64));
            local_accs.push(trained.model.accuracy(&test.images, &test.labels));
            weights.push(trained.n_examples);
            models.push(trained.model);
        }
        let result = aggregate(&models, &weights, &PfnmConfig::default(), &mut rng).unwrap();
        let agg = result.model.accuracy(&test.images, &test.labels);
        let worst = local_accs.iter().cloned().fold(1.0f64, f64::min);
        let best = local_accs.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            agg > worst + 0.1,
            "aggregate {agg} vs worst local {worst} (best {best})"
        );
    }

    #[test]
    fn global_width_bounded_and_gamma_controls_it() {
        // Width lies in [H, J·H]; shrinking the IBP rate γ forces merging
        // (fewer atoms), growing it allows more. Independently initialized
        // local models have mostly dissimilar neurons, so at γ = 1 the width
        // sits near the J·H ceiling — the PFNM paper reports the same
        // roughly-linear growth with J for MNIST MLPs.
        let (train, _) = mnist::generate(24, 1500, 10);
        let mut rng = StdRng::seed_from_u64(4);
        let silos = partition::iid(&train, 6, &mut rng);
        let models: Vec<Mlp> = silos
            .iter()
            .enumerate()
            .map(|(i, s)| train_local(s, &small_train_config(30 + i as u64)).model)
            .collect();
        let weights: Vec<usize> = silos.iter().map(|s| s.len()).collect();
        let default = aggregate(&models, &weights, &PfnmConfig::default(), &mut rng).unwrap();
        assert!(default.global_neurons >= 50);
        assert!(default.global_neurons <= 6 * 50);
        // A strong merge prior collapses the width substantially.
        let merging = PfnmConfig {
            gamma: 1e-12,
            ..PfnmConfig::default()
        };
        let merged = aggregate(&models, &weights, &merging, &mut rng).unwrap();
        assert!(
            merged.global_neurons < default.global_neurons,
            "γ→0 width {} !< default width {}",
            merged.global_neurons,
            default.global_neurons
        );
        assert!(merged.global_neurons >= 50);
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(
            aggregate(&[] as &[Mlp], &[], &PfnmConfig::default(), &mut rng).unwrap_err(),
            PfnmError::NoModels
        );
        let deep = Mlp::new(&[10, 8, 8, 2], &mut rng);
        assert_eq!(
            aggregate(&[deep], &[1], &PfnmConfig::default(), &mut rng).unwrap_err(),
            PfnmError::UnsupportedArchitecture
        );
        let a = Mlp::new(&[10, 8, 2], &mut rng);
        let b = Mlp::new(&[12, 8, 2], &mut rng);
        assert_eq!(
            aggregate(&[a, b], &[1, 1], &PfnmConfig::default(), &mut rng).unwrap_err(),
            PfnmError::DimensionMismatch
        );
    }

    #[test]
    fn rejects_a_weight_count_that_does_not_match_the_models() {
        // One example count per model: a short or long list is an error,
        // not a silent switch to equal weights.
        let mut rng = StdRng::seed_from_u64(6);
        let models: Vec<Mlp> = (0..3).map(|_| Mlp::new(&[10, 4, 2], &mut rng)).collect();
        for weights in [&[][..], &[5, 5][..], &[5, 5, 5, 5][..]] {
            let err = aggregate(&models, weights, &PfnmConfig::default(), &mut rng).unwrap_err();
            assert_eq!(
                err,
                PfnmError::WeightCountMismatch {
                    models: 3,
                    weights: weights.len()
                }
            );
            assert_eq!(
                err.to_string(),
                format!("{} weights for 3 local models", weights.len())
            );
        }
        assert!(aggregate(&models, &[5, 5, 5], &PfnmConfig::default(), &mut rng).is_ok());
    }

    #[test]
    fn assignments_are_valid_permutation_fragments() {
        let (train, _) = mnist::generate(25, 600, 10);
        let mut rng = StdRng::seed_from_u64(6);
        let silos = partition::iid(&train, 3, &mut rng);
        let models: Vec<Mlp> = silos
            .iter()
            .enumerate()
            .map(|(i, s)| train_local(s, &small_train_config(40 + i as u64)).model)
            .collect();
        let result = aggregate(&models, &[200; 3], &PfnmConfig::default(), &mut rng).unwrap();
        for assignment in &result.assignments {
            assert_eq!(assignment.len(), 50);
            // No client maps two neurons to the same atom.
            let distinct: std::collections::HashSet<_> = assignment.iter().collect();
            assert_eq!(distinct.len(), assignment.len());
            for &a in assignment {
                assert!(a < result.global_neurons);
            }
        }
    }
}
