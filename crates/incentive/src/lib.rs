//! # ofl-incentive
//!
//! Incentive mechanisms for OFL-W3's Step 7: after aggregating the retrieved
//! models, the model buyer "assesses each participant's marginal
//! contribution, like Leave-one-out (LOO), to pay the calculated tokens".
//!
//! A **value function** `v(S)` maps a participant subset to a utility
//! (test accuracy of the model aggregated from that subset). This crate
//! computes contribution scores from any value function:
//!
//! - [`loo_scores`]: the paper's mechanism — `v(N) − v(N∖{i})`; its
//!   coalitions ([`loo_coalitions`]) may also be evaluated apart and
//!   folded with [`LooReport::from_values`].
//! - [`shapley_monte_carlo`]: sampled Shapley values, the fairness-axiomatic
//!   alternative benchmarked in ablation A4.
//!
//! and converts scores into on-chain payments with
//! [`allocate_payments`], reproducing Table 1.

#![forbid(unsafe_code)]

use ofl_primitives::u256::U256;
use rand::seq::SliceRandom;
use rand::Rng;

/// A per-participant leave-one-out report.
#[derive(Debug, Clone)]
pub struct LooReport {
    /// Utility of the full coalition, `v(N)`.
    pub full_value: f64,
    /// `drop_value[i] = v(N ∖ {i})` — the series plotted in the paper's
    /// Fig 6 (high drop-value ⇒ participant i mattered little).
    pub drop_values: Vec<f64>,
    /// Marginal contributions `max(0, v(N) − v(N∖{i}))`… raw (can be
    /// negative before clamping).
    pub contributions: Vec<f64>,
}

impl LooReport {
    /// Builds the report from `v(N)` and the drop values `v(N∖{i})`, in
    /// participant order.
    pub fn from_values(full_value: f64, drop_values: Vec<f64>) -> LooReport {
        let contributions = drop_values.iter().map(|&v| full_value - v).collect();
        LooReport {
            full_value,
            drop_values,
            contributions,
        }
    }
}

/// The `n` leave-one-out coalitions: entry `i` is `N∖{i}`, ascending. Each
/// is independent of the others, so a caller may evaluate them in any
/// order or in parallel and hand the values, in participant order, to
/// [`LooReport::from_values`].
pub fn loo_coalitions(n: usize) -> Vec<Vec<usize>> {
    (0..n)
        .map(|i| (0..n).filter(|&j| j != i).collect())
        .collect()
}

/// Computes leave-one-out contributions over `n` participants.
///
/// `value` is called with participant-index subsets; it is invoked once with
/// the full set and once per leave-one-out subset (n+1 evaluations total).
pub fn loo_scores(n: usize, mut value: impl FnMut(&[usize]) -> f64) -> LooReport {
    let full: Vec<usize> = (0..n).collect();
    let full_value = value(&full);
    let drop_values = loo_coalitions(n).iter().map(|s| value(s)).collect();
    LooReport::from_values(full_value, drop_values)
}

/// Monte-Carlo Shapley estimation: averages marginal contributions over
/// `samples` random permutations. Costs `samples × n` value evaluations.
pub fn shapley_monte_carlo(
    n: usize,
    samples: usize,
    rng: &mut impl Rng,
    mut value: impl FnMut(&[usize]) -> f64,
) -> Vec<f64> {
    let mut scores = vec![0.0f64; n];
    let empty_value = value(&[]);
    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..samples {
        order.shuffle(rng);
        let mut prefix: Vec<usize> = Vec::with_capacity(n);
        let mut prev = empty_value;
        for &i in &order {
            prefix.push(i);
            // Keep the subset sorted so value functions may cache by key.
            let mut key = prefix.clone();
            key.sort_unstable();
            let cur = value(&key);
            scores[i] += cur - prev;
            prev = cur;
        }
    }
    for s in &mut scores {
        *s /= samples as f64;
    }
    scores
}

/// Errors from payment allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PaymentError {
    /// No participants.
    NoParticipants,
}

impl core::fmt::Display for PaymentError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PaymentError::NoParticipants => write!(f, "no participants to pay"),
        }
    }
}

impl std::error::Error for PaymentError {}

/// Splits `budget` (wei) across participants proportionally to their
/// non-negative contribution scores — the computation behind the paper's
/// Table 1.
///
/// Negative scores clamp to zero (a participant cannot owe money). If every
/// score is ≤ 0, the budget splits uniformly (everyone supplied a model in
/// good faith). Integer division dust (at most `n−1` wei) is assigned to the
/// highest scorer so the payments sum exactly to `budget`.
pub fn allocate_payments(scores: &[f64], budget: &U256) -> Result<Vec<U256>, PaymentError> {
    if scores.is_empty() {
        return Err(PaymentError::NoParticipants);
    }
    let clamped: Vec<f64> = scores.iter().map(|&s| s.max(0.0)).collect();
    let total: f64 = clamped.iter().sum();
    let weights: Vec<f64> = if total <= 0.0 {
        vec![1.0 / scores.len() as f64; scores.len()]
    } else {
        clamped.iter().map(|&s| s / total).collect()
    };
    // Scale weights to wei using a fixed-point factor to stay in integers.
    const SCALE: u64 = 1_000_000_000; // 1e9 fixed-point
    let mut payments: Vec<U256> = weights
        .iter()
        .map(|&w| {
            let scaled = (w * SCALE as f64).round() as u64;
            budget
                .wrapping_mul(&U256::from(scaled))
                .div_rem(&U256::from(SCALE))
                .0
        })
        .collect();
    // Fix rounding so Σ payments == budget exactly.
    let paid = payments
        .iter()
        .fold(U256::ZERO, |acc, p| acc.wrapping_add(p));
    let top = weights
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("weights are finite"))
        .map(|(i, _)| i)
        .expect("non-empty");
    if paid <= *budget {
        let dust = budget.wrapping_sub(&paid);
        payments[top] = payments[top].wrapping_add(&dust);
    } else {
        let excess = paid.wrapping_sub(budget);
        payments[top] = payments[top]
            .checked_sub(&excess)
            .expect("top payment covers rounding excess");
    }
    Ok(payments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofl_primitives::wei_per_eth;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Additive test game: v(S) = Σ w_i. Shapley and LOO both equal w_i.
    fn additive(weights: &'static [f64]) -> impl FnMut(&[usize]) -> f64 {
        move |s: &[usize]| s.iter().map(|&i| weights[i]).sum()
    }

    #[test]
    fn loo_on_additive_game_recovers_weights() {
        let report = loo_scores(4, additive(&[1.0, 2.0, 3.0, 4.0]));
        assert_eq!(report.full_value, 10.0);
        assert_eq!(report.contributions, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(report.drop_values, vec![9.0, 8.0, 7.0, 6.0]);
    }

    #[test]
    fn loo_detects_useless_participant() {
        // Participant 2 contributes nothing (the paper's "model 7").
        let value = |s: &[usize]| s.iter().filter(|&&i| i != 2).count() as f64;
        let report = loo_scores(4, value);
        assert_eq!(report.contributions[2], 0.0);
        assert!(report.contributions[0] > 0.0);
        // Dropping the useless one leaves the full value: max drop-value.
        let max = report
            .drop_values
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(report.drop_values[2], max);
    }

    #[test]
    fn shapley_additive_game_exact() {
        let mut rng = StdRng::seed_from_u64(0);
        let scores = shapley_monte_carlo(3, 200, &mut rng, additive(&[5.0, 1.0, 2.0]));
        for (got, want) in scores.iter().zip(&[5.0, 1.0, 2.0]) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn shapley_efficiency_axiom() {
        // Σ Shapley = v(N) − v(∅) holds per-permutation, hence exactly.
        let value = |s: &[usize]| (s.len() * s.len()) as f64; // superadditive
        let mut rng = StdRng::seed_from_u64(1);
        let scores = shapley_monte_carlo(5, 50, &mut rng, value);
        let total: f64 = scores.iter().sum();
        assert!((total - 25.0).abs() < 1e-9);
    }

    #[test]
    fn shapley_symmetric_players_converge_equal() {
        // v(S) = |S| → every player's Shapley value is exactly 1.
        let value = |s: &[usize]| s.len() as f64;
        let mut rng = StdRng::seed_from_u64(2);
        let scores = shapley_monte_carlo(6, 100, &mut rng, value);
        for s in scores {
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn shapley_interaction_game() {
        // v({0,1}) = 1, all other coalitions containing neither pair = 0:
        // complement game → Shapley = 0.5 each.
        let value = |s: &[usize]| {
            if s.contains(&0) && s.contains(&1) {
                1.0
            } else {
                0.0
            }
        };
        let mut rng = StdRng::seed_from_u64(3);
        let scores = shapley_monte_carlo(2, 2000, &mut rng, value);
        assert!((scores[0] - 0.5).abs() < 0.05);
        assert!((scores[1] - 0.5).abs() < 0.05);
    }

    #[test]
    fn payments_sum_to_budget_exactly() {
        let budget = wei_per_eth().div_rem(&U256::from(100u64)).0; // 0.01 ETH
        let scores = vec![0.05, 0.11, 0.02, 0.0, 0.30];
        let payments = allocate_payments(&scores, &budget).unwrap();
        let total = payments
            .iter()
            .fold(U256::ZERO, |acc, p| acc.wrapping_add(p));
        assert_eq!(total, budget);
        // Monotone in scores.
        assert!(payments[4] > payments[1]);
        assert!(payments[1] > payments[0]);
        assert_eq!(payments[3], U256::ZERO);
    }

    #[test]
    fn negative_scores_clamped() {
        let budget = U256::from(1_000_000u64);
        let payments = allocate_payments(&[-1.0, 1.0, 3.0], &budget).unwrap();
        assert_eq!(payments[0], U256::ZERO);
        assert_eq!(payments[1].wrapping_add(&payments[2]), budget);
        assert!(payments[2] > payments[1]);
    }

    #[test]
    fn all_zero_scores_split_uniformly() {
        let budget = U256::from(999u64);
        let payments = allocate_payments(&[0.0, 0.0, 0.0], &budget).unwrap();
        let total = payments
            .iter()
            .fold(U256::ZERO, |acc, p| acc.wrapping_add(p));
        assert_eq!(total, budget);
        // Within 1 wei of each other.
        let min = payments.iter().min().unwrap();
        let max = payments.iter().max().unwrap();
        assert!(max.wrapping_sub(min) <= U256::from(333u64));
    }

    #[test]
    fn empty_participants_rejected() {
        assert_eq!(
            allocate_payments(&[], &U256::from(1u64)).unwrap_err(),
            PaymentError::NoParticipants
        );
    }

    #[test]
    fn paper_scale_payment_table_shape() {
        // Ten owners, 0.01 ETH budget, contributions shaped like Fig 6
        // (models 6–9 contribute least). Payments must order accordingly and
        // sum to the budget, like Table 1.
        let budget = wei_per_eth().div_rem(&U256::from(100u64)).0;
        let contributions = [
            0.016, 0.011, 0.013, 0.016, 0.014, 0.012, 0.005, 0.005, 0.004, 0.004,
        ];
        let payments = allocate_payments(&contributions, &budget).unwrap();
        let total = payments
            .iter()
            .fold(U256::ZERO, |acc, p| acc.wrapping_add(p));
        assert_eq!(total, budget);
        // Strong contributors earn ~3× the weak ones, echoing Table 1's
        // 0.00162 vs 0.00041 spread.
        assert!(payments[0] > payments[8].wrapping_mul(&U256::from(3u64)));
    }
}
