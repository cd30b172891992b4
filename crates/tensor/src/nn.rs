//! MLP layers with explicit forward/backward passes, matching the paper's
//! experimental network: three fully-connected layers (784, 100, 10) with
//! ReLU activations.

use crate::tensor::{cross_entropy_with_grad, softmax_rows, Tensor};
use rand::Rng;

/// A fully-connected layer `y = x Wᵀ + b` with weights stored one row per
/// output neuron — the layout PFNM's neuron matching operates on.
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    /// Weights, shape (out, in).
    pub weight: Tensor,
    /// Bias, length `out`.
    pub bias: Vec<f32>,
}

impl Linear {
    /// He-initialized layer (appropriate for ReLU networks).
    pub fn new_he(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Linear {
        let std = (2.0 / in_dim as f32).sqrt();
        Linear {
            weight: Tensor::randn(out_dim, in_dim, std, rng),
            bias: vec![0.0; out_dim],
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weight.cols()
    }

    /// Output dimension (neuron count).
    pub fn out_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Forward pass: `x` is (batch, in) → (batch, out).
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut y = x.matmul_nt(&self.weight);
        y.add_row_broadcast(&self.bias);
        y
    }

    /// Number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }
}

/// Gradients for one linear layer.
#[derive(Debug, Clone)]
pub struct LinearGrad {
    /// dL/dW, shape (out, in).
    pub weight: Tensor,
    /// dL/db, length `out`.
    pub bias: Vec<f32>,
}

/// A multi-layer perceptron: Linear → ReLU → … → Linear (logits).
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    /// The linear layers; ReLU is applied between consecutive layers.
    pub layers: Vec<Linear>,
}

/// Cached activations from a forward pass, consumed by backward.
pub struct ForwardCache {
    /// Input and post-activation outputs of each layer (len = layers + 1).
    activations: Vec<Tensor>,
    /// Pre-activation outputs of each hidden layer.
    pre_activations: Vec<Tensor>,
    /// Final logits.
    pub logits: Tensor,
}

impl Mlp {
    /// Builds an MLP with the given layer dimensions, e.g. `[784, 100, 10]`.
    pub fn new(dims: &[usize], rng: &mut impl Rng) -> Mlp {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let layers = dims
            .windows(2)
            .map(|w| Linear::new_he(w[0], w[1], rng))
            .collect();
        Mlp { layers }
    }

    /// Layer dimensions, e.g. `[784, 100, 10]`.
    pub fn dims(&self) -> Vec<usize> {
        let mut dims = vec![self.layers[0].in_dim()];
        dims.extend(self.layers.iter().map(Linear::out_dim));
        dims
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Linear::param_count).sum()
    }

    /// Inference forward pass: returns logits.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        // The first layer reads `x` in place: no copy of the input batch.
        let mut cur: Option<Tensor> = None;
        for (i, layer) in self.layers.iter().enumerate() {
            let mut y = layer.forward(cur.as_ref().unwrap_or(x));
            if i + 1 < self.layers.len() {
                y.map_inplace(|v| v.max(0.0));
            }
            cur = Some(y);
        }
        cur.unwrap_or_else(|| x.clone())
    }

    /// Class probabilities.
    pub fn predict_proba(&self, x: &Tensor) -> Tensor {
        softmax_rows(&self.forward(x))
    }

    /// Hard class predictions.
    pub fn predict(&self, x: &Tensor) -> Vec<usize> {
        self.forward(x).argmax_rows()
    }

    /// Classification accuracy on `(x, labels)`.
    pub fn accuracy(&self, x: &Tensor, labels: &[usize]) -> f64 {
        let preds = self.predict(x);
        let correct = preds.iter().zip(labels).filter(|(p, y)| p == y).count();
        correct as f64 / labels.len().max(1) as f64
    }

    /// Forward pass that keeps the activations needed for backward.
    pub fn forward_cached(&self, x: &Tensor) -> ForwardCache {
        // Layer i reads its input from `activations[i]`, so the batch is
        // copied once, into `activations[0]`.
        let mut activations = vec![x.clone()];
        let mut pre_activations = Vec::new();
        let mut logits = None;
        for (i, layer) in self.layers.iter().enumerate() {
            let pre = layer.forward(&activations[i]);
            if i + 1 < self.layers.len() {
                let mut act = pre.clone();
                act.map_inplace(|v| v.max(0.0));
                pre_activations.push(pre);
                activations.push(act);
            } else {
                logits = Some(pre);
            }
        }
        ForwardCache {
            logits: logits.unwrap_or_else(|| x.clone()),
            activations,
            pre_activations,
        }
    }

    /// Backward pass from a loss gradient on the logits. Returns per-layer
    /// gradients, outermost layer last (same order as `self.layers`).
    pub fn backward(&self, cache: &ForwardCache, grad_logits: &Tensor) -> Vec<LinearGrad> {
        let n = self.layers.len();
        let mut grads: Vec<Option<LinearGrad>> = (0..n).map(|_| None).collect();
        let mut delta = grad_logits.clone(); // (batch, out_n)
        for i in (0..n).rev() {
            let input = &cache.activations[i]; // (batch, in_i)
                                               // dW = deltaᵀ @ input; db = column sums of delta.
            let dw = delta.matmul_tn(input);
            let mut db = vec![0.0f32; self.layers[i].out_dim()];
            for r in 0..delta.rows() {
                for (b, &d) in db.iter_mut().zip(delta.row(r)) {
                    *b += d;
                }
            }
            grads[i] = Some(LinearGrad {
                weight: dw,
                bias: db,
            });
            if i > 0 {
                // dX = delta @ W, then gate through the ReLU derivative.
                let mut dx = delta.matmul(&self.layers[i].weight);
                let pre = &cache.pre_activations[i - 1];
                for (g, &p) in dx.data_mut().iter_mut().zip(pre.data()) {
                    if p <= 0.0 {
                        *g = 0.0;
                    }
                }
                delta = dx;
            }
        }
        grads.into_iter().map(|g| g.expect("filled")).collect()
    }

    /// One training step on a batch: forward, cross-entropy, backward.
    /// Returns `(loss, grads)` so the optimizer can apply the update.
    pub fn loss_and_grads(&self, x: &Tensor, labels: &[usize]) -> (f32, Vec<LinearGrad>) {
        let cache = self.forward_cached(x);
        let (loss, grad_logits) = cross_entropy_with_grad(&cache.logits, labels);
        let grads = self.backward(&cache, &grad_logits);
        (loss, grads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dims_and_param_count_match_paper_network() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(&[784, 100, 10], &mut rng);
        assert_eq!(mlp.dims(), vec![784, 100, 10]);
        // 784·100 + 100 + 100·10 + 10 = 79 510 params ≈ 317 KB as f32 —
        // exactly the model size reported in the paper's §4.4.
        assert_eq!(mlp.param_count(), 79_510);
        assert_eq!(mlp.param_count() * 4, 318_040);
    }

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(&[8, 5, 3], &mut rng);
        let x = Tensor::zeros(4, 8);
        let y = mlp.forward(&x);
        assert_eq!((y.rows(), y.cols()), (4, 3));
        let p = mlp.predict_proba(&x);
        for r in 0..4 {
            assert!((p.row(r).iter().sum::<f32>() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut mlp = Mlp::new(&[4, 6, 3], &mut rng);
        let x = Tensor::randn(5, 4, 1.0, &mut rng);
        let labels = vec![0usize, 1, 2, 1, 0];
        let (_, grads) = mlp.loss_and_grads(&x, &labels);
        let eps = 1e-2;
        // Spot-check a handful of weight coordinates in every layer. The
        // index drives both `mlp.layers` (mutated) and `grads` (read), so a
        // range loop is the honest shape here.
        #[allow(clippy::needless_range_loop)]
        for li in 0..mlp.layers.len() {
            for &(r, c) in &[(0usize, 0usize), (1, 2), (2, 3)] {
                if r >= mlp.layers[li].weight.rows() || c >= mlp.layers[li].weight.cols() {
                    continue;
                }
                let orig = mlp.layers[li].weight.get(r, c);
                mlp.layers[li].weight.set(r, c, orig + eps);
                let (lp, _) = mlp.loss_and_grads(&x, &labels);
                mlp.layers[li].weight.set(r, c, orig - eps);
                let (lm, _) = mlp.loss_and_grads(&x, &labels);
                mlp.layers[li].weight.set(r, c, orig);
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = grads[li].weight.get(r, c);
                assert!(
                    (numeric - analytic).abs() < 2e-2,
                    "layer {li} w[{r},{c}]: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn bias_gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut mlp = Mlp::new(&[3, 4, 2], &mut rng);
        let x = Tensor::randn(6, 3, 1.0, &mut rng);
        let labels = vec![0usize, 1, 0, 1, 0, 1];
        let (_, grads) = mlp.loss_and_grads(&x, &labels);
        let eps = 1e-2;
        #[allow(clippy::needless_range_loop)]
        for li in 0..mlp.layers.len() {
            for bi in 0..mlp.layers[li].bias.len().min(2) {
                let orig = mlp.layers[li].bias[bi];
                mlp.layers[li].bias[bi] = orig + eps;
                let (lp, _) = mlp.loss_and_grads(&x, &labels);
                mlp.layers[li].bias[bi] = orig - eps;
                let (lm, _) = mlp.loss_and_grads(&x, &labels);
                mlp.layers[li].bias[bi] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                assert!(
                    (numeric - grads[li].bias[bi]).abs() < 2e-2,
                    "layer {li} b[{bi}]"
                );
            }
        }
    }

    #[test]
    fn gradient_descent_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut mlp = Mlp::new(&[2, 16, 2], &mut rng);
        // XOR-ish separable data.
        let x = Tensor::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let labels = vec![0usize, 1, 1, 0];
        let (initial, _) = mlp.loss_and_grads(&x, &labels);
        for _ in 0..400 {
            let (_, grads) = mlp.loss_and_grads(&x, &labels);
            for (layer, g) in mlp.layers.iter_mut().zip(&grads) {
                layer.weight.axpy(-0.5, &g.weight);
                for (b, &gb) in layer.bias.iter_mut().zip(&g.bias) {
                    *b -= 0.5 * gb;
                }
            }
        }
        let (final_loss, _) = mlp.loss_and_grads(&x, &labels);
        assert!(
            final_loss < initial / 4.0,
            "loss {initial} → {final_loss} did not shrink enough"
        );
        assert_eq!(mlp.accuracy(&x, &labels), 1.0);
    }

    #[test]
    fn accuracy_bounds() {
        let mut rng = StdRng::seed_from_u64(10);
        let mlp = Mlp::new(&[4, 8, 3], &mut rng);
        let x = Tensor::randn(30, 4, 1.0, &mut rng);
        let labels: Vec<usize> = (0..30).map(|i| i % 3).collect();
        let acc = mlp.accuracy(&x, &labels);
        assert!((0.0..=1.0).contains(&acc));
    }
}
