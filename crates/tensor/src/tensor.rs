//! Dense row-major f32 matrices/vectors with the operations an MLP needs.
//!
//! The transposed-B product (`matmul_nt`) is the hot path, since layer
//! weights are stored row-per-neuron. It is lane-packed: several outputs
//! advance side by side, and each keeps its own sum in `k` order, so the
//! result is bit-identical to the plain dot-product loop.

use rand::Rng;

/// Outputs one `matmul_nt` panel advances side by side: `other`'s rows are
/// packed `k`-major in groups of this many, one lane per output column.
const NT_LANES: usize = 8;

/// Rows of `self` that share one pass over a packed panel.
const NT_ROWS: usize = 4;

/// A dense row-major tensor of rank 1 or 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl Tensor {
    /// Zero-filled `rows × cols` tensor.
    pub fn zeros(rows: usize, cols: usize) -> Tensor {
        Tensor {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Builds from a flat row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Tensor {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} != {}×{}",
            data.len(),
            rows,
            cols
        );
        Tensor { data, rows, cols }
    }

    /// Gaussian-initialized tensor with the given standard deviation.
    pub fn randn(rows: usize, cols: usize, std: f32, rng: &mut impl Rng) -> Tensor {
        // Box–Muller from the uniform generator; avoids needing rand_distr.
        let mut data = Vec::with_capacity(rows * cols);
        while data.len() < rows * cols {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < rows * cols {
                data.push(r * theta.sin() * std);
            }
        }
        Tensor { data, rows, cols }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat immutable view.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable view.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable row view.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row view.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self @ other`: (m,k) × (k,n) → (m,n).
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Tensor::zeros(m, n);
        // ikj loop order: streams through `other` rows, cache-friendly.
        for i in 0..m {
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for kk in 0..k {
                let a = self.data[i * k + kk];
                if a == 0.0 {
                    continue;
                }
                let b_row = &other.data[kk * n..(kk + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self @ other.T`: (m,k) × (n,k) → (m,n). The layer forward pass.
    ///
    /// Every output is the dot product of a row of `self` and a row of
    /// `other`, summed from `+0.0` with `acc += a * b` in `k` order (no
    /// fused multiply-add), so it is bit-identical to the plain loop. The
    /// speed comes from computing many such sums at once: `other` is packed
    /// `k`-major in panels of 8 rows, one f32 lane each (tail lanes
    /// zero-padded and discarded), and 4 rows of `self` share each pass
    /// over a panel.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.cols, "matmul_nt shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let mut out = Tensor::zeros(m, n);
        if n == 0 || k == 0 {
            // No outputs, or only empty sums: `+0.0`, which `zeros` holds.
            return out;
        }
        let panel_len = k * NT_LANES;
        let mut packed = vec![0.0f32; n.div_ceil(NT_LANES) * panel_len];
        for (j, b_row) in other.data.chunks_exact(k).enumerate() {
            let panel = &mut packed[j / NT_LANES * panel_len..][..panel_len];
            let lane = panel[j % NT_LANES..].iter_mut().step_by(NT_LANES);
            for (slot, &b) in lane.zip(b_row) {
                *slot = b;
            }
        }
        let blocks = self
            .data
            .chunks(NT_ROWS * k)
            .zip(out.data.chunks_mut(NT_ROWS * n));
        for (a_block, out_block) in blocks {
            if a_block.len() == NT_ROWS * k {
                nt_rows::<NT_ROWS>(a_block, out_block, &packed, k);
            } else {
                let rows = a_block.chunks_exact(k).zip(out_block.chunks_exact_mut(n));
                for (a_row, out_row) in rows {
                    nt_rows::<1>(a_row, out_row, &packed, k);
                }
            }
        }
        out
    }

    /// `self.T @ other`: (k,m) × (k,n) → (m,n). The weight-gradient pass.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "matmul_tn shape mismatch");
        let (k, m, n) = (self.rows, self.cols, other.cols);
        let mut out = Tensor::zeros(m, n);
        for kk in 0..k {
            let a_row = &self.data[kk * m..(kk + 1) * m];
            let b_row = &other.data[kk * n..(kk + 1) * n];
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * n..(i + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Adds a row vector to every row (bias broadcast).
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            for (v, &b) in self.row_mut(r).iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// Elementwise in-place map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Elementwise addition into self: `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.data.len(), other.data.len(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Scales every element.
    pub fn scale(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Index of the maximum element in each row.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                let row = self.row(r);
                let mut best = 0;
                for (i, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

/// `R` rows of `a` (each `k` long) against every packed panel of `packed`,
/// writing the `R` output rows of `out`. Lane `l` of row `r` is one output:
/// it starts at `+0.0` and adds `a[r][kk] * panel[kk][l]` in `kk` order.
#[inline]
fn nt_rows<const R: usize>(a: &[f32], out: &mut [f32], packed: &[f32], k: usize) {
    let n = out.len() / R;
    let a: [&[f32]; R] = std::array::from_fn(|r| &a[r * k..(r + 1) * k]);
    for (p, panel) in packed.chunks_exact(k * NT_LANES).enumerate() {
        let (panel, _) = panel.as_chunks::<NT_LANES>();
        let mut acc = [[0.0f32; NT_LANES]; R];
        for (kk, b) in panel.iter().enumerate() {
            for (lanes, a_row) in acc.iter_mut().zip(&a) {
                let x = a_row[kk];
                for (s, &y) in lanes.iter_mut().zip(b) {
                    *s += x * y;
                }
            }
        }
        // Read the lanes out of a copy: a partial read of `acc` itself
        // would keep it on the stack for the whole `k` loop.
        let sums = acc;
        let j0 = p * NT_LANES;
        let width = NT_LANES.min(n - j0);
        for (lanes, out_row) in sums.iter().zip(out.chunks_exact_mut(n)) {
            out_row[j0..j0 + width].copy_from_slice(&lanes[..width]);
        }
    }
}

/// Row-wise softmax (numerically stabilized).
pub fn softmax_rows(logits: &Tensor) -> Tensor {
    let mut out = logits.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            denom += *v;
        }
        for v in row.iter_mut() {
            *v /= denom;
        }
    }
    out
}

/// Mean cross-entropy of `logits` against integer `labels`, together with
/// the gradient w.r.t. the logits (softmax − one-hot, scaled by 1/batch).
pub fn cross_entropy_with_grad(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    assert_eq!(logits.rows(), labels.len(), "label count mismatch");
    let probs = softmax_rows(logits);
    let batch = logits.rows() as f32;
    let mut loss = 0.0;
    let mut grad = probs.clone();
    for (r, &y) in labels.iter().enumerate() {
        assert!(y < logits.cols(), "label {y} out of range");
        loss -= probs.get(r, y).max(1e-12).ln();
        let g = grad.get(r, y);
        grad.set(r, y, g - 1.0);
    }
    grad.scale(1.0 / batch);
    (loss / batch, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn t(rows: usize, cols: usize, vals: &[f32]) -> Tensor {
        Tensor::from_vec(rows, cols, vals.to_vec())
    }

    #[test]
    fn matmul_known() {
        let a = t(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = t(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_nt_equals_matmul_with_transpose() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Tensor::randn(4, 7, 1.0, &mut rng);
        let b = Tensor::randn(5, 7, 1.0, &mut rng);
        let direct = a.matmul_nt(&b);
        let via_t = a.matmul(&b.transpose());
        for (x, y) in direct.data().iter().zip(via_t.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    /// The plain dot-product loop: each output summed from `+0.0` in `k`
    /// order. The lane-packed [`Tensor::matmul_nt`] must equal it bit for
    /// bit.
    fn matmul_nt_oracle(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = (a.rows(), a.cols(), b.rows());
        let mut out = Tensor::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a.get(i, kk) * b.get(j, kk);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// Bit patterns, with every NaN mapped to one value: Rust leaves the
    /// payload and sign of a NaN that arithmetic produces unspecified, so
    /// only "is NaN" is a property of the sum order.
    fn bits(t: &Tensor) -> Vec<u32> {
        let canonical = |x: f32| if x.is_nan() { u32::MAX } else { x.to_bits() };
        t.data().iter().map(|&x| canonical(x)).collect()
    }

    #[test]
    fn matmul_nt_matches_the_plain_k_order_loop_bit_for_bit() {
        // NaN and ±∞ poison a whole sum, so they are rare enough to leave
        // most 784-long sums finite; −0.0 and subnormals are common.
        let poison = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let quiet = [
            -0.0,
            f32::from_bits(1),        // the smallest subnormal
            -f32::MIN_POSITIVE / 3.0, // a negative subnormal
            1e-30,                    // squares underflow to subnormal or zero
        ];
        let mut rng = StdRng::seed_from_u64(11);
        let filled = |rows: usize, cols: usize, rng: &mut StdRng| {
            let mut t = Tensor::randn(rows, cols, 1.0, rng);
            for v in t.data_mut() {
                match rng.gen_range(0..3000) {
                    0 => *v = poison[rng.gen_range(0..poison.len())],
                    1..=300 => *v = quiet[rng.gen_range(0..quiet.len())],
                    _ => {}
                }
            }
            t
        };
        let mut finite = 0;
        // m = 4, 5 and 9 reach the row-blocked path and its tail; n spans
        // whole panels, padded panels and a single lane.
        for m in [0, 1, 3, 4, 5, 9] {
            for n in [1, 7, 8, 9, 20, 200] {
                for k in [0, 1, 784] {
                    let a = filled(m, k, &mut rng);
                    let b = filled(n, k, &mut rng);
                    let packed = a.matmul_nt(&b);
                    let plain = matmul_nt_oracle(&a, &b);
                    assert_eq!((packed.rows(), packed.cols()), (m, n));
                    assert_eq!(bits(&packed), bits(&plain), "m={m} n={n} k={k}");
                    finite += packed.data().iter().filter(|v| v.is_finite()).count();
                }
            }
        }
        assert!(finite > 10_000, "only {finite} finite outputs compared");
        // Each special value alone in a sum: a column of them against a
        // row of factors, one product per output.
        let specials: Vec<f32> = poison.iter().chain(&quiet).copied().collect();
        let factors = [1.0, -1.0, 0.0, -0.0, 0.5, 3.0, 1e30, 1e-10, f32::MAX];
        let a = Tensor::from_vec(specials.len(), 1, specials);
        let b = Tensor::from_vec(factors.len(), 1, factors.to_vec());
        assert_eq!(bits(&a.matmul_nt(&b)), bits(&matmul_nt_oracle(&a, &b)));
    }

    #[test]
    fn matmul_tn_equals_transpose_matmul() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Tensor::randn(6, 3, 1.0, &mut rng);
        let b = Tensor::randn(6, 4, 1.0, &mut rng);
        let direct = a.matmul_tn(&b);
        let via_t = a.transpose().matmul(&b);
        for (x, y) in direct.data().iter().zip(via_t.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Tensor::randn(3, 8, 1.0, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn bias_broadcast() {
        let mut a = Tensor::zeros(3, 2);
        a.add_row_broadcast(&[1.0, 2.0]);
        assert_eq!(a.data(), &[1., 2., 1., 2., 1., 2.]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = t(2, 3, &[1., 2., 3., -1., 0., 1.]);
        let p = softmax_rows(&logits);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(p.row(r).iter().all(|&v| v > 0.0));
        }
        // Monotone in logits.
        assert!(p.get(0, 2) > p.get(0, 1));
    }

    #[test]
    fn softmax_handles_large_logits() {
        let logits = t(1, 2, &[1000.0, 1001.0]);
        let p = softmax_rows(&logits);
        assert!(p.get(0, 1) > p.get(0, 0));
        assert!(p.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn cross_entropy_perfect_prediction_low_loss() {
        let logits = t(1, 3, &[100.0, 0.0, 0.0]);
        let (loss, _) = cross_entropy_with_grad(&logits, &[0]);
        assert!(loss < 1e-6);
        let (bad_loss, _) = cross_entropy_with_grad(&logits, &[1]);
        assert!(bad_loss > 10.0);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let logits = t(2, 3, &[0.5, -0.2, 0.1, 1.0, 0.0, -1.0]);
        let labels = [2usize, 0];
        let (_, grad) = cross_entropy_with_grad(&logits, &labels);
        let eps = 1e-3;
        for idx in 0..logits.len() {
            let mut plus = logits.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = logits.clone();
            minus.data_mut()[idx] -= eps;
            let (lp, _) = cross_entropy_with_grad(&plus, &labels);
            let (lm, _) = cross_entropy_with_grad(&minus, &labels);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (grad.data()[idx] - numeric).abs() < 1e-3,
                "idx {idx}: analytic {} vs numeric {numeric}",
                grad.data()[idx]
            );
        }
    }

    #[test]
    fn argmax_rows_works() {
        let a = t(2, 3, &[0.1, 0.9, 0.0, 5.0, -1.0, 2.0]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn randn_statistics() {
        let mut rng = StdRng::seed_from_u64(42);
        let x = Tensor::randn(100, 100, 2.0, &mut rng);
        let mean = x.sum() / x.len() as f32;
        let var: f32 = x
            .data()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / x.len() as f32;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = t(1, 3, &[1., 2., 3.]);
        let b = t(1, 3, &[10., 10., 10.]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[6., 7., 8.]);
        a.scale(2.0);
        assert_eq!(a.data(), &[12., 14., 16.]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(4, 2);
        let _ = a.matmul(&b);
    }
}
