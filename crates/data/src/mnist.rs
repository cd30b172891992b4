//! Synthetic MNIST: a deterministic, class-structured 10-way image task.
//!
//! Real MNIST files are unavailable offline, so this generator produces a
//! statistically similar stand-in for the paper's MNIST: each class is a
//! smooth prototype of 28×28 "stroke blobs"; samples are the prototype
//! under random translation, per-pixel noise, and intensity jitter. An MLP(784,100,10) reaches >95 % accuracy on the full
//! task but degrades sharply when a client sees only a couple of classes —
//! the same qualitative behaviour non-IID MNIST exhibits in the paper's
//! Fig 4.

use crate::dataset::Dataset;
use ofl_tensor::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Image side length.
pub const SIDE: usize = 28;
/// Flattened image dimension.
pub const DIM: usize = SIDE * SIDE;
/// Number of classes.
pub const CLASSES: usize = 10;

/// The synthetic digit generator.
#[derive(Debug, Clone)]
pub struct SyntheticMnist {
    prototypes: Vec<Vec<f32>>,
}

impl SyntheticMnist {
    /// Builds the ten class prototypes deterministically from `seed`.
    pub fn new(seed: u64) -> SyntheticMnist {
        let mut prototypes = Vec::with_capacity(CLASSES);
        for class in 0..CLASSES {
            let mut rng = StdRng::seed_from_u64(
                seed ^ (0x9e3779b97f4a7c15u64.wrapping_mul(class as u64 + 1)),
            );
            prototypes.push(Self::make_prototype(&mut rng));
        }
        SyntheticMnist { prototypes }
    }

    /// A prototype: several soft "strokes" (random walks of Gaussian blobs)
    /// on the canvas, normalized to [0, 1].
    fn make_prototype(rng: &mut StdRng) -> Vec<f32> {
        let mut img = vec![0.0f32; DIM];
        let strokes = rng.gen_range(3..=5);
        for _ in 0..strokes {
            let mut x = rng.gen_range(6.0..22.0f32);
            let mut y = rng.gen_range(6.0..22.0f32);
            let mut dx = rng.gen_range(-1.5..1.5f32);
            let mut dy = rng.gen_range(-1.5..1.5f32);
            let steps = rng.gen_range(6..14);
            for _ in 0..steps {
                Self::stamp_blob(&mut img, x, y, 1.6);
                dx += rng.gen_range(-0.6..0.6f32);
                dy += rng.gen_range(-0.6..0.6f32);
                dx = dx.clamp(-2.0, 2.0);
                dy = dy.clamp(-2.0, 2.0);
                x = (x + dx).clamp(2.0, 25.0);
                y = (y + dy).clamp(2.0, 25.0);
            }
        }
        let max = img.iter().cloned().fold(0.0f32, f32::max).max(1e-6);
        for v in &mut img {
            *v = (*v / max).min(1.0);
        }
        img
    }

    fn stamp_blob(img: &mut [f32], cx: f32, cy: f32, sigma: f32) {
        let r = (3.0 * sigma) as i32;
        let (icx, icy) = (cx as i32, cy as i32);
        for py in (icy - r).max(0)..=(icy + r).min(SIDE as i32 - 1) {
            for px in (icx - r).max(0)..=(icx + r).min(SIDE as i32 - 1) {
                let d2 = (px as f32 - cx).powi(2) + (py as f32 - cy).powi(2);
                img[py as usize * SIDE + px as usize] += (-d2 / (2.0 * sigma * sigma)).exp();
            }
        }
    }

    /// Prototype for a class (test inspection).
    pub fn prototype(&self, class: usize) -> &[f32] {
        &self.prototypes[class]
    }

    /// Draws one sample of `class`: translated, intensity-jittered, noisy
    /// prototype.
    pub fn sample_one(&self, class: usize, rng: &mut impl Rng) -> Vec<f32> {
        let proto = &self.prototypes[class];
        let shift_x = rng.gen_range(-2i32..=2);
        let shift_y = rng.gen_range(-2i32..=2);
        let gain = rng.gen_range(0.7..1.1f32);
        let noise = 0.12f32;
        let mut out = vec![0.0f32; DIM];
        for y in 0..SIDE as i32 {
            for x in 0..SIDE as i32 {
                let sx = x - shift_x;
                let sy = y - shift_y;
                let base = if (0..SIDE as i32).contains(&sx) && (0..SIDE as i32).contains(&sy) {
                    proto[sy as usize * SIDE + sx as usize]
                } else {
                    0.0
                };
                let n: f32 = rng.gen_range(-noise..noise);
                out[y as usize * SIDE + x as usize] = (base * gain + n).clamp(0.0, 1.0);
            }
        }
        out
    }

    /// Draws a dataset of `n` examples with the given class mix
    /// (`class_weights` need not be normalized).
    pub fn sample_weighted(&self, n: usize, class_weights: &[f64], rng: &mut impl Rng) -> Dataset {
        assert_eq!(class_weights.len(), CLASSES, "need 10 class weights");
        let total: f64 = class_weights.iter().sum();
        assert!(total > 0.0, "class weights must not all be zero");
        let mut data = Vec::with_capacity(n * DIM);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let mut u = rng.gen_range(0.0..total);
            let mut class = CLASSES - 1;
            for (c, &w) in class_weights.iter().enumerate() {
                if u < w {
                    class = c;
                    break;
                }
                u -= w;
            }
            data.extend_from_slice(&self.sample_one(class, rng));
            labels.push(class);
        }
        Dataset::new(Tensor::from_vec(n, DIM, data), labels)
    }

    /// Draws `n` examples with uniform class balance.
    pub fn sample(&self, n: usize, rng: &mut impl Rng) -> Dataset {
        self.sample_weighted(n, &[1.0; CLASSES], rng)
    }
}

/// Convenience: deterministic train/test split of the synthetic task.
pub fn generate(seed: u64, n_train: usize, n_test: usize) -> (Dataset, Dataset) {
    let gen = SyntheticMnist::new(seed);
    let mut rng_train = StdRng::seed_from_u64(seed.wrapping_add(1));
    let mut rng_test = StdRng::seed_from_u64(seed.wrapping_add(2));
    (
        gen.sample(n_train, &mut rng_train),
        gen.sample(n_test, &mut rng_test),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofl_tensor::nn::Mlp;
    use ofl_tensor::optim::{Adam, Optimizer};

    #[test]
    fn deterministic_generation() {
        let (a_train, _) = generate(7, 50, 10);
        let (b_train, _) = generate(7, 50, 10);
        assert_eq!(a_train.labels, b_train.labels);
        assert_eq!(a_train.images.data(), b_train.images.data());
        let (c_train, _) = generate(8, 50, 10);
        assert_ne!(a_train.images.data(), c_train.images.data());
    }

    #[test]
    fn pixels_in_unit_range() {
        let (train, _) = generate(1, 100, 10);
        assert!(train
            .images
            .data()
            .iter()
            .all(|&v| (0.0..=1.0).contains(&v)));
        assert_eq!(train.dim(), 784);
    }

    #[test]
    fn class_weights_respected() {
        let gen = SyntheticMnist::new(3);
        let mut rng = StdRng::seed_from_u64(4);
        let mut weights = [0.0f64; 10];
        weights[3] = 1.0;
        weights[7] = 1.0;
        let ds = gen.sample_weighted(200, &weights, &mut rng);
        let hist = ds.class_histogram(10);
        assert_eq!(hist[3] + hist[7], 200);
        assert!(hist[3] > 50 && hist[7] > 50);
    }

    #[test]
    fn prototypes_are_distinct() {
        let gen = SyntheticMnist::new(5);
        for a in 0..CLASSES {
            for b in (a + 1)..CLASSES {
                let pa = gen.prototype(a);
                let pb = gen.prototype(b);
                let dist: f32 = pa
                    .iter()
                    .zip(pb)
                    .map(|(x, y)| (x - y) * (x - y))
                    .sum::<f32>()
                    .sqrt();
                assert!(dist > 1.0, "classes {a},{b} too similar ({dist})");
            }
        }
    }

    #[test]
    fn task_is_learnable_by_paper_mlp() {
        // A quick sanity check that the synthetic task behaves like MNIST:
        // a small MLP must reach high accuracy fast on balanced data.
        let (train, test) = generate(42, 600, 200);
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Mlp::new(&[784, 100, 10], &mut rng);
        let mut opt = Adam::new(0.001);
        for _ in 0..10 {
            for (x, y) in train.batches(64) {
                let (_, grads) = model.loss_and_grads(&x, y);
                opt.step(&mut model, &grads);
            }
        }
        let acc = model.accuracy(&test.images, &test.labels);
        assert!(acc > 0.9, "synthetic task accuracy only {acc}");
    }

    #[test]
    fn single_class_training_fails_on_balanced_test() {
        // The Fig 4 phenomenon: a model that only ever saw one class cannot
        // exceed ~10-20 % on a balanced test set.
        let gen = SyntheticMnist::new(42);
        let mut rng = StdRng::seed_from_u64(1);
        let mut weights = [0.0f64; 10];
        weights[0] = 1.0;
        let train = gen.sample_weighted(300, &weights, &mut rng);
        let test = gen.sample(200, &mut rng);
        let mut model = Mlp::new(&[784, 100, 10], &mut StdRng::seed_from_u64(2));
        let mut opt = Adam::new(0.001);
        for _ in 0..5 {
            for (x, y) in train.batches(64) {
                let (_, grads) = model.loss_and_grads(&x, y);
                opt.step(&mut model, &grads);
            }
        }
        let acc = model.accuracy(&test.images, &test.labels);
        assert!(acc < 0.35, "single-class model suspiciously good: {acc}");
    }
}
