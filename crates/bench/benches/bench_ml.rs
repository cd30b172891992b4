//! Micro-benchmarks of the ML stack: matmul, local training, PFNM matching,
//! and the Hungarian solver.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ofl_data::mnist;
use ofl_fl::baselines::train_all_silos;
use ofl_fl::client::{train_local, TrainConfig};
use ofl_fl::hungarian::solve_min;
use ofl_fl::pfnm::{aggregate, cost_matrix, Atom, PfnmConfig};
use ofl_tensor::serialize::{decode_model, encode_model};
use ofl_tensor::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("tensor");
    let mut rng = StdRng::seed_from_u64(0);
    // The paper's hidden layer: batch 64 × (784 → 100).
    let x = Tensor::randn(64, 784, 1.0, &mut rng);
    let w = Tensor::randn(100, 784, 0.05, &mut rng);
    group.throughput(Throughput::Elements(64 * 784 * 100));
    group.bench_function("matmul_nt_64x784x100", |b| {
        b.iter(|| black_box(&x).matmul_nt(black_box(&w)))
    });
    let dy = Tensor::randn(64, 100, 1.0, &mut rng);
    group.bench_function("matmul_tn_grad_64x784x100", |b| {
        b.iter(|| black_box(&dy).matmul_tn(black_box(&x)))
    });
    // The buyer's test-set forward in the `pfnm-loo` market: 1,000 test
    // images through the aggregate's hidden layer, 200 atoms wide (width
    // 20 × 10 owners).
    let test = Tensor::randn(1000, 784, 1.0, &mut rng);
    let hidden = Tensor::randn(200, 784, 0.05, &mut rng);
    group.throughput(Throughput::Elements(1000 * 784 * 200));
    group.bench_function("matmul_nt_1000x784x200", |b| {
        b.iter(|| black_box(&test).matmul_nt(black_box(&hidden)))
    });
    group.finish();
}

fn bench_training(c: &mut Criterion) {
    let mut group = c.benchmark_group("training");
    group.sample_size(10);
    let (train, _) = mnist::generate(1, 400, 10);
    let cfg = TrainConfig {
        dims: vec![784, 100, 10],
        epochs: 1,
        ..TrainConfig::default()
    };
    group.bench_function("local_epoch_400_examples", |b| {
        b.iter(|| train_local(black_box(&train), &cfg))
    });
    group.finish();
}

fn bench_model_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("model_codec");
    let mut rng = StdRng::seed_from_u64(2);
    let model = ofl_tensor::nn::Mlp::new(&[784, 100, 10], &mut rng);
    group.throughput(Throughput::Bytes(318_064));
    group.bench_function("encode_317KB", |b| {
        b.iter(|| encode_model(black_box(&model)))
    });
    let bytes = encode_model(&model);
    group.bench_function("decode_317KB", |b| {
        b.iter(|| decode_model(black_box(&bytes)).unwrap())
    });
    group.finish();
}

fn bench_hungarian(c: &mut Criterion) {
    let mut group = c.benchmark_group("hungarian");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(3);
    // PFNM's workhorse size: 100 local neurons × ~1100 columns.
    let cost: Vec<Vec<f64>> = (0..100)
        .map(|_| (0..1100).map(|_| rng.gen_range(-10.0..10.0)).collect())
        .collect();
    group.bench_function("solve_100x1100", |b| b.iter(|| solve_min(black_box(&cost))));
    group.finish();
}

fn bench_pfnm(c: &mut Criterion) {
    let mut group = c.benchmark_group("pfnm");
    group.sample_size(10);
    let (train, _) = mnist::generate(4, 1_000, 10);
    let mut rng = StdRng::seed_from_u64(5);
    let silos = ofl_data::partition::iid(&train, 5, &mut rng);
    let cfg = TrainConfig {
        dims: vec![784, 50, 10],
        epochs: 2,
        ..TrainConfig::default()
    };
    let trained = train_all_silos(&silos, &cfg);
    let weights: Vec<usize> = trained.iter().map(|t| t.n_examples).collect();
    let models: Vec<_> = trained.into_iter().map(|t| t.model).collect();
    // One client's matching cost late in a `pfnm-loo` sweep: 20 local
    // neurons against 180 atoms, each neuron 784 + 1 + 10 = 795 wide.
    let dim = 795;
    let mut vector =
        |scale: f64| -> Vec<f64> { (0..dim).map(|_| rng.gen_range(-scale..scale)).collect() };
    let neurons: Vec<Vec<f64>> = (0..20).map(|_| vector(0.1)).collect();
    let atoms: Vec<Atom> = (0..180)
        .map(|_| Atom {
            weighted_sum: vector(0.1),
            count: 1,
        })
        .collect();
    group.bench_function("cost_matrix_20x180x795", |b| {
        b.iter(|| {
            cost_matrix(
                black_box(&neurons),
                black_box(&atoms),
                10,
                &PfnmConfig::default(),
            )
        })
    });
    group.bench_function("aggregate_5x50_neurons", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(9);
            aggregate(
                black_box(&models),
                &weights,
                &PfnmConfig::default(),
                &mut rng,
            )
            .unwrap()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_matmul, bench_training, bench_model_codec, bench_hungarian, bench_pfnm
}
criterion_main!(benches);
