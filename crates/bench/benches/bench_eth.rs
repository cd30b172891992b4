//! Micro-benchmarks of the blockchain substrate: ECDSA, transaction
//! round-trips, and EVM execution of the CidStorage contract.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ofl_eth::chain::{Chain, ChainConfig};
use ofl_eth::contracts::{cid_storage_init_code, CidStorage};
use ofl_eth::secp256k1::{public_key, recover, sign, verify};
use ofl_eth::tx::{sign_tx, SignedTx, TxRequest};
use ofl_eth::wallet::Wallet;
use ofl_primitives::u256::U256;
use ofl_primitives::{keccak256, wei_per_eth, H160};

fn bench_ecdsa(c: &mut Criterion) {
    let mut group = c.benchmark_group("secp256k1");
    group.sample_size(10);
    let key = U256::from(0xdeadbeefu64);
    let pk = public_key(&key).unwrap();
    let hash = keccak256(b"benchmark message");
    let sig = sign(&key, &hash).unwrap();
    // A full-width key: the fixed-base multiply costs one addition per
    // nonzero window, so a small key would time little more than the
    // final inversion.
    let wide_key = U256::from_be_bytes(&keccak256(b"benchmark key"));
    group.bench_function("public_key", |b| {
        b.iter(|| public_key(black_box(&wide_key)).unwrap())
    });
    group.bench_function("sign", |b| {
        b.iter(|| sign(black_box(&key), black_box(&hash)))
    });
    group.bench_function("verify", |b| {
        b.iter(|| verify(black_box(&pk), black_box(&hash), black_box(&sig)))
    });
    group.bench_function("recover", |b| {
        b.iter(|| recover(black_box(&hash), black_box(&sig)).unwrap())
    });
    group.finish();
}

fn bench_tx(c: &mut Criterion) {
    let mut group = c.benchmark_group("transaction");
    group.sample_size(10);
    let key = U256::from(0x1234u64);
    let req = TxRequest {
        chain_id: 11155111,
        nonce: 0,
        max_priority_fee_per_gas: U256::from(1_500_000_000u64),
        max_fee_per_gas: U256::from(30_000_000_000u64),
        gas_limit: 100_000,
        to: Some(H160::from_slice(&[0x42; 20])),
        value: U256::from(1u64),
        data: CidStorage::upload_cid_calldata("QmYwAPJzv5CZsnA625s3Xf2nemtYgPpHdWEz79ojWnPbdG"),
    };
    group.bench_function("sign_encode", |b| {
        b.iter(|| sign_tx(black_box(req.clone()), &key).unwrap().encode())
    });
    let raw = sign_tx(req, &key).unwrap().encode();
    group.bench_function("decode_recover_sender", |b| {
        b.iter(|| {
            SignedTx::decode(black_box(&raw))
                .unwrap()
                .recover_sender()
                .unwrap()
        })
    });
    group.finish();
}

fn bench_evm(c: &mut Criterion) {
    let mut group = c.benchmark_group("evm");
    // Deploy once, then benchmark call execution through eth_call (pure EVM
    // interpreter work: dispatch + keccak + storage reads).
    let wallet = Wallet::from_seed("bench", 1);
    let owner = wallet.addresses()[0];
    let mut chain = Chain::new(ChainConfig::default(), &[(owner, wei_per_eth())]);
    let hash = wallet
        .send(
            &mut chain,
            &owner,
            None,
            U256::ZERO,
            cid_storage_init_code(),
        )
        .unwrap();
    chain.mine_block(12);
    let contract = CidStorage::at(chain.receipt(&hash).unwrap().contract_address.unwrap());
    // Store one CID so getCid has work to do.
    wallet
        .send(
            &mut chain,
            &owner,
            Some(contract.address),
            U256::ZERO,
            CidStorage::upload_cid_calldata("QmYwAPJzv5CZsnA625s3Xf2nemtYgPpHdWEz79ojWnPbdG"),
        )
        .unwrap();
    chain.mine_block(24);

    group.bench_function("eth_call_getCid", |b| {
        b.iter(|| contract.get_cid(black_box(&chain), &owner, 0).unwrap())
    });
    group.bench_function("eth_call_cidCount", |b| {
        b.iter(|| contract.cid_count(black_box(&chain), &owner).unwrap())
    });
    group.bench_function("estimate_gas_uploadCid", |b| {
        let data = CidStorage::upload_cid_calldata("QmBenchmarkCidBenchmarkCidBenchmarkCidBench");
        b.iter(|| chain.estimate_gas(&owner, Some(&contract.address), black_box(&data)))
    });
    group.finish();
}

fn bench_block_production(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain");
    group.sample_size(10);
    group.bench_function("mine_block_10_transfers", |b| {
        b.iter_with_setup(
            || {
                let wallet = Wallet::from_seed("bench-mine", 11);
                let addrs = wallet.addresses();
                let mut chain = Chain::new(ChainConfig::default(), &[(addrs[0], wei_per_eth())]);
                for n in 0..10u64 {
                    let req = TxRequest {
                        chain_id: chain.config().chain_id,
                        nonce: n,
                        max_priority_fee_per_gas: U256::from(1_500_000_000u64),
                        max_fee_per_gas: U256::from(40_000_000_000u64),
                        gas_limit: 21_000,
                        to: Some(H160::from_slice(&[9; 20])),
                        value: U256::ONE,
                        data: vec![],
                    };
                    let key = wallet.account(&addrs[0]).unwrap().private_key;
                    chain.submit(sign_tx(req, &key).unwrap()).unwrap();
                }
                chain
            },
            |mut chain| {
                chain.mine_block(12);
                black_box(chain.height())
            },
        )
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_ecdsa, bench_tx, bench_evm, bench_block_production
}
criterion_main!(benches);
