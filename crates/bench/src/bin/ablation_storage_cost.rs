//! **Ablation A2** — CID indirection vs storing models on-chain.
//!
//! Step 4 of the paper: sending a CID "conserves on-chain space, with each
//! model occupying only 256 bits. As a comparison, at least Kb-level storage
//! is needed if directly saving the model on the blockchain, which proves to
//! be impractical within the ETH network."
//!
//! We measure `uploadCid` gas for growing payload sizes on the real EVM (the
//! contract's long-string path is a generic blob store), fit the per-byte
//! cost, and extrapolate to the paper's 317 KB model.
//!
//! Run: `cargo run -p ofl-bench --release --bin ablation_storage_cost`

use ofl_bench::{header, write_record};
use ofl_eth::chain::{Chain, ChainConfig};
use ofl_eth::contracts::{cid_storage_init_code, upload_cid_calldata};
use ofl_eth::wallet::Wallet;
use ofl_primitives::u256::U256;
use ofl_primitives::{format_eth, wei_per_eth};
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    payload_bytes: usize,
    gas_used: u64,
    fee_eth: String,
}

#[derive(Serialize)]
struct Record {
    cid_point: Point,
    sweep: Vec<Point>,
    gas_per_byte: f64,
    model_bytes: usize,
    projected_model_gas: u64,
    block_gas_limit: u64,
    blocks_needed: f64,
    fee_ratio_model_over_cid: f64,
}

fn main() {
    header("Ablation A2: on-chain CID (32 B digest) vs on-chain model (317 KB)");

    let wallet = Wallet::from_seed("storage-ablation", 1);
    let owner = wallet.addresses()[0];
    let mut chain = Chain::new(
        ChainConfig::default(),
        &[(owner, wei_per_eth().wrapping_mul(&U256::from(100u64)))],
    );
    let hash = wallet
        .send(
            &mut chain,
            &owner,
            None,
            U256::ZERO,
            cid_storage_init_code(),
        )
        .expect("deploy");
    chain.mine_block(12);
    let contract = chain
        .receipt(&hash)
        .expect("mined")
        .contract_address
        .expect("created");

    let price = chain.base_fee().low_u64() as f64 + 1.5e9;

    // Measured sweep: a CID-sized string, then growing blobs.
    let mut sweep = Vec::new();
    let mut time = 12u64;
    let measure = |chain: &mut Chain, time: &mut u64, payload: usize| -> (u64, U256) {
        let blob: String = "a".repeat(payload);
        let hash = wallet
            .send(
                chain,
                &owner,
                Some(contract),
                U256::ZERO,
                upload_cid_calldata(&blob),
            )
            .expect("upload blob");
        *time += 12;
        chain.mine_block(*time);
        let r = chain.receipt(&hash).expect("mined").clone();
        assert!(r.is_success(), "blob of {payload} B failed");
        (r.gas_used, r.fee)
    };

    let (cid_gas, cid_fee) = measure(&mut chain, &mut time, 46); // CIDv0 string
    let cid_point = Point {
        payload_bytes: 46,
        gas_used: cid_gas,
        fee_eth: format_eth(&cid_fee, 8),
    };
    println!("\nmeasured on the EVM (long-string storage path):");
    println!("{:<16} {:>12} {:>14}", "Payload (B)", "Gas", "Fee (ETH)");
    println!(
        "{:<16} {:>12} {:>14}   <- 46-byte CID (what OFL-W3 stores)",
        46,
        cid_gas,
        format_eth(&cid_fee, 8)
    );
    // 16 KiB is the largest blob whose gas (≈12 M) still fits a block after
    // the wallet's 1.5× limit margin; beyond that the chain itself refuses —
    // which is the point of this ablation.
    for payload in [256usize, 1024, 4096, 8_192, 16_384] {
        let (gas, fee) = measure(&mut chain, &mut time, payload);
        println!("{payload:<16} {gas:>12} {:>14}", format_eth(&fee, 8));
        sweep.push(Point {
            payload_bytes: payload,
            gas_used: gas,
            fee_eth: format_eth(&fee, 8),
        });
    }

    // Per-byte slope from the two largest measurements.
    let a = &sweep[sweep.len() - 2];
    let b = &sweep[sweep.len() - 1];
    let gas_per_byte =
        (b.gas_used - a.gas_used) as f64 / (b.payload_bytes - a.payload_bytes) as f64;
    let model_bytes = 318_064usize; // the paper's 317 KB model
    let projected = b.gas_used as f64 + gas_per_byte * (model_bytes - b.payload_bytes) as f64;
    let block_limit = chain.config().gas_limit;
    let blocks_needed = projected / block_limit as f64;
    let ratio = projected / cid_gas as f64;

    println!("\nper-byte storage cost: {gas_per_byte:.1} gas/byte");
    println!(
        "projected cost to store the 317 KB model on-chain: {:.0} gas ≈ {:.4} ETH",
        projected,
        projected * price / 1e18
    );
    println!(
        "  = {blocks_needed:.1}× the {block_limit} block gas limit → cannot fit in any block \
         (the paper: \"impractical within the ETH network\")"
    );
    println!("  = {ratio:.0}× the cost of storing the CID");

    write_record(
        "ablation_storage_cost",
        &Record {
            cid_point,
            sweep,
            gas_per_byte,
            model_bytes,
            projected_model_gas: projected as u64,
            block_gas_limit: block_limit,
            blocks_needed,
            fee_ratio_model_over_cid: ratio,
        },
    );
}
