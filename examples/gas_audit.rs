//! Gas audit: drive the `CidStorage` contract directly against the
//! blockchain simulator and audit every wei — MetaMask-style confirmation
//! dialogs, receipts, EIP-1559 base-fee dynamics, burn vs tip accounting.
//!
//! This example uses the `ofl-eth` substrate on its own, without the FL
//! layers, showing it works as a general-purpose chain simulator.
//!
//! Run with: `cargo run --release --example gas_audit`

use ofl_w3::eth::chain::{Chain, ChainConfig};
use ofl_w3::eth::contracts::{
    cid_count_calldata, cid_storage_init_code, decode_cid_count, decode_get_cid, get_cid_calldata,
    upload_cid_calldata,
};
use ofl_w3::eth::wallet::Wallet;
use ofl_w3::primitives::u256::U256;
use ofl_w3::primitives::{format_eth, wei_per_eth};

fn main() {
    let wallet = Wallet::from_seed("gas-audit", 3);
    let [deployer, alice, bob]: [_; 3] = wallet.addresses().try_into().expect("three accounts");
    let genesis: Vec<_> = wallet
        .addresses()
        .into_iter()
        .map(|a| (a, wei_per_eth()))
        .collect();
    let mut chain = Chain::new(ChainConfig::default(), &genesis);
    let supply0 = chain.state().total_supply();

    println!("=== deployment ===");
    let summary = wallet.summarize(
        &chain,
        &deployer,
        None,
        &U256::ZERO,
        &cid_storage_init_code(),
    );
    println!("{}", summary.display());
    let hash = wallet
        .send(
            &mut chain,
            &deployer,
            None,
            U256::ZERO,
            cid_storage_init_code(),
        )
        .expect("deploy accepted");
    chain.mine_block(12);
    let receipt = chain.receipt(&hash).expect("mined").clone();
    let contract = receipt.contract_address.expect("created");
    println!(
        "deployed at {} | gas {} | fee {} ETH | base fee now {} gwei",
        contract.to_checksum(),
        receipt.gas_used,
        format_eth(&receipt.fee, 8),
        chain.base_fee().div_rem(&U256::from(1_000_000_000u64)).0
    );

    println!("\n=== uploads from two users ===");
    for (who, name, cid) in [
        (
            alice,
            "alice",
            "QmAliceModelV1AliceModelV1AliceModelV1Alice",
        ),
        (bob, "bob", "QmBobModelV1BobModelV1BobModelV1BobModelV1B"),
    ] {
        let data = upload_cid_calldata(cid);
        let summary = wallet.summarize(&chain, &who, Some(&contract), &U256::ZERO, &data);
        println!("\n[{name}] MetaMask says:\n{}", summary.display());
        let h = wallet
            .send(&mut chain, &who, Some(contract), U256::ZERO, data)
            .expect("upload accepted");
        chain.mine_block(24);
        let r = chain.receipt(&h).expect("mined");
        println!(
            "[{name}] confirmed in block {} | gas {} | fee {} ETH | event topics {:?}",
            r.block_number,
            r.gas_used,
            format_eth(&r.fee, 8),
            r.logs[0].topics.len()
        );
    }

    println!("\n=== free reads ===");
    let count =
        decode_cid_count(&chain.call(&deployer, &contract, cid_count_calldata())).expect("reads");
    println!("cidCount() = {count} (no gas charged, no block mined)");
    for i in 0..count {
        println!(
            "getCid({i}) = {}",
            decode_get_cid(&chain.call(&deployer, &contract, get_cid_calldata(i))).expect("reads")
        );
    }

    println!("\n=== conservation audit ===");
    let supply_now = chain.state().total_supply();
    let burned = chain.burned();
    println!("initial supply : {} ETH", format_eth(&supply0, 8));
    println!("current supply : {} ETH", format_eth(&supply_now, 8));
    println!("burned (EIP-1559): {} ETH", format_eth(&burned, 8));
    println!(
        "coinbase tips  : {} ETH",
        format_eth(&chain.balance(&chain.config().coinbase), 8)
    );
    assert_eq!(
        supply_now.wrapping_add(&burned),
        supply0,
        "wei must be conserved: supply + burned == genesis supply"
    );
    println!("supply + burned == genesis supply  ✓");
}
