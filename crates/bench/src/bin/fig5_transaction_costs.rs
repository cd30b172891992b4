//! **Figure 5** — Transaction costs shown on MetaMask.
//!
//! The paper reports three transaction types with distinct gas fees:
//! contract deployment the heaviest (≈0.002 ETH), CID submission and
//! payment both small writes, and CID downloads free (no state change).
//!
//! This binary measures all three from the EVM gas meter under the default
//! ~12 gwei base fee and prints MetaMask-style confirmation summaries.
//!
//! Run: `cargo run -p ofl-bench --release --bin fig5_transaction_costs`

use ofl_bench::{header, write_record};
use ofl_core::config::MarketConfig;
use ofl_core::market::Marketplace;
use ofl_core::EndpointId;
use ofl_primitives::format_eth;
use ofl_primitives::u256::U256;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    label: String,
    gas_used: u64,
    fee_eth: String,
}

#[derive(Serialize)]
struct Record {
    rows: Vec<Row>,
    deploy_fee_eth: String,
    mean_upload_fee_eth: String,
    payment_fee_eth: String,
    download_fee_eth: String,
    paper_deploy_fee_eth: f64,
}

fn mean_fee(rows: &[(u64, U256)]) -> U256 {
    if rows.is_empty() {
        return U256::ZERO;
    }
    let total = rows
        .iter()
        .fold(U256::ZERO, |acc, (_, f)| acc.wrapping_add(f));
    total.div_rem(&U256::from(rows.len() as u64)).0
}

fn main() {
    header("Figure 5: transaction costs (gas fees) by transaction type");
    // A smaller FL config keeps the run fast; gas numbers are independent of
    // the ML workload size (the CID is always 46 bytes).
    let mut config = MarketConfig::small_test();
    config.n_owners = 10;
    config.n_train = 1000;
    let (mut market, report) = Marketplace::run(config).expect("session");

    println!(
        "\n{:<16} {:>12} {:>16}",
        "Transaction", "Gas used", "Fee (ETH)"
    );
    let mut rows = Vec::new();
    let mut uploads = Vec::new();
    let mut payments = Vec::new();
    let mut deploy = (0u64, U256::ZERO);
    for g in &report.gas {
        println!(
            "{:<16} {:>12} {:>16}",
            g.label,
            g.gas_used,
            format_eth(&g.fee_wei, 8)
        );
        rows.push(Row {
            label: g.label.clone(),
            gas_used: g.gas_used,
            fee_eth: format_eth(&g.fee_wei, 8),
        });
        if g.label == "deploy" {
            deploy = (g.gas_used, g.fee_wei);
        } else if g.label.starts_with("uploadCid") {
            uploads.push((g.gas_used, g.fee_wei));
        } else if g.label.starts_with("payment") {
            payments.push((g.gas_used, g.fee_wei));
        }
    }
    println!(
        "{:<16} {:>12} {:>16}   (eth_call reads are free)",
        "downloadCid", 0, "0.00000000"
    );

    let mean_upload = mean_fee(&uploads);
    let mean_payment = mean_fee(&payments);
    println!("\nsummary (cf. paper Fig 5b–d):");
    println!(
        "  deployment       {:>10} gas   {} ETH   (paper: ~0.002 ETH, heaviest)",
        deploy.0,
        format_eth(&deploy.1, 8)
    );
    println!(
        "  uploadCid (mean) {:>10} gas   {} ETH",
        uploads.iter().map(|(g, _)| *g).sum::<u64>() / uploads.len().max(1) as u64,
        format_eth(&mean_upload, 8)
    );
    println!(
        "  payment (mean)   {:>10} gas   {} ETH",
        21_000,
        format_eth(&mean_payment, 8)
    );
    println!("  download CIDs             0 gas   0.00000000 ETH (no data written)");
    println!(
        "\nordering check: deploy > uploadCid > payment > download: {}",
        deploy.0 > uploads[0].0 && uploads[0].0 > 21_000
    );

    // MetaMask-style confirmation (Fig 5a) for an uploadCid. The dialog's
    // numbers come from the same RPC signing-environment batch the wallet
    // signs from — not a local chain read.
    let owner = market.owners[0].address;
    let contract = market.contract.expect("deployed").address;
    let data =
        ofl_eth::contracts::upload_cid_calldata("QmYwAPJzv5CZsnA625s3Xf2nemtYgPpHdWEz79ojWnPbdG");
    let (env, _rpc_cost) = market
        .world
        .endpoint(EndpointId(0))
        .tx_env(&owner, Some(&contract), &data)
        .expect("signing environment over RPC");
    let summary =
        market
            .session
            .wallet
            .summarize_with_env(&env, Some(&contract), &U256::ZERO, &data);
    println!("\nMetaMask confirmation dialog (Fig 5a analogue):");
    for line in summary.display().lines() {
        println!("  | {line}");
    }

    write_record(
        "fig5_transaction_costs",
        &Record {
            rows,
            deploy_fee_eth: format_eth(&deploy.1, 8),
            mean_upload_fee_eth: format_eth(&mean_upload, 8),
            payment_fee_eth: format_eth(&mean_payment, 8),
            download_fee_eth: "0".into(),
            paper_deploy_fee_eth: 0.002,
        },
    );
}
