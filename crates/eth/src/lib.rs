//! # ofl-eth
//!
//! An Ethereum-like blockchain simulator built from scratch for the OFL-W3
//! reproduction. It stands in for the Sepolia testnet the paper runs on:
//!
//! - [`secp256k1`]: curve arithmetic, ECDSA with RFC-6979 nonces, and
//!   public-key recovery (`ecrecover`).
//! - [`tx`]: EIP-1559 transactions — signing hashes, RLP envelopes, sender
//!   recovery, CREATE address derivation.
//! - [`gas`]: the Yellow-Paper gas schedule subset and intrinsic gas.
//! - [`evm`]: a metered EVM interpreter (arithmetic, control flow, memory,
//!   storage with warm/cold pricing, logs).
//! - [`asm`]: an EVM assembler with labels, used to author contracts.
//! - [`contracts`]: the `CidStorage` contract from the paper's Fig 2, plus a
//!   typed Rust client.
//! - [`state`]: the account/world state, which the EVM only reads.
//! - [`block`] / [`chain`]: receipts, bloom filters, the mempool, PoA block
//!   production on 12-second slots, and EIP-1559 base-fee dynamics.
//! - [`wallet`]: the MetaMask analogue — seed-derived keys, fee summaries,
//!   sign-and-broadcast.
//!
//! ## Example
//!
//! ```
//! use ofl_eth::chain::{Chain, ChainConfig};
//! use ofl_eth::contracts::{cid_storage_init_code, CidStorage};
//! use ofl_eth::wallet::Wallet;
//! use ofl_primitives::u256::U256;
//! use ofl_primitives::wei_per_eth;
//!
//! let wallet = Wallet::from_seed("quickstart", 1);
//! let owner = wallet.addresses()[0];
//! let mut chain = Chain::new(ChainConfig::default(), &[(owner, wei_per_eth())]);
//!
//! // Deploy CidStorage, upload a CID, read it back for free.
//! let hash = wallet
//!     .send(&mut chain, &owner, None, U256::ZERO, cid_storage_init_code())
//!     .unwrap();
//! chain.mine_block(12);
//! let contract = CidStorage::at(chain.receipt(&hash).unwrap().contract_address.unwrap());
//! wallet
//!     .send(
//!         &mut chain,
//!         &owner,
//!         Some(contract.address),
//!         U256::ZERO,
//!         CidStorage::upload_cid_calldata("QmExample"),
//!     )
//!     .unwrap();
//! chain.mine_block(24);
//! assert_eq!(contract.all_cids(&chain, &owner).unwrap(), vec!["QmExample"]);
//! ```

#![forbid(unsafe_code)]

pub mod abi;
pub mod asm;
pub mod block;
pub mod chain;
pub mod contracts;
pub mod evm;
pub mod gas;
pub mod secp256k1;
pub mod state;
pub mod tx;
pub mod wallet;

pub use chain::{Chain, ChainConfig};
pub use contracts::CidStorage;
pub use wallet::{TxEnv, Wallet};
