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
//! - [`contracts`]: the `CidStorage` contract from the paper's Fig 2 and
//!   its ABI: calldata builders, the event topic, and returndata decoders.
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
//! use ofl_eth::contracts::{
//!     cid_count_calldata, cid_storage_init_code, decode_cid_count, decode_get_cid,
//!     get_cid_calldata, upload_cid_calldata,
//! };
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
//! let contract = chain.receipt(&hash).unwrap().contract_address.unwrap();
//! wallet
//!     .send(
//!         &mut chain,
//!         &owner,
//!         Some(contract),
//!         U256::ZERO,
//!         upload_cid_calldata("QmExample"),
//!     )
//!     .unwrap();
//! chain.mine_block(24);
//! let count = chain.call(&owner, &contract, cid_count_calldata());
//! assert_eq!(decode_cid_count(&count), Ok(1));
//! let cid = chain.call(&owner, &contract, get_cid_calldata(0));
//! assert_eq!(decode_get_cid(&cid).unwrap(), "QmExample");
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
pub use wallet::{TxEnv, Wallet};
