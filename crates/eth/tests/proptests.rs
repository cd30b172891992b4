//! Property-based tests over the blockchain substrate: transaction codec
//! laws, ABI roundtrips, EVM arithmetic vs reference semantics, secp256k1
//! field and scalar arithmetic vs the `U256` reference, and ECDSA
//! sign/verify/recover for arbitrary keys, messages and garbage
//! signatures.

use ofl_eth::abi::{self, Type, Value};
use ofl_eth::secp256k1::{self, Affine, EcdsaError, Fe, Scalar, Signature, N, P};
use ofl_eth::tx::{sign_tx, SignedTx, TxRequest};
use ofl_primitives::u256::U256;
use ofl_primitives::{keccak256, H160};
use proptest::prelude::*;

fn arb_u256() -> impl Strategy<Value = U256> {
    proptest::array::uniform4(any::<u64>()).prop_map(U256)
}

fn arb_address() -> impl Strategy<Value = H160> {
    proptest::array::uniform20(any::<u8>()).prop_map(H160::from_bytes)
}

fn arb_private_key() -> impl Strategy<Value = U256> {
    // Almost any 256-bit value is a valid key; filter the measure-zero rest.
    arb_u256().prop_filter("in [1, n-1]", |k| !k.is_zero() && *k < N)
}

fn arb_tx_request() -> impl Strategy<Value = TxRequest> {
    (
        1u64..1u64 << 40,
        any::<u64>(),
        arb_u256(),
        arb_u256(),
        21_000u64..30_000_000,
        proptest::option::of(arb_address()),
        arb_u256(),
        proptest::collection::vec(any::<u8>(), 0..256),
    )
        .prop_map(
            |(chain_id, nonce, tip, fee, gas_limit, to, value, data)| TxRequest {
                chain_id,
                nonce,
                max_priority_fee_per_gas: tip,
                max_fee_per_gas: fee,
                gas_limit,
                to,
                value,
                data,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tx_sign_encode_decode_recover_roundtrip(
        req in arb_tx_request(),
        key in arb_private_key(),
    ) {
        let expected_sender = secp256k1::public_key(&key)
            .unwrap()
            .to_eth_address()
            .unwrap();
        let tx = sign_tx(req, &key).unwrap();
        let raw = tx.encode();
        let decoded = SignedTx::decode(&raw).unwrap();
        prop_assert_eq!(&decoded, &tx);
        prop_assert_eq!(decoded.recover_sender().unwrap(), expected_sender);
        prop_assert_eq!(decoded.hash(), tx.hash());
    }

    #[test]
    fn ecdsa_sign_verify_recover(
        key in arb_private_key(),
        msg in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let hash = keccak256(&msg);
        let pk = secp256k1::public_key(&key).unwrap();
        let sig = secp256k1::sign(&key, &hash).unwrap();
        prop_assert!(secp256k1::verify(&pk, &hash, &sig));
        prop_assert_eq!(secp256k1::recover(&hash, &sig).unwrap(), pk);
        // Signature is deterministic (RFC 6979).
        let sig2 = secp256k1::sign(&key, &hash).unwrap();
        prop_assert_eq!(sig, sig2);
    }

    #[test]
    fn ecdsa_rejects_wrong_message(
        key in arb_private_key(),
        msg in proptest::collection::vec(any::<u8>(), 1..64),
        flip in 0usize..32,
    ) {
        let hash = keccak256(&msg);
        let pk = secp256k1::public_key(&key).unwrap();
        let sig = secp256k1::sign(&key, &hash).unwrap();
        let mut other = hash;
        other[flip % 32] ^= 0x01;
        prop_assert!(!secp256k1::verify(&pk, &other, &sig));
    }
}

/// Values biased toward the reduction edges of both moduli (0, 1, m − 2,
/// m − 1, m, 2^255, 2^256 − 1), mixed half and half with uniform ones.
fn arb_edgy_u256() -> impl Strategy<Value = U256> {
    let two = U256::from_u64(2);
    let two_255 = U256::ONE.shl(255);
    let edges = vec![
        U256::ZERO,
        U256::ONE,
        P.wrapping_sub(&two),
        P.wrapping_sub(&U256::ONE),
        P,
        N.wrapping_sub(&two),
        N.wrapping_sub(&U256::ONE),
        N,
        two_255,
        two_255.wrapping_sub(&U256::ONE),
        U256::MAX,
    ];
    prop_oneof![proptest::sample::select(edges), arb_u256()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn field_ops_match_u256_reference(a in arb_edgy_u256(), b in arb_edgy_u256()) {
        let (ra, rb) = (a.div_rem(&P).1, b.div_rem(&P).1);
        let (fa, fb) = (Fe::new(a), Fe::new(b));
        prop_assert_eq!(fa.to_u256(), ra);
        prop_assert_eq!(fa.add(fb).to_u256(), ra.add_mod(&rb, &P));
        prop_assert_eq!(fa.sub(fb).to_u256(), ra.sub_mod(&rb, &P));
        prop_assert_eq!(fa.neg().to_u256(), U256::ZERO.sub_mod(&ra, &P));
        prop_assert_eq!(fa.mul(fb).to_u256(), ra.mul_mod(&rb, &P));
        prop_assert_eq!(fa.square().to_u256(), ra.mul_mod(&ra, &P));
        prop_assert_eq!(fa.inv().map(Fe::to_u256), ra.inv_mod_prime(&P));
        // sqrt is a^((p+1)/4), kept only when it squares back to a.
        let cand = ra.pow_mod(&P.wrapping_add(&U256::ONE).shr(2), &P);
        let root = (cand.mul_mod(&cand, &P) == ra).then_some(cand);
        prop_assert_eq!(fa.sqrt().map(Fe::to_u256), root);
    }

    #[test]
    fn scalar_ops_match_u256_reference(a in arb_edgy_u256(), b in arb_edgy_u256()) {
        let (ra, rb) = (a.div_rem(&N).1, b.div_rem(&N).1);
        let (sa, sb) = (Scalar::new(a), Scalar::new(b));
        prop_assert_eq!(sa.to_u256(), ra);
        prop_assert_eq!(sa.add(sb).to_u256(), ra.add_mod(&rb, &N));
        prop_assert_eq!(sa.neg().to_u256(), U256::ZERO.sub_mod(&ra, &N));
        prop_assert_eq!(sa.mul(sb).to_u256(), ra.mul_mod(&rb, &N));
        prop_assert_eq!(sa.inv().map(Scalar::to_u256), ra.inv_mod_prime(&N));
    }

    #[test]
    fn recover_of_sign_is_the_signers_address(
        key in arb_private_key(),
        msg in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let hash = keccak256(&msg);
        let address = secp256k1::public_key(&key).unwrap().to_eth_address().unwrap();
        let sig = secp256k1::sign(&key, &hash).unwrap();
        prop_assert_eq!(secp256k1::recover_address(&hash, &sig), Ok(address));
    }

    #[test]
    fn garbage_signatures_fail_with_stable_errors(
        r in arb_edgy_u256(),
        s in arb_edgy_u256(),
        recovery_id in 0u8..4,
        msg in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let hash = keccak256(&msg);
        let sig = Signature { r, s, recovery_id };
        let out_of_range = |v: U256| v.is_zero() || v >= N;
        let got = secp256k1::recover(&hash, &sig);
        if out_of_range(r) || out_of_range(s) || recovery_id > 1 {
            prop_assert_eq!(got, Err(EcdsaError::InvalidSignature));
        } else if Affine::lift_x(Fe::new(r), recovery_id == 1).is_none() {
            prop_assert_eq!(got, Err(EcdsaError::RecoveryFailed));
        } else {
            // Some key signed it: the recovered key verifies it, unless s
            // is the malleable high twin that verify rejects.
            let q = got.unwrap();
            prop_assert!(q.is_on_curve());
            let high = Scalar::from_canonical(s).unwrap().is_high();
            prop_assert_eq!(secp256k1::verify(&q, &hash, &sig), !high);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn abi_uint_roundtrip(v in arb_u256()) {
        let enc = abi::encode(&[Value::Uint(v)]);
        let dec = abi::decode(&[Type::Uint], &enc).unwrap();
        prop_assert_eq!(dec[0].as_uint().unwrap(), v);
    }

    #[test]
    fn abi_mixed_tuple_roundtrip(
        v in arb_u256(),
        addr in arb_address(),
        flag in any::<bool>(),
        s in "[a-zA-Z0-9]{0,80}",
        b in proptest::collection::vec(any::<u8>(), 0..100),
    ) {
        let vals = vec![
            Value::Uint(v),
            Value::String(s.clone()),
            Value::Address(addr),
            Value::Bytes(b.clone()),
            Value::Bool(flag),
        ];
        let enc = abi::encode(&vals);
        let dec = abi::decode(
            &[Type::Uint, Type::String, Type::Address, Type::Bytes, Type::Bool],
            &enc,
        ).unwrap();
        prop_assert_eq!(dec, vals);
    }

    #[test]
    fn selector_is_prefix_of_topic(sig in "[a-z]{1,12}\\((uint256|string|address)?\\)") {
        let sel = abi::selector(&sig);
        let topic = abi::event_topic(&sig);
        prop_assert_eq!(&sel[..], &topic[..4]);
    }
}

/// EVM arithmetic opcodes agree with U256 reference semantics for arbitrary
/// operands pushed as immediates.
mod evm_semantics {
    use super::*;
    use ofl_eth::evm::{Env, Host, Interpreter};
    use ofl_primitives::H256;
    use std::collections::HashMap;

    #[derive(Default)]
    struct NullHost(HashMap<(H160, H256), U256>);

    impl Host for NullHost {
        fn sload(&self, a: &H160, k: &H256) -> U256 {
            self.0.get(&(*a, *k)).copied().unwrap_or(U256::ZERO)
        }
        fn sstore(&mut self, a: &H160, k: &H256, v: U256) {
            self.0.insert((*a, *k), v);
        }
        fn balance(&self, _: &H160) -> U256 {
            U256::ZERO
        }
    }

    fn run_binop(op: u8, a: U256, b: U256) -> U256 {
        // PUSH32 b, PUSH32 a, OP, MSTORE, RETURN — stack top is `a`.
        let mut code = vec![0x7f];
        code.extend(b.to_be_bytes());
        code.push(0x7f);
        code.extend(a.to_be_bytes());
        code.push(op);
        code.extend([0x60, 0x00, 0x52, 0x60, 0x20, 0x60, 0x00, 0xf3]);
        let env = Env {
            address: H160::ZERO,
            caller: H160::ZERO,
            origin: H160::ZERO,
            call_value: U256::ZERO,
            calldata: vec![],
            gas_price: U256::ZERO,
            block_number: 0,
            timestamp: 0,
            gas_limit: 30_000_000,
            chain_id: 1,
            base_fee: U256::ZERO,
        };
        let mut host = NullHost::default();
        let result = Interpreter::new(&mut host, env, code, 1_000_000).run();
        assert!(result.is_success(), "{:?}", result.outcome);
        U256::from_be_slice(&result.output)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn add_matches_reference(a in arb_u256(), b in arb_u256()) {
            prop_assert_eq!(run_binop(0x01, a, b), a.wrapping_add(&b));
        }

        #[test]
        fn mul_matches_reference(a in arb_u256(), b in arb_u256()) {
            prop_assert_eq!(run_binop(0x02, a, b), a.wrapping_mul(&b));
        }

        #[test]
        fn sub_matches_reference(a in arb_u256(), b in arb_u256()) {
            prop_assert_eq!(run_binop(0x03, a, b), a.wrapping_sub(&b));
        }

        #[test]
        fn div_mod_match_reference(a in arb_u256(), b in arb_u256()) {
            let (q, r) = a.div_rem(&b);
            prop_assert_eq!(run_binop(0x04, a, b), q);
            prop_assert_eq!(run_binop(0x06, a, b), r);
        }

        #[test]
        fn comparison_matches_reference(a in arb_u256(), b in arb_u256()) {
            prop_assert_eq!(run_binop(0x10, a, b), U256::from((a < b) as u64));
            prop_assert_eq!(run_binop(0x11, a, b), U256::from((a > b) as u64));
            prop_assert_eq!(run_binop(0x14, a, b), U256::from((a == b) as u64));
        }

        #[test]
        fn bitwise_matches_reference(a in arb_u256(), b in arb_u256()) {
            prop_assert_eq!(run_binop(0x16, a, b), a & b);
            prop_assert_eq!(run_binop(0x17, a, b), a | b);
            prop_assert_eq!(run_binop(0x18, a, b), a ^ b);
        }

        #[test]
        fn shifts_match_reference(a in arb_u256(), s in 0u64..512) {
            // SHL/SHR pop shift from the top.
            let shift = U256::from(s);
            let expect_shl = if s < 256 { a.shl(s as u32) } else { U256::ZERO };
            let expect_shr = if s < 256 { a.shr(s as u32) } else { U256::ZERO };
            prop_assert_eq!(run_binop(0x1b, shift, a), expect_shl);
            prop_assert_eq!(run_binop(0x1c, shift, a), expect_shr);
        }
    }
}
