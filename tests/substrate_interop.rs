//! Substrate interoperability tests: each pair of layers composed directly,
//! without the marketplace orchestration.

use ofl_w3::data::mnist;
use ofl_w3::eth::chain::{Chain, ChainConfig};
use ofl_w3::eth::contracts::{
    cid_count_calldata, cid_storage_init_code, decode_cid_count, decode_get_cid, get_cid_calldata,
    upload_cid_calldata,
};
use ofl_w3::eth::wallet::Wallet;
use ofl_w3::fl::client::{train_local, TrainConfig};
use ofl_w3::ipfs::cid::Cid;
use ofl_w3::ipfs::swarm::{IpfsNode, Swarm};
use ofl_w3::primitives::u256::U256;
use ofl_w3::primitives::wei_per_eth;
use ofl_w3::tensor::serialize::{decode_model, encode_model};

/// model → bytes → IPFS → CID string → contract → read back → fetch →
/// decode → identical predictions. The full data path of Steps 2–6.
#[test]
fn model_roundtrips_through_ipfs_and_chain() {
    // Train a small model.
    let (train, test) = mnist::generate(3, 400, 100);
    let cfg = TrainConfig {
        dims: vec![784, 16, 10],
        epochs: 2,
        ..TrainConfig::default()
    };
    let trained = train_local(&train, &cfg);
    let bytes = encode_model(&trained.model);

    // Owner adds to IPFS.
    let mut swarm = Swarm::new();
    let owner_node = swarm.add_node(IpfsNode::new("owner"));
    let buyer_node = swarm.add_node(IpfsNode::new("buyer"));
    let cid = swarm.node_mut(owner_node).add(&bytes).root;
    let cid_str = cid.to_string_form();

    // Owner records the CID on-chain.
    let wallet = Wallet::from_seed("interop", 2);
    let [owner_addr, buyer_addr]: [_; 2] = wallet.addresses().try_into().expect("two accounts");
    let mut chain = Chain::new(
        ChainConfig::default(),
        &[(owner_addr, wei_per_eth()), (buyer_addr, wei_per_eth())],
    );
    let hash = wallet
        .send(
            &mut chain,
            &owner_addr,
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
    wallet
        .send(
            &mut chain,
            &owner_addr,
            Some(contract),
            U256::ZERO,
            upload_cid_calldata(&cid_str),
        )
        .expect("upload");
    chain.mine_block(24);

    // Buyer reads the CID from the chain and fetches from IPFS.
    let read_back = decode_get_cid(&chain.call(&buyer_addr, &contract, get_cid_calldata(0)))
        .expect("stored string survives the EVM");
    assert_eq!(read_back, cid_str);
    let parsed = Cid::parse(&read_back).expect("chain preserved a valid CID");
    let (fetched, stats) = swarm.fetch(buyer_node, &parsed).expect("available");
    assert!(stats.blocks_fetched >= 1);
    let restored = decode_model(&fetched).expect("valid model bytes");
    assert_eq!(restored, trained.model);
    assert_eq!(
        restored.predict(&test.images),
        trained.model.predict(&test.images)
    );
}

/// Ten concurrent owners writing CIDs: the contract keeps them ordered and
/// duplicate CIDs are allowed (two owners may legally share a model).
#[test]
fn contract_handles_many_writers_and_duplicates() {
    let wallet = Wallet::from_seed("many-writers", 11);
    let genesis: Vec<_> = wallet
        .addresses()
        .into_iter()
        .map(|a| (a, wei_per_eth()))
        .collect();
    let mut chain = Chain::new(ChainConfig::default(), &genesis);
    let deployer = wallet.addresses()[0];
    let hash = wallet
        .send(
            &mut chain,
            &deployer,
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
    let mut expected: Vec<String> = Vec::new();
    let mut t = 12;
    for (i, who) in wallet.addresses().into_iter().enumerate() {
        // Two owners share the same CID on purpose.
        let cid = if i == 7 {
            expected[0].clone()
        } else {
            Cid::v0_of(format!("model-{i}").as_bytes()).to_string_form()
        };
        wallet
            .send(
                &mut chain,
                &who,
                Some(contract),
                U256::ZERO,
                upload_cid_calldata(&cid),
            )
            .expect("upload");
        t += 12;
        chain.mine_block(t);
        expected.push(cid);
    }
    let read = |data| chain.call(&deployer, &contract, data);
    let count = decode_cid_count(&read(cid_count_calldata())).expect("reads");
    let stored: Vec<String> = (0..count)
        .map(|i| decode_get_cid(&read(get_cid_calldata(i))).expect("reads"))
        .collect();
    assert_eq!(stored, expected);
}

/// FL models of different hidden sizes coexist on IPFS; PFNM rejects the
/// mismatch cleanly rather than aggregating garbage.
#[test]
fn pfnm_rejects_heterogeneous_architectures_from_the_wire() {
    let (train, _) = mnist::generate(5, 300, 10);
    let mut swarm = Swarm::new();
    let node = swarm.add_node(IpfsNode::new("owner"));
    let mut models = Vec::new();
    for dims in [vec![784usize, 16, 10], vec![784, 24, 10]] {
        let cfg = TrainConfig {
            dims,
            epochs: 1,
            ..TrainConfig::default()
        };
        let m = train_local(&train, &cfg).model;
        let cid = swarm.node_mut(node).add(&encode_model(&m)).root;
        let (bytes, _) = swarm.fetch(node, &cid).expect("local");
        models.push(decode_model(&bytes).expect("valid"));
    }
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
    // Different hidden widths are fine for PFNM (it matches neurons)…
    let ok = ofl_w3::fl::pfnm::aggregate(
        &models,
        &[1, 1],
        &ofl_w3::fl::pfnm::PfnmConfig::default(),
        &mut rng,
    );
    assert!(ok.is_ok(), "different hidden widths must aggregate");
    // …but a different *input* dimension must be rejected.
    let mut models2 = models;
    models2.push(bad_cfg_model());
    let err = ofl_w3::fl::pfnm::aggregate(
        &models2,
        &[1, 1, 1],
        &ofl_w3::fl::pfnm::PfnmConfig::default(),
        &mut rng,
    );
    assert!(err.is_err());
}

fn bad_cfg_model() -> ofl_w3::tensor::nn::Mlp {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
    ofl_w3::tensor::nn::Mlp::new(&[100, 8, 10], &mut rng)
}
