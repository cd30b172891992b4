//! Model sharing over IPFS: content addressing, integrity verification, and
//! tamper detection — the substrate behind the paper's Steps 2–6.
//!
//! A model owner trains a network, serializes it (317 KB, as in §4.4), adds
//! it to the IPFS swarm, and shares only the CID. The buyer fetches by CID,
//! the blocks verify against their hashes in transit, and the decoded model
//! predicts identically to the original. A tampered block is rejected.
//!
//! Run with: `cargo run --release --example model_sharing`

use ofl_w3::data::mnist;
use ofl_w3::fl::client::{train_local, TrainConfig};
use ofl_w3::ipfs::cid::Cid;
use ofl_w3::ipfs::swarm::{IpfsNode, Swarm};
use ofl_w3::tensor::serialize::{decode_model, encode_model};

fn main() {
    println!("=== training a model to share ===");
    let (train, test) = mnist::generate(7, 1_000, 300);
    let cfg = TrainConfig {
        dims: vec![784, 100, 10],
        epochs: 5,
        ..TrainConfig::default()
    };
    let trained = train_local(&train, &cfg);
    let acc = trained.model.accuracy(&test.images, &test.labels);
    println!(
        "owner's local model: {:.1} % test accuracy, {} parameters",
        acc * 100.0,
        trained.model.param_count()
    );

    println!("\n=== sharing over IPFS ===");
    let bytes = encode_model(&trained.model);
    println!(
        "serialized model: {} bytes (the paper reports 317 KB)",
        bytes.len()
    );
    let mut swarm = Swarm::new();
    let owner = swarm.add_node(IpfsNode::new("owner"));
    let buyer = swarm.add_node(IpfsNode::new("buyer"));
    let added = swarm.node_mut(owner).add(&bytes);
    println!(
        "added as {} blocks; root CID (goes on-chain): {}",
        added.blocks, added.root
    );
    // 317 KB exceeds the 256 KiB chunk size → multi-block DAG with a CIDv1
    // root (`b…`), as `ipfs add --cid-version=1` produces. Files under one
    // chunk get classic 46-char `Qm…` CIDv0 identifiers.
    assert_eq!(added.root.version(), 1);
    assert_eq!(added.blocks, 3, "2 leaves + 1 root");

    println!("\n=== buyer retrieves by CID ===");
    let (fetched, stats) = swarm
        .fetch(buyer, &added.root)
        .expect("all blocks available");
    #[expect(clippy::disallowed_methods, reason = "sorted on the next line")]
    let mut providers: Vec<&String> = stats.providers.keys().collect();
    providers.sort();
    println!(
        "fetched {} blocks / {} bytes in {} want-list rounds from {:?}",
        stats.blocks_fetched, stats.bytes_fetched, stats.rounds, providers
    );
    let restored = decode_model(&fetched).expect("valid model bytes");
    assert_eq!(restored, trained.model, "bit-exact model transfer");
    let restored_acc = restored.accuracy(&test.images, &test.labels);
    println!(
        "restored model predicts identically: {:.1} % accuracy  ✓",
        restored_acc * 100.0
    );

    println!("\n=== tamper detection ===");
    let mut corrupt = fetched.clone();
    corrupt[1000] ^= 0xff;
    let honest_cid = Cid::v0_of(&fetched);
    let corrupt_cid = Cid::v0_of(&corrupt);
    println!("honest  CID: {honest_cid}");
    println!("corrupt CID: {corrupt_cid}");
    assert_ne!(honest_cid, corrupt_cid);
    // A malicious node cannot serve corrupted bytes under the honest CID:
    // the blockstore verifies hashes on insert.
    let mut mallory = IpfsNode::new("mallory");
    let result = mallory
        .store_mut()
        .put(added.root.clone(), corrupt[..].to_vec());
    println!("storing corrupt bytes under the honest CID: {result:?}  (rejected ✓)");
    assert!(result.is_err());
}
