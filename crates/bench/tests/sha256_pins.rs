//! Absolute pins for the crypto layer: exact SHA-256 compression counts
//! (64-byte blocks, from `fair_crypto::sha256::compressions`) of Lamport
//! signatures and of one fixed-seed contract-signing trial.
//!
//! Timings of the hash move with the CPU and its load; these counts move
//! only when a protocol hashes more or fewer blocks, so a regression in the
//! crypto layer shows here as a number of blocks. Hashing `n` bytes costs
//! `(n + 9).div_ceil(64)` blocks.

use fair_bench::runner::BASE_SEED;
use fair_core::Scenario;
use fair_crypto::sha256::compressions;
use fair_crypto::sign;
use fair_protocols::scenarios::{ContractScenario, Strategy};
use fair_runtime::execute;
use fair_simlab::trial_seed;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Compressions `f` performs on this thread.
fn blocks<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = compressions();
    let out = f();
    (compressions() - before, out)
}

/// Blocks of the domain-separated message hash sign and verify start
/// with: `sha256_parts(["fair-protocols/lamport", message])` frames the
/// two parts with three 8-byte lengths, so it hashes 46 + |message| bytes.
fn message_hash_blocks(message: &[u8]) -> u64 {
    (46 + message.len() as u64 + 9).div_ceil(64)
}

#[test]
fn lamport_block_counts_are_pinned() {
    let mut rng = StdRng::seed_from_u64(1);
    // One 32-byte preimage per block: 2 × 256 of them.
    let (n, (sk, vk)) = blocks(|| sign::keygen(&mut rng));
    assert_eq!(n, 512);
    for (message, hash_blocks) in [(&b"message"[..], 1), (&[7u8; 200][..], 4)] {
        assert_eq!(message_hash_blocks(message), hash_blocks);
        let (n, sig) = blocks(|| sign::sign(&sk, message));
        assert_eq!(n, hash_blocks);
        // Verification rehashes every one of the 256 revealed preimages.
        let (n, ok) = blocks(|| sign::verify(&vk, message, &sig));
        assert!(ok);
        assert_eq!(n, 256 + hash_blocks);
    }
}

#[test]
fn pi1_trial_block_count_is_pinned() {
    let scenario = ContractScenario {
        pi2: false,
        strategy: Strategy::NoCorruption,
    };
    let mut rng = StdRng::seed_from_u64(trial_seed(BASE_SEED, 0));
    let (n, _) = blocks(|| {
        let mut trial = scenario.build(&mut rng);
        execute(
            trial.instance,
            trial.adversary.as_mut(),
            &mut rng,
            trial.max_rounds,
        )
        .expect("scenario builds a well-formed instance")
    });
    // "the contract" (12 bytes) hashes to 2 blocks for sign/verify. Each
    // party commits to its 8 217-byte signed contract (randomness, message
    // and three length frames: 8 273 bytes, 130 blocks) and, unused in Π1,
    // to a one-byte coin (57 bytes, 2 blocks).
    let (msg_hash, commit, coin) = (message_hash_blocks(b"the contract"), 130, 2);
    assert_eq!(msg_hash, 2);
    let keygen = 2 * 512;
    // The scenario signs both contracts once for the ground truth, then
    // each party signs and commits to its own.
    let build = 2 * msg_hash + 2 * (msg_hash + commit + coin);
    // Each party checks the other's opening and signature.
    let execute = 2 * (commit + 256 + msg_hash);
    assert_eq!(n, keygen + build + execute);
    assert_eq!(n, 2_072);
}
