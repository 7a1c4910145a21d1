//! Absolute pins for the trace layer: exact message and byte counts of
//! fixed-seed executions, under the wire encoding of `fair_trace::wire`.
//!
//! Every other trace contract is relative (recording equals replay, jobs
//! 1 equals jobs 8), so a change that moved every count at once would pass
//! them all. These numbers are hand-checkable from the message layouts
//! and move only when a protocol's messages or the encoding rule change.

use fair_bench::runner::BASE_SEED;
use fair_core::Scenario;
use fair_protocols::scenarios::{
    gmw_half_sweep, CoinTossScenario, ContractScenario, HalfScenario, Strategy,
};
use fair_runtime::execute_traced;
use fair_simlab::trial_seed;
use fair_trace::{ExecStats, RecordingTracer};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs trial `t` of `scenario` the way the recorded estimator does and
/// returns its counters.
fn stats<S: Scenario>(scenario: &S, t: u64) -> ExecStats {
    let mut rng = StdRng::seed_from_u64(trial_seed(BASE_SEED, t));
    let mut trial = scenario.build(&mut rng);
    let mut tracer = RecordingTracer::new();
    execute_traced(
        trial.instance,
        trial.adversary.as_mut(),
        &mut rng,
        trial.max_rounds,
        &mut tracer,
    )
    .expect("scenario builds a well-formed instance");
    tracer.stats()
}

fn pi1() -> ContractScenario {
    ContractScenario {
        pi2: false,
        strategy: Strategy::NoCorruption,
    }
}

fn gmw_half_5_2() -> HalfScenario {
    gmw_half_sweep(5, 2).remove(0)
}

#[test]
fn pi1_contract_counts_are_pinned() {
    let s = stats(&pi1(), 0);
    // Each party sends Commit (tag + 32-byte commitment + 4 + 16 384-byte
    // Lamport key) and then Open (tag + 4 + 8 217-byte signed contract
    // + 4 + 32-byte randomness).
    assert_eq!(
        (s.msgs, s.bytes),
        (4, 2 * (1 + 32 + 4 + 16_384) + 2 * (1 + 4 + 8_217 + 4 + 32))
    );
    assert_eq!(s.bytes, 49_358);
}

#[test]
fn pi1_bytes_do_not_vary_across_a_tile() {
    let bytes: Vec<u64> = (0..64).map(|t| stats(&pi1(), t).bytes).collect();
    let (min, max) = (bytes.iter().min(), bytes.iter().max());
    assert_eq!(min, max, "Π1 messages have a fixed size: {bytes:?}");
}

#[test]
fn gmw_half_counts_are_pinned() {
    let s = stats(&gmw_half_5_2(), 0);
    // Five inputs to the phase-1 functionality (tag + SfeMsg tag + Scalar);
    // five outputs, each a tuple of the 94-byte ciphertext, the key-share
    // index and value, the 32-byte opening randomness and the five 32-byte
    // share commitments; then the three honest parties broadcast their
    // opened key shares (index, value, randomness) while the 2-coalition
    // withholds its own.
    let input = 1 + 1 + 9;
    let output = 1 + 1 + (1 + 4) + (1 + 4 + 94) + 9 + 9 + (1 + 4 + 32) + (1 + 4 + 5 * (1 + 4 + 32));
    let key_share = 1 + 8 + 8 + 4 + 32;
    assert_eq!(s.corruptions, 2);
    assert_eq!(
        (s.msgs, s.bytes),
        (13, 5 * input + 5 * output + 3 * key_share)
    );
    assert_eq!(s.bytes, 1_969);
}

#[test]
fn coin_toss_counts_are_pinned() {
    let s = stats(
        &CoinTossScenario {
            strategy: Strategy::NoCorruption,
        },
        0,
    );
    // Each party commits (tag + 32-byte digest), then opens its one-byte
    // coin (tag + 4 + 1 + 4 + 32-byte randomness).
    assert_eq!(
        (s.msgs, s.bytes),
        (4, 2 * (1 + 32) + 2 * (1 + 4 + 1 + 4 + 32))
    );
    assert_eq!(s.bytes, 150);
}
