//! Absolute pins for the trace layer: exact message and byte counts of
//! fixed-seed executions, under the wire encoding of `fair_trace::wire`.
//!
//! Every other trace contract is relative (recording equals replay, jobs
//! 1 equals jobs 8), so a change that moved every count at once would pass
//! them all. These numbers are hand-checkable from the message layouts
//! and move only when a protocol's messages or the encoding rule change.

use fair_bench::runner::BASE_SEED;
use fair_core::Scenario;
use std::sync::Arc;

use fair_protocols::gordon_katz::{AbortRule, GkConfig, ValueSampler};
use fair_protocols::opt2::TwoPartyFn;
use fair_protocols::scenarios::{
    gmw_half_sweep, ArtScenario, ArtStrategy, CoinTossScenario, ContractScenario, GkScenario,
    HalfScenario, Opt2Scenario, OptnScenario, Strategy,
};
use fair_runtime::execute_traced;
use fair_runtime::Value;
use fair_simlab::trial_seed;
use fair_trace::{ExecStats, RecordingTracer};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

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

/// Gordon–Katz on AND with p = 2 and |Y| = 2 (α = 1/4, m = 32), the
/// configuration of the `exp_gordon_katz` trace target.
fn gk(rule: AbortRule) -> GkScenario {
    let bit: ValueSampler = Arc::new(|rng: &mut StdRng| Value::Scalar(rng.random_range(0..2)));
    let and_fn: TwoPartyFn = Arc::new(|a: &Value, b: &Value| {
        Value::Scalar((a.as_scalar().unwrap_or(0) & 1) & (b.as_scalar().unwrap_or(0) & 1))
    });
    GkScenario {
        cfg: GkConfig::poly_domain(and_fn, 2, 2, Arc::clone(&bit), bit),
        rule,
        label: String::new(),
    }
}

#[test]
fn gordon_katz_counts_are_pinned() {
    // Candidates are bits, so every dealt secret packs to three field
    // elements and every authenticated share carries a five-element
    // summand: 8 · (1 + 5) + 8 = 56 bytes, 72 with the holder's 16-byte
    // MAC key. Each ShareGen output is the tuple (32 holdings, 32
    // counterparty shares, default candidate).
    let m: u64 = 32;
    let input = 1 + 1 + 9;
    let output = 1 + 1 + (1 + 4) + (1 + 4 + m * (1 + 4 + 72)) + (1 + 4 + m * (1 + 4 + 56)) + 9;
    let share = 1 + 8 + 56;
    // abort@1: p₂ opens round 1 with its a₁ share and p₁ stops there.
    let abort = stats(&gk(AbortRule::AtRound(1)), 0);
    assert_eq!(
        (abort.msgs, abort.bytes),
        (5, 2 * input + 2 * output + share)
    );
    assert_eq!(abort.bytes, 8_971);
    // Never: both shares of all m rounds are exchanged.
    let honest = stats(&gk(AbortRule::Never), 0);
    assert_eq!(
        (honest.msgs, honest.bytes),
        (4 + 2 * m, 2 * input + 2 * output + 2 * m * share)
    );
    assert_eq!(honest.bytes, 13_066);
}

#[test]
fn opt2_counts_are_pinned() {
    let s = stats(
        &Opt2Scenario {
            strategy: Strategy::NoCorruption,
        },
        0,
    );
    // The swap output (x₂, x₁) encodes to 27 bytes and packs to five field
    // elements, so a share is 8 · (1 + 7) + 8 = 72 bytes and a holding 88.
    // Two inputs, two outputs (holding, i*), then one share each way.
    let input = 1 + 1 + 9;
    let output = 1 + 1 + 1 + (1 + 4 + 88) + 9;
    let share = 1 + 72;
    assert_eq!((s.msgs, s.bytes), (6, 2 * input + 2 * output + 2 * share));
    assert_eq!(s.bytes, 378);
}

#[test]
fn optn_counts_are_pinned() {
    let s = stats(
        &OptnScenario {
            n: 5,
            strategy: Strategy::NoCorruption,
        },
        0,
    );
    // Every output pairs the party's announcement with the 16 384-byte
    // Lamport verifying key; p_{i*}'s announcement is (y, σ) with y the
    // 5-tuple of scalars and σ the 8 192-byte signature, everyone else's
    // is ⊥. Each party then broadcasts its announcement once.
    let y = 1 + 4 + 5 * 9;
    let signed = 1 + y + (1 + 4 + 8_192);
    let vk = 1 + 4 + 16_384;
    let input = 1 + 1 + 9;
    let output = |mine: u64| 1 + 1 + 1 + mine + vk;
    let announce = |mine: u64| 1 + mine;
    assert_eq!(
        (s.msgs, s.bytes),
        (
            15,
            5 * input + output(signed) + 4 * output(1) + announce(signed) + 4 * announce(1)
        )
    );
    assert_eq!(s.bytes, 98_524);
}

#[test]
fn artificial_counts_are_pinned() {
    let s = stats(
        &ArtScenario {
            n: 4,
            strategy: ArtStrategy::VoteOne(0),
        },
        0,
    );
    // p₁ is corrupted and not p_{i*} here: four inputs, four outputs (as
    // in Π^Opt_nSFE, with y the 4-tuple), twelve one-bit votes (p₁'s
    // deviant "1"s among them), then one reveal of the signed output.
    let y = 1 + 4 + 4 * 9;
    let signed = 1 + y + (1 + 4 + 8_192);
    let vk = 1 + 4 + 16_384;
    let input = 1 + 1 + 9;
    let output = |mine: u64| 1 + 1 + 1 + mine + vk;
    let vote = 1 + 1;
    assert_eq!(s.corruptions, 1);
    assert_eq!(
        (s.msgs, s.bytes),
        (
            21,
            4 * input + output(signed) + 3 * output(1) + 12 * vote + (1 + signed)
        )
    );
    assert_eq!(s.bytes, 82_118);
}
