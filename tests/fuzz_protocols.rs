//! Structured protocol fuzzing: corrupted parties inject random well-typed
//! garbage every round. Honest parties must always land on the real output
//! or an abort — never on an attacker-chosen value. (The signatures of
//! Π^Opt_nSFE and the share commitments of Π^{1/2}_GMW are what make this
//! hold; these tests are the end-to-end check that nothing in the message
//! plumbing routes around them.)

use fair_crypto::commit::OPENING_LEN;
use fair_protocols::gmw_half::{gmw_half_instance, HalfMsg};
use fair_protocols::optn::{concat_fn, optn_instance, OptnMsg};
use fair_runtime::{execute, AdvControl, Adversary, OutMsg, PartyId, RoundView, Value};
use fair_sfe::ideal::SfeMsg;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Sends a burst of random garbage messages from the corrupted party each
/// round (while also participating honestly, so the execution progresses).
struct OptnFuzzer;

impl Adversary<OptnMsg> for OptnFuzzer {
    fn initial_corruptions(&mut self, _n: usize, _rng: &mut StdRng) -> Vec<PartyId> {
        vec![PartyId(0)]
    }

    fn on_round(
        &mut self,
        _view: &RoundView<'_, OptnMsg>,
        ctrl: &mut AdvControl<'_, OptnMsg>,
        rng: &mut StdRng,
    ) {
        ctrl.run_honestly(PartyId(0));
        for _ in 0..rng.random_range(1..4usize) {
            let v = match rng.random_range(0..4u8) {
                0 => Value::Bot,
                1 => Value::Scalar(rng.random()),
                2 => Value::pair(Value::Scalar(rng.random()), Value::Bytes(vec![0u8; 32])),
                _ => Value::pair(
                    Value::Scalar(rng.random()),
                    Value::Bytes(
                        (0..rng.random_range(0..64usize))
                            .map(|_| rng.random())
                            .collect(),
                    ),
                ),
            };
            ctrl.send_as(PartyId(0), OutMsg::broadcast(OptnMsg::Announce(v)));
        }
    }
}

#[test]
fn optn_fuzzing_never_forges_an_output() {
    let n = 4;
    for seed in 0..30u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs: Vec<Value> = (0..n).map(|i| Value::Scalar(7 + i as u64)).collect();
        let truth = Value::Tuple(inputs.clone());
        let inst = optn_instance("concat", concat_fn(), inputs);
        let res = execute(inst, &mut OptnFuzzer, &mut rng, 40).expect("execution succeeds");
        for (p, v) in &res.outputs {
            assert!(
                *v == truth || v.is_bot(),
                "seed {seed}: party {p} adopted a forged value {v}"
            );
        }
    }
}

/// Injects random key shares (random index/value/opening bytes) into the
/// Π^{1/2}_GMW reconstruction.
struct HalfFuzzer;

impl Adversary<HalfMsg> for HalfFuzzer {
    fn initial_corruptions(&mut self, _n: usize, _rng: &mut StdRng) -> Vec<PartyId> {
        vec![PartyId(0)]
    }

    fn on_round(
        &mut self,
        _view: &RoundView<'_, HalfMsg>,
        ctrl: &mut AdvControl<'_, HalfMsg>,
        rng: &mut StdRng,
    ) {
        ctrl.run_honestly(PartyId(0));
        for _ in 0..rng.random_range(1..3usize) {
            let r_len = if rng.random_bool(0.5) {
                OPENING_LEN
            } else {
                rng.random_range(0..64)
            };
            let r: Vec<u8> = (0..r_len).map(|_| rng.random()).collect();
            ctrl.send_as(
                PartyId(0),
                OutMsg::broadcast(HalfMsg::KeyShare(rng.random_range(0..8), rng.random(), r)),
            );
        }
    }
}

#[test]
fn gmw_half_fuzzing_never_corrupts_reconstruction() {
    let n = 5;
    for seed in 0..30u64 {
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        let inputs: Vec<Value> = (0..n).map(|i| Value::Scalar(3 + i as u64)).collect();
        let truth = Value::Tuple(inputs.clone());
        let inst = gmw_half_instance("concat", concat_fn(), inputs);
        let res = execute(inst, &mut HalfFuzzer, &mut rng, 40).expect("execution succeeds");
        for (p, v) in &res.outputs {
            assert!(
                *v == truth || v.is_bot(),
                "seed {seed}: party {p} reconstructed a corrupted value {v}"
            );
        }
    }
}

/// Tries to bend the share commitments of Π^{1/2}_GMW with real openings:
/// it withholds its own share and instead broadcasts (a) its own valid
/// opening under a changed share value and (b) an honest party's opening,
/// read by rushing, under its own index.
struct HalfOpeningReplayer {
    own: Option<(u64, u64, Vec<u8>)>,
    forged: usize,
}

impl Adversary<HalfMsg> for HalfOpeningReplayer {
    fn initial_corruptions(&mut self, _n: usize, _rng: &mut StdRng) -> Vec<PartyId> {
        vec![PartyId(0)]
    }

    fn on_round(
        &mut self,
        view: &RoundView<'_, HalfMsg>,
        ctrl: &mut AdvControl<'_, HalfMsg>,
        _rng: &mut StdRng,
    ) {
        for e in view.delivered {
            if let HalfMsg::Sfe(SfeMsg::Output(dealt)) = &e.msg {
                self.own = Some((dealt.index, dealt.value, dealt.randomness.clone()));
            }
        }
        let Some((i, v, r)) = &self.own else {
            ctrl.run_honestly(PartyId(0));
            return;
        };
        // Silent from here on, apart from the forgeries sent alongside the
        // honest broadcasts.
        let replays: Vec<HalfMsg> = view
            .rushing
            .iter()
            .filter_map(|e| match &e.msg {
                HalfMsg::KeyShare(j, w, s) if j != i => Some(HalfMsg::KeyShare(*i, *w, s.clone())),
                _ => None,
            })
            .collect();
        if replays.is_empty() || self.forged > 0 {
            return;
        }
        let rebound = HalfMsg::KeyShare(*i, v.wrapping_add(1), r.clone());
        for m in std::iter::once(rebound).chain(replays) {
            ctrl.send_as(PartyId(0), OutMsg::broadcast(m));
            self.forged += 1;
        }
    }
}

#[test]
fn gmw_half_rejects_replayed_and_rebound_openings() {
    let n = 5;
    for seed in 0..30u64 {
        let mut rng = StdRng::seed_from_u64(3000 + seed);
        let inputs: Vec<Value> = (0..n).map(|i| Value::Scalar(20 + i as u64)).collect();
        let truth = Value::Tuple(inputs.clone());
        let inst = gmw_half_instance("concat", concat_fn(), inputs);
        let mut adv = HalfOpeningReplayer {
            own: None,
            forged: 0,
        };
        let res = execute(inst, &mut adv, &mut rng, 40).expect("execution succeeds");
        // One rebound opening plus a replay of each of the four honest ones.
        assert_eq!(adv.forged, 1 + (n - 1), "seed {seed}");
        // Stricter than truth-or-⊥: the four honest shares clear the
        // threshold of 3 on their own, so an abort here would mean a forged
        // share was accepted.
        assert_eq!(res.outputs.len(), n - 1, "seed {seed}");
        assert!(
            res.outputs.values().all(|v| *v == truth),
            "seed {seed}: {:?}",
            res.outputs
        );
    }
}

/// An adaptive adversary that waits for the phase-2 broadcasts, spots the
/// designated party's announcement in flight, and only *then* corrupts it.
/// Too late: broadcast consistency means every honest party still receives
/// the signed output — the paper's protocols are adaptively secure.
struct LateIStarCorruptor {
    corrupted_i_star: bool,
}

impl Adversary<OptnMsg> for LateIStarCorruptor {
    fn initial_corruptions(&mut self, _n: usize, _rng: &mut StdRng) -> Vec<PartyId> {
        vec![]
    }

    fn on_round(
        &mut self,
        view: &RoundView<'_, OptnMsg>,
        ctrl: &mut AdvControl<'_, OptnMsg>,
        _rng: &mut StdRng,
    ) {
        if self.corrupted_i_star {
            return;
        }
        for e in view.rushing {
            if let OptnMsg::Announce(Value::Pair(_, _)) = &e.msg {
                if let Some(pid) = e.from_party() {
                    // Found i* by watching the wire; corrupt it now and
                    // withhold everything it still has.
                    let _ = ctrl.corrupt(pid);
                    self.corrupted_i_star = true;
                    return;
                }
            }
        }
    }
}

#[test]
fn adaptive_corruption_of_i_star_after_broadcast_is_too_late() {
    let n = 4;
    for seed in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(2000 + seed);
        let inputs: Vec<Value> = (0..n).map(|i| Value::Scalar(50 + i as u64)).collect();
        let truth = Value::Tuple(inputs.clone());
        let inst = optn_instance("concat", concat_fn(), inputs);
        let mut adv = LateIStarCorruptor {
            corrupted_i_star: false,
        };
        let res = execute(inst, &mut adv, &mut rng, 40).expect("execution succeeds");
        assert!(adv.corrupted_i_star, "seed {seed}: the adversary found i*");
        // The announcement was already in flight on a consistent broadcast
        // channel: all remaining honest parties still output y.
        for (p, v) in &res.outputs {
            assert_eq!(v, &truth, "seed {seed}: party {p}");
        }
    }
}
