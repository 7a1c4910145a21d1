//! Π^Opt_2SFE — the optimally fair two-party SFE protocol (Section 4.1).
//!
//! Phase 1 evaluates, through the unfair-SFE hybrid [`SfeWithAbort`], the
//! function f′ that outputs an authenticated 2-of-2 sharing of y = f(x₁,x₂)
//! together with a uniformly random index i* ∈ {1, 2}. If phase 1 aborts,
//! the honest party evaluates f locally on a default input for the
//! counterparty. Phase 2 reconstructs the sharing in two rounds: first
//! towards p_{i*}, then towards the other party.
//!
//! The fairness profile proved in Theorems 3/4 and reproduced by
//! experiments E2–E4:
//!
//! * a corrupted p_{i*} can learn y and abort (event E₁₀), but i* is hidden
//!   until the reconstruction and uniform, so this happens with probability
//!   exactly 1/2;
//! * in the other half of the executions the adversary's best move is to
//!   finish (E₁₁);
//! * the best attacker utility is therefore (γ₁₀ + γ₁₁)/2 — which Theorem 4
//!   shows is optimal for generic functions (f_swp).
//!
//! [`SfeWithAbort`]: fair_sfe::ideal::SfeWithAbort

use std::sync::Arc;

use fair_crypto::authshare::{self, AuthShare, AuthShareHolding};
use fair_crypto::mac::{pack_bytes, unpack_bytes};
use fair_runtime::wire::{WireLen, TAG};
use fair_runtime::{Adapted, Envelope, FuncId, Instance, OutMsg, Party, PartyId, RoundCtx, Value};
use fair_sfe::ideal::{SfeMsg, SfeWithAbort};
use fair_sfe::spec::{IdealOutput, IdealSpec};
use rand::RngExt;

/// A two-party function at the `Value` level.
pub type TwoPartyFn = Arc<dyn Fn(&Value, &Value) -> Value + Send + Sync>;

/// Rounds a party waits for the phase-1 result before concluding that the
/// evaluation aborted.
const PHASE1_DEADLINE: usize = 8;

/// A party's f′ output: its holding of the sharing of y and the index i*
/// of the party the sharing is reconstructed towards first.
#[derive(Clone, Debug)]
pub struct FPrimeOutput {
    /// This party's authenticated share of (the packed encoding of) y.
    pub holding: AuthShareHolding,
    /// The designated party i* ∈ {1, 2}.
    pub i_star: u64,
}

/// Sized as the `Value` pair (serialized holding, i*).
impl WireLen for FPrimeOutput {
    fn wire_len(&self) -> usize {
        Value::pair_wire_len(
            Value::bytes_wire_len(self.holding.wire_len()),
            Value::Scalar(self.i_star).wire_len(),
        )
    }
}

/// Wire messages of Π^Opt_2SFE: hybrid traffic plus the reconstruction
/// share.
#[derive(Clone, Debug)]
pub enum Opt2Msg {
    /// Traffic to/from the phase-1 functionality.
    Sfe(SfeMsg<FPrimeOutput>),
    /// Phase 2: the counterparty's authenticated share.
    Share(AuthShare),
}

impl WireLen for Opt2Msg {
    fn wire_len(&self) -> usize {
        TAG + match self {
            Opt2Msg::Sfe(s) => s.wire_len(),
            Opt2Msg::Share(share) => share.wire_len(),
        }
    }
}

fn down(m: &Opt2Msg) -> Option<SfeMsg<FPrimeOutput>> {
    match m {
        Opt2Msg::Sfe(s) => Some(s.clone()),
        Opt2Msg::Share(_) => None,
    }
}

/// The f′ specification: computes y = f(x₁, x₂), deals an authenticated
/// sharing of (the packed encoding of) y, picks i* ∈ {1, 2} uniformly, and
/// outputs `(holding_i, i*)` to each party. Records facts `y` and `i_star`.
pub fn f_prime_spec(name: &str, f: TwoPartyFn) -> IdealSpec<FPrimeOutput> {
    f_prime_spec_biased(name, f, 0.5)
}

/// Like [`f_prime_spec`] but with Pr[i* = 1] = `q` — the designer's move
/// in the RPD attack game. The paper's protocol uses q = 1/2; the E15
/// experiment sweeps q and confirms the uniform choice is the minimax
/// optimum (any bias hands the attacker max(q, 1−q)·γ₁₀ + …).
///
/// # Panics
///
/// Panics unless `0.0 <= q <= 1.0`.
pub fn f_prime_spec_biased(name: &str, f: TwoPartyFn, q: f64) -> IdealSpec<FPrimeOutput> {
    assert!((0.0..=1.0).contains(&q), "probability in [0, 1]");
    IdealSpec::new(name, 2, move |inputs, rng| {
        let y = f(&inputs[0], &inputs[1]);
        let packed = pack_bytes(&y.encode());
        let (h1, h2) = authshare::deal(&packed, rng);
        let i_star = if rng.random_bool(q) { 1u64 } else { 2u64 };
        IdealOutput {
            facts: vec![
                ("y".to_string(), y.clone()),
                ("i_star".to_string(), Value::Scalar(i_star)),
            ],
            per_party: [h1, h2]
                .into_iter()
                .map(|holding| FPrimeOutput { holding, i_star })
                .collect(),
        }
    })
}

#[derive(Clone, Debug)]
#[allow(clippy::enum_variant_names)] // the Await* names mirror the paper's phase labels
enum Phase {
    /// Waiting for the phase-1 output (since the given round).
    AwaitShareGen,
    /// We are p_{i*}: waiting for the counterparty's share.
    AwaitFirstReconstruction { deadline: usize },
    /// We are p_{¬i*}, our share is sent: waiting for the response.
    AwaitSecondReconstruction { deadline: usize },
}

/// A party of Π^Opt_2SFE.
pub struct Opt2Party {
    me: usize, // 1-based
    input: Value,
    f: TwoPartyFn,
    default_other: Value,
    holding: Option<AuthShareHolding>,
    pending_share: Option<AuthShare>,
    phase: Phase,
    out: Option<Value>,
}

impl core::fmt::Debug for Opt2Party {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Opt2Party")
            .field("me", &self.me)
            .field("phase", &self.phase)
            .field("out", &self.out)
            .finish()
    }
}

impl Clone for Opt2Party {
    fn clone(&self) -> Self {
        Opt2Party {
            me: self.me,
            input: self.input.clone(),
            f: Arc::clone(&self.f),
            default_other: self.default_other.clone(),
            holding: self.holding.clone(),
            pending_share: self.pending_share.clone(),
            phase: self.phase.clone(),
            out: self.out.clone(),
        }
    }
}

impl Opt2Party {
    /// Creates party `me` (1-based) with its input, the function f, and the
    /// default input assumed for the counterparty after an abort.
    pub fn new(me: usize, input: Value, f: TwoPartyFn, default_other: Value) -> Opt2Party {
        assert!(me == 1 || me == 2, "two-party protocol");
        Opt2Party {
            me,
            input,
            f,
            default_other,
            holding: None,
            pending_share: None,
            phase: Phase::AwaitShareGen,
            out: None,
        }
    }

    fn other(&self) -> PartyId {
        PartyId(2 - self.me)
    }

    /// The default evaluation used when the counterparty aborted before
    /// any output information was released.
    fn default_eval(&self) -> Value {
        if self.me == 1 {
            (self.f)(&self.input, &self.default_other)
        } else {
            (self.f)(&self.default_other, &self.input)
        }
    }

    fn my_share_msg(&self) -> OutMsg<Opt2Msg> {
        let share = self
            .holding
            .as_ref()
            .expect("holding present")
            .share
            .clone();
        OutMsg::to_party(self.other(), Opt2Msg::Share(share))
    }

    /// Attempts reconstruction from an incoming share.
    fn reconstruct(&self, incoming: &AuthShare) -> Option<Value> {
        let holding = self.holding.as_ref()?;
        let packed = authshare::reconstruct(self.me, holding, incoming).ok()?;
        let bytes = unpack_bytes(&packed)?;
        Value::decode(&bytes)
    }
}

impl Party<Opt2Msg> for Opt2Party {
    fn round(&mut self, ctx: &RoundCtx, inbox: &[Envelope<Opt2Msg>]) -> Vec<OutMsg<Opt2Msg>> {
        if self.out.is_some() {
            return Vec::new();
        }
        // Absorb messages.
        let mut sfe: Option<SfeMsg<FPrimeOutput>> = None;
        for e in inbox {
            match &e.msg {
                Opt2Msg::Sfe(m) if matches!(e.from, fair_runtime::Endpoint::Func(_)) => {
                    sfe = Some(m.clone());
                }
                Opt2Msg::Share(s)
                    if e.from_party() == Some(self.other()) && self.pending_share.is_none() =>
                {
                    self.pending_share = Some(s.clone());
                }
                _ => {}
            }
        }

        let mut msgs = self.dispatch(ctx, &sfe);
        // A phase-1 output and the counterparty's share can arrive in the
        // same round; give the new phase one chance to consume the share.
        if self.out.is_none() && self.pending_share.is_some() {
            msgs.extend(self.dispatch(ctx, &None));
        }
        msgs
    }

    fn output(&self) -> Option<Value> {
        self.out.clone()
    }

    fn clone_box(&self) -> Box<dyn Party<Opt2Msg>> {
        Box::new(self.clone())
    }
}

impl Opt2Party {
    fn dispatch(
        &mut self,
        ctx: &RoundCtx,
        sfe: &Option<SfeMsg<FPrimeOutput>>,
    ) -> Vec<OutMsg<Opt2Msg>> {
        match &self.phase {
            Phase::AwaitShareGen => {
                if ctx.round == 0 {
                    return vec![OutMsg::to_func(
                        FuncId(0),
                        Opt2Msg::Sfe(SfeMsg::Input(self.input.clone())),
                    )];
                }
                match sfe {
                    Some(SfeMsg::Output(dealt)) => {
                        self.holding = Some(dealt.holding.clone());
                        if dealt.i_star == self.me as u64 {
                            // Reconstruction comes to us first.
                            self.phase = Phase::AwaitFirstReconstruction {
                                deadline: ctx.round + 3,
                            };
                            Vec::new()
                        } else {
                            // We send our share first, then await theirs.
                            self.phase = Phase::AwaitSecondReconstruction {
                                deadline: ctx.round + 3,
                            };
                            vec![self.my_share_msg()]
                        }
                    }
                    Some(SfeMsg::Abort) => {
                        self.out = Some(self.default_eval());
                        Vec::new()
                    }
                    _ => {
                        if ctx.round >= PHASE1_DEADLINE {
                            // The functionality never answered (possible
                            // only in forked lookaheads): treat as abort.
                            self.out = Some(self.default_eval());
                        }
                        Vec::new()
                    }
                }
            }
            Phase::AwaitFirstReconstruction { deadline } => {
                if let Some(s) = self.pending_share.take() {
                    let s = &s;
                    if let Some(y) = self.reconstruct(s) {
                        // Got the output; now reconstruct towards them.
                        self.out = Some(y);
                        return vec![self.my_share_msg()];
                    }
                    // Invalid share = the counterparty aborted before we
                    // learned anything: default evaluation.
                    self.out = Some(self.default_eval());
                    return Vec::new();
                }
                if ctx.round >= *deadline {
                    self.out = Some(self.default_eval());
                }
                Vec::new()
            }
            Phase::AwaitSecondReconstruction { deadline } => {
                if let Some(s) = self.pending_share.take() {
                    let s = &s;
                    if let Some(y) = self.reconstruct(s) {
                        self.out = Some(y);
                        return Vec::new();
                    }
                    // Invalid response after we already released our share:
                    // the adversary may know y, we must output ⊥.
                    self.out = Some(Value::Bot);
                    return Vec::new();
                }
                if ctx.round >= *deadline {
                    self.out = Some(Value::Bot);
                }
                Vec::new()
            }
        }
    }
}

/// Builds a Π^Opt_2SFE instance for function `f` with the given inputs and
/// per-party default inputs.
pub fn opt2_instance(
    name: &str,
    f: TwoPartyFn,
    inputs: [Value; 2],
    defaults: [Value; 2],
) -> Instance<Opt2Msg> {
    opt2_instance_biased(name, f, inputs, defaults, 0.5)
}

/// [`opt2_instance`] with a biased designated-party choice (see
/// [`f_prime_spec_biased`]).
pub fn opt2_instance_biased(
    name: &str,
    f: TwoPartyFn,
    inputs: [Value; 2],
    defaults: [Value; 2],
    q: f64,
) -> Instance<Opt2Msg> {
    let spec = f_prime_spec_biased(name, Arc::clone(&f), q);
    let func = Adapted::new(SfeWithAbort::new(spec), down, Opt2Msg::Sfe);
    let [x1, x2] = inputs;
    let [d1, d2] = defaults;
    Instance {
        parties: vec![
            Box::new(Opt2Party::new(1, x1, Arc::clone(&f), d2)),
            Box::new(Opt2Party::new(2, x2, f, d1)),
        ],
        funcs: vec![Box::new(func)],
    }
}

/// The swap function as a [`TwoPartyFn`] (global output (x₂, x₁)).
pub fn swap_fn() -> TwoPartyFn {
    Arc::new(|x1: &Value, x2: &Value| Value::pair(x2.clone(), x1.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fair_core::strategy::{differs_from, CorruptionPlan, LockAndAbort};
    use fair_runtime::{execute, Passive};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn instance(x1: u64, x2: u64) -> Instance<Opt2Msg> {
        opt2_instance(
            "swap",
            swap_fn(),
            [Value::Scalar(x1), Value::Scalar(x2)],
            [Value::Scalar(0), Value::Scalar(0)],
        )
    }

    #[test]
    fn honest_run_delivers_swap_to_both() {
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(seed);
            let res =
                execute(instance(11, 22), &mut Passive, &mut rng, 30).expect("execution succeeds");
            let y = Value::pair(Value::Scalar(22), Value::Scalar(11));
            assert!(res.all_honest_output(&y), "seed {seed}: {:?}", res.outputs);
            assert_eq!(res.ledger.get("y"), Some(&y));
            let i_star = res
                .ledger
                .get("i_star")
                .and_then(|v| v.as_scalar())
                .unwrap();
            assert!(i_star == 1 || i_star == 2);
        }
    }

    #[test]
    fn i_star_is_roughly_uniform() {
        let mut ones = 0;
        for seed in 0..60 {
            let mut rng = StdRng::seed_from_u64(seed);
            let res =
                execute(instance(1, 2), &mut Passive, &mut rng, 30).expect("execution succeeds");
            if res.ledger.get("i_star") == Some(&Value::Scalar(1)) {
                ones += 1;
            }
        }
        assert!((15..=45).contains(&ones), "i* = 1 in {ones}/60 runs");
    }

    #[test]
    fn lock_and_abort_wins_exactly_when_it_holds_i_star() {
        // Corrupt p1 and run the A₁ strategy: it must get E10 iff i* = 1.
        let mut e10 = 0;
        let mut e11 = 0;
        let trials = 40;
        for seed in 0..trials {
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            // Default-input evaluation for corrupted p1: f(x1, d2) = (0, x1).
            let default = Value::pair(Value::Scalar(0), Value::Scalar(11));
            let mut adv = LockAndAbort::new(CorruptionPlan::Fixed(vec![0]), differs_from(default));
            let res =
                execute(instance(11, 22), &mut adv, &mut rng, 30).expect("execution succeeds");
            let y = Value::pair(Value::Scalar(22), Value::Scalar(11));
            let i_star = res.ledger.get("i_star").cloned();
            if res.learned == Some(y.clone()) && res.outputs[&PartyId(1)] == Value::Bot {
                assert_eq!(i_star, Some(Value::Scalar(1)), "E10 only when i*=1");
                e10 += 1;
            } else {
                assert_eq!(res.outputs[&PartyId(1)], y, "honest party finished");
                e11 += 1;
            }
        }
        assert!(e10 > 0 && e11 > 0, "both branches exercised: {e10}/{e11}");
        assert_eq!(e10 + e11, trials);
    }

    #[test]
    fn silent_adversary_triggers_default_evaluation() {
        struct Silent;
        impl fair_runtime::Adversary<Opt2Msg> for Silent {
            fn initial_corruptions(&mut self, _n: usize, _r: &mut StdRng) -> Vec<PartyId> {
                vec![PartyId(0)]
            }
            fn on_round(
                &mut self,
                _v: &fair_runtime::RoundView<'_, Opt2Msg>,
                _c: &mut fair_runtime::AdvControl<'_, Opt2Msg>,
                _r: &mut StdRng,
            ) {
            }
        }
        let mut rng = StdRng::seed_from_u64(5);
        let res = execute(instance(11, 22), &mut Silent, &mut rng, 40).expect("execution succeeds");
        // Honest p2 evaluates f(default, x2) = (22, 0).
        assert_eq!(
            res.outputs[&PartyId(1)],
            Value::pair(Value::Scalar(22), Value::Scalar(0))
        );
    }

    #[test]
    fn forged_share_leads_to_default_or_bot_never_wrong_value() {
        /// Runs honestly through phase 1, then sends a garbage share.
        struct Forger;
        impl fair_runtime::Adversary<Opt2Msg> for Forger {
            fn initial_corruptions(&mut self, _n: usize, _r: &mut StdRng) -> Vec<PartyId> {
                vec![PartyId(0)]
            }
            fn on_round(
                &mut self,
                view: &fair_runtime::RoundView<'_, Opt2Msg>,
                ctrl: &mut fair_runtime::AdvControl<'_, Opt2Msg>,
                _r: &mut StdRng,
            ) {
                if view.round == 0 {
                    ctrl.run_honestly(PartyId(0));
                } else {
                    let bogus = AuthShare {
                        summand: vec![fair_field::Fp::new(1), fair_field::Fp::new(2)],
                        summand_tag: fair_crypto::mac::MacTag(fair_field::Fp::new(3)),
                    };
                    ctrl.send_as(
                        PartyId(0),
                        OutMsg::to_party(PartyId(1), Opt2Msg::Share(bogus)),
                    );
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(6);
        let res = execute(instance(11, 22), &mut Forger, &mut rng, 40).expect("execution succeeds");
        let y = Value::pair(Value::Scalar(22), Value::Scalar(11));
        let out = &res.outputs[&PartyId(1)];
        assert_ne!(out, &y, "forgery must not produce the real output early");
        // Acceptable honest reactions: ⊥ or the default evaluation.
        let default = Value::pair(Value::Scalar(22), Value::Scalar(0));
        assert!(
            *out == Value::Bot || *out == default,
            "unexpected honest output {out}"
        );
    }

    #[test]
    fn opt2_msg_wire_len_per_variant() {
        assert_eq!(
            Opt2Msg::Sfe(SfeMsg::Input(Value::Scalar(1))).wire_len(),
            1 + 1 + 9
        );
        let share = AuthShare {
            summand: vec![fair_field::Fp::new(1); 3],
            summand_tag: fair_crypto::mac::MacTag(fair_field::Fp::new(2)),
        };
        // tag + count + three summands + MAC tag
        assert_eq!(Opt2Msg::Share(share).wire_len(), 1 + 8 + 24 + 8);
    }
}
