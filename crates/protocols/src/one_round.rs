//! The single-reconstruction-round strawman of Lemma 10.
//!
//! Phase 1 deals a *plain* (unauthenticated-order) 2-of-2 additive sharing
//! of the output; phase 2 exchanges the two summands in a single
//! simultaneous round. A rushing adversary reads the honest party's
//! summand before releasing its own and simply withholds it: it always
//! learns y while the honest party gets ⊥ — payoff γ₁₀ with certainty.
//! Lemma 10 concludes that no optimally fair protocol for f_swp can have
//! one reconstruction round; experiment E4 measures exactly this protocol
//! against Π^Opt_2SFE.

use std::sync::Arc;

use fair_crypto::mac::{pack_bytes, unpack_bytes};
use fair_crypto::share::{additive_reconstruct_vec, additive_share_vec};
use fair_field::Fp;
use fair_runtime::wire::{WireLen, INT, LEN_PREFIX, TAG};
use fair_runtime::{Adapted, Envelope, FuncId, Instance, OutMsg, Party, PartyId, RoundCtx, Value};
use fair_sfe::ideal::{SfeMsg, SfeWithAbort};
use fair_sfe::spec::{IdealOutput, IdealSpec};

use crate::opt2::TwoPartyFn;

/// Rounds a party waits for the phase-1 result before concluding abort.
const PHASE1_DEADLINE: usize = 8;

/// A party's phase-1 output: its additive summand of the packed output.
#[derive(Clone, Debug)]
pub struct DealtSummand(pub Vec<Fp>);

/// Sized as the `Value` tuple of the summand's elements as scalars.
impl WireLen for DealtSummand {
    fn wire_len(&self) -> usize {
        Value::tuple_wire_len(self.0.iter().map(|x| Value::Scalar(x.value()).wire_len()))
    }
}

/// Wire messages.
#[derive(Clone, Debug)]
pub enum OneRoundMsg {
    /// Traffic to/from the phase-1 functionality.
    Sfe(SfeMsg<DealtSummand>),
    /// Phase 2: this party's summand (field elements as u64s).
    Summand(Vec<u64>),
}

impl WireLen for OneRoundMsg {
    fn wire_len(&self) -> usize {
        TAG + match self {
            OneRoundMsg::Sfe(s) => s.wire_len(),
            OneRoundMsg::Summand(xs) => LEN_PREFIX + INT * xs.len(),
        }
    }
}

fn down(m: &OneRoundMsg) -> Option<SfeMsg<DealtSummand>> {
    match m {
        OneRoundMsg::Sfe(s) => Some(s.clone()),
        OneRoundMsg::Summand(_) => None,
    }
}

/// Phase-1 spec: a plain additive sharing of the packed output.
pub fn one_round_spec(name: &str, f: TwoPartyFn) -> IdealSpec<DealtSummand> {
    IdealSpec::new(name, 2, move |inputs, rng| {
        let y = f(&inputs[0], &inputs[1]);
        let packed = pack_bytes(&y.encode());
        let shares = additive_share_vec(&packed, 2, rng);
        IdealOutput {
            facts: vec![("y".to_string(), y.clone())],
            per_party: shares.into_iter().map(DealtSummand).collect(),
        }
    })
}

#[derive(Clone, Debug)]
enum Phase {
    AwaitShareGen,
    AwaitSummand { deadline: usize },
}

/// A party of the strawman protocol.
#[derive(Clone, Debug)]
pub struct OneRoundParty {
    input: Value,
    my_summand: Option<Vec<Fp>>,
    their_summand: Option<Vec<Fp>>,
    phase: Phase,
    out: Option<Value>,
}

impl OneRoundParty {
    /// Creates a party with its input.
    pub fn new(input: Value) -> OneRoundParty {
        OneRoundParty {
            input,
            my_summand: None,
            their_summand: None,
            phase: Phase::AwaitShareGen,
            out: None,
        }
    }

    fn try_finish(&mut self) {
        if let (Some(mine), Some(theirs)) = (&self.my_summand, &self.their_summand) {
            if mine.len() == theirs.len() {
                let packed = additive_reconstruct_vec(&[mine.clone(), theirs.clone()]);
                self.out = Some(
                    unpack_bytes(&packed)
                        .and_then(|b| Value::decode(&b))
                        .unwrap_or(Value::Bot),
                );
            } else {
                self.out = Some(Value::Bot);
            }
        }
    }
}

impl Party<OneRoundMsg> for OneRoundParty {
    fn round(
        &mut self,
        ctx: &RoundCtx,
        inbox: &[Envelope<OneRoundMsg>],
    ) -> Vec<OutMsg<OneRoundMsg>> {
        if self.out.is_some() {
            return Vec::new();
        }
        let mut sfe: Option<SfeMsg<DealtSummand>> = None;
        for e in inbox {
            match &e.msg {
                OneRoundMsg::Sfe(m) if matches!(e.from, fair_runtime::Endpoint::Func(_)) => {
                    sfe = Some(m.clone());
                }
                OneRoundMsg::Summand(v)
                    if e.from_party() == Some(PartyId(1 - ctx.id.0))
                        && self.their_summand.is_none() =>
                {
                    self.their_summand = Some(v.iter().map(|&x| Fp::new(x)).collect());
                }
                _ => {}
            }
        }
        match &self.phase {
            Phase::AwaitShareGen => {
                if ctx.round == 0 {
                    return vec![OutMsg::to_func(
                        FuncId(0),
                        OneRoundMsg::Sfe(SfeMsg::Input(self.input.clone())),
                    )];
                }
                match sfe {
                    Some(SfeMsg::Output(DealtSummand(mine))) => {
                        let msg = OneRoundMsg::Summand(mine.iter().map(|x| x.value()).collect());
                        self.my_summand = Some(mine);
                        self.phase = Phase::AwaitSummand {
                            deadline: ctx.round + 2,
                        };
                        // The single reconstruction round: both summands
                        // cross simultaneously.
                        vec![OutMsg::to_party(PartyId(1 - ctx.id.0), msg)]
                    }
                    Some(SfeMsg::Abort) => {
                        self.out = Some(Value::Bot);
                        Vec::new()
                    }
                    _ => {
                        if ctx.round >= PHASE1_DEADLINE {
                            self.out = Some(Value::Bot);
                        }
                        Vec::new()
                    }
                }
            }
            Phase::AwaitSummand { deadline } => {
                let deadline = *deadline;
                self.try_finish();
                if self.out.is_none() && ctx.round >= deadline {
                    self.out = Some(Value::Bot);
                }
                Vec::new()
            }
        }
    }

    fn output(&self) -> Option<Value> {
        self.out.clone()
    }

    fn clone_box(&self) -> Box<dyn Party<OneRoundMsg>> {
        Box::new(self.clone())
    }
}

/// Builds an instance of the strawman protocol.
pub fn one_round_instance(name: &str, f: TwoPartyFn, inputs: [Value; 2]) -> Instance<OneRoundMsg> {
    let spec = one_round_spec(name, Arc::clone(&f));
    let func = Adapted::new(SfeWithAbort::new(spec), down, OneRoundMsg::Sfe);
    let [x1, x2] = inputs;
    Instance {
        parties: vec![
            Box::new(OneRoundParty::new(x1)),
            Box::new(OneRoundParty::new(x2)),
        ],
        funcs: vec![Box::new(func)],
    }
}

/// Lemma 10's attack: receive the phase-1 summand, *never* send anything
/// in the reconstruction round, and read the honest party's summand by
/// rushing — the adversary always learns y while the honest party aborts.
pub struct OneRoundRusher {
    target: PartyId,
    mine: Option<Vec<Fp>>,
    learned: Option<Value>,
    submitted: bool,
}

impl OneRoundRusher {
    /// Attacks with corrupted party `target` (0-based).
    pub fn new(target: usize) -> OneRoundRusher {
        OneRoundRusher {
            target: PartyId(target),
            mine: None,
            learned: None,
            submitted: false,
        }
    }
}

impl fair_runtime::Adversary<OneRoundMsg> for OneRoundRusher {
    fn initial_corruptions(&mut self, n: usize, _rng: &mut rand::rngs::StdRng) -> Vec<PartyId> {
        assert!(self.target.0 < n);
        vec![self.target]
    }

    fn on_round(
        &mut self,
        view: &fair_runtime::RoundView<'_, OneRoundMsg>,
        ctrl: &mut fair_runtime::AdvControl<'_, OneRoundMsg>,
        _rng: &mut rand::rngs::StdRng,
    ) {
        if !self.submitted {
            self.submitted = true;
            ctrl.send_as(
                self.target,
                OutMsg::to_func(
                    FuncId(0),
                    OneRoundMsg::Sfe(SfeMsg::Input(Value::Scalar(5 + self.target.0 as u64))),
                ),
            );
        }
        for e in view.delivered {
            if let OneRoundMsg::Sfe(SfeMsg::Output(DealtSummand(mine))) = &e.msg {
                self.mine = Some(mine.clone());
            }
        }
        for e in view.rushing {
            if let OneRoundMsg::Summand(v) = &e.msg {
                let Some(mine) = self.mine.clone() else {
                    continue;
                };
                let theirs: Vec<Fp> = v.iter().map(|&x| Fp::new(x)).collect();
                if mine.len() == theirs.len() {
                    let packed = additive_reconstruct_vec(&[mine, theirs]);
                    self.learned = unpack_bytes(&packed).and_then(|b| Value::decode(&b));
                }
            }
        }
        // Never send the reconstruction summand.
    }

    fn learned(&self) -> Option<Value> {
        self.learned.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt2::swap_fn;
    use fair_core::strategy::{any_output, CorruptionPlan, LockAndAbort};
    use fair_runtime::{execute, Passive};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn instance() -> Instance<OneRoundMsg> {
        one_round_instance("swap", swap_fn(), [Value::Scalar(5), Value::Scalar(6)])
    }

    fn y() -> Value {
        Value::pair(Value::Scalar(6), Value::Scalar(5))
    }

    #[test]
    fn honest_run_completes() {
        let mut rng = StdRng::seed_from_u64(0);
        let res = execute(instance(), &mut Passive, &mut rng, 30).expect("execution succeeds");
        assert!(res.all_honest_output(&y()));
    }

    #[test]
    fn rushing_withholder_always_wins() {
        // Unlike Π^Opt_2SFE, the strawman loses to the rushing adversary in
        // *every* execution, whichever party is corrupted.
        for target in 0..2usize {
            for seed in 0..10u64 {
                let mut rng = StdRng::seed_from_u64(700 + seed);
                let mut adv = OneRoundRusher::new(target);
                let xs = [Value::Scalar(5), Value::Scalar(6)];
                let inst = one_round_instance("swap", swap_fn(), xs);
                let res = execute(inst, &mut adv, &mut rng, 30).expect("execution succeeds");
                let expect = res.ledger.get("y").cloned().expect("y recorded");
                assert_eq!(
                    res.learned,
                    Some(expect),
                    "adversary always learns (p{target})"
                );
                let honest = PartyId(1 - target);
                assert_eq!(res.outputs[&honest], Value::Bot, "honest party denied");
            }
        }
    }

    #[test]
    fn generic_lock_and_abort_cannot_do_better_than_e11_here() {
        // Sanity: the generic strategy that behaves honestly until locked
        // has already released its summand, so honest parties finish.
        let mut rng = StdRng::seed_from_u64(800);
        let mut adv = LockAndAbort::new(CorruptionPlan::Fixed(vec![0]), any_output());
        let res = execute(instance(), &mut adv, &mut rng, 30).expect("execution succeeds");
        assert_eq!(res.outputs[&PartyId(1)], y());
    }

    #[test]
    fn one_round_msg_wire_len_per_variant() {
        assert_eq!(OneRoundMsg::Sfe(SfeMsg::Abort).wire_len(), 1 + 1);
        assert_eq!(OneRoundMsg::Summand(vec![1, 2, 3]).wire_len(), 1 + 4 + 24);
    }
}
