//! Π^Opt_nSFE — the optimally fair multi-party SFE protocol (Section 4.2 /
//! Appendix B).
//!
//! Phase 1 evaluates, through the unfair-SFE hybrid, the private-output
//! functionality F^{f,⊥}_priv-sfe: it computes y = f(x₁, …, xₙ), generates
//! a one-time signature key pair, signs y, picks i\* ∈ \[n\] uniformly, and
//! hands (y, σ) to p_{i*} and ⊥ to everyone else — each together with the
//! verification key. If phase 1 aborts, the whole protocol aborts. In
//! phase 2 every party broadcasts its private output; a validly signed
//! value is adopted by everyone, otherwise all parties abort.
//!
//! The attacker learns y before the honest parties only if it corrupted
//! p_{i*} — probability t/n for a t-adversary — which yields the Lemma 11
//! bound u ≤ (t·γ₁₀ + (n−t)·γ₁₁)/n, tight by Lemma 13 (experiments E5/E6).

use std::sync::Arc;

use fair_crypto::sign::{self, Signature, VerifyingKey};
use fair_runtime::wire::{WireLen, TAG};
use fair_runtime::{Adapted, Envelope, FuncId, Instance, OutMsg, Party, RoundCtx, Value};
use fair_sfe::ideal::{SfeMsg, SfeWithAbort};
use fair_sfe::spec::{IdealOutput, IdealSpec};
use rand::RngExt;

/// An n-party function with one global output, at the `Value` level.
pub type NPartyFn = Arc<dyn Fn(&[Value]) -> Value + Send + Sync>;

/// Rounds a party waits for the phase-1 result before concluding abort.
const PHASE1_DEADLINE: usize = 8;

/// A party's F^{f,⊥}_priv-sfe output: its phase-2 announcement — the
/// signed pair (y, σ) for p_{i*}, ⊥ for everyone else — and the
/// verification key, one allocation shared by all parties.
#[derive(Clone, Debug)]
pub struct PrivOutput {
    /// The value this party broadcasts in phase 2.
    pub mine: Value,
    /// The one-time verification key σ is checked against.
    pub vk: Arc<VerifyingKey>,
}

/// Sized as the `Value` pair (announcement, serialized verification key).
impl WireLen for PrivOutput {
    fn wire_len(&self) -> usize {
        Value::pair_wire_len(
            self.mine.wire_len(),
            Value::bytes_wire_len(self.vk.wire_len()),
        )
    }
}

/// Wire messages of Π^Opt_nSFE.
#[derive(Clone, Debug)]
pub enum OptnMsg {
    /// Traffic to/from the phase-1 functionality.
    Sfe(SfeMsg<PrivOutput>),
    /// Phase 2: broadcast of a party's private phase-1 output
    /// (⊥, or the signed output pair).
    Announce(Value),
}

impl WireLen for OptnMsg {
    fn wire_len(&self) -> usize {
        TAG + match self {
            OptnMsg::Sfe(s) => s.wire_len(),
            OptnMsg::Announce(v) => v.wire_len(),
        }
    }
}

fn down(m: &OptnMsg) -> Option<SfeMsg<PrivOutput>> {
    match m {
        OptnMsg::Sfe(s) => Some(s.clone()),
        OptnMsg::Announce(_) => None,
    }
}

/// The F^{f,⊥}_priv-sfe specification (Appendix B): one uniformly chosen
/// party privately receives the signed output; everyone receives the
/// verification key. Records facts `y` and `i_star` (1-based).
pub fn priv_spec(name: &str, n: usize, f: NPartyFn) -> IdealSpec<PrivOutput> {
    IdealSpec::new(name, n, move |inputs, rng| {
        let y = f(inputs);
        let (sk, vk) = sign::keygen(rng);
        let sig = sign::sign(&sk, &y.encode());
        let i_star = rng.random_range(0..inputs.len());
        let vk = Arc::new(vk);
        let per_party = (0..inputs.len())
            .map(|j| PrivOutput {
                mine: if j == i_star {
                    Value::pair(y.clone(), Value::Bytes(sig.to_bytes()))
                } else {
                    Value::Bot
                },
                vk: Arc::clone(&vk),
            })
            .collect();
        IdealOutput {
            facts: vec![
                ("y".to_string(), y.clone()),
                ("i_star".to_string(), Value::Scalar(i_star as u64 + 1)),
            ],
            per_party,
        }
    })
}

#[derive(Clone, Debug)]
enum Phase {
    AwaitShareGen,
    /// Announced; deciding once all n announces landed (or at the
    /// deadline, whichever comes first).
    AwaitAnnounces {
        deadline: usize,
    },
}

/// A party of Π^Opt_nSFE.
#[derive(Clone, Debug)]
pub struct OptnParty {
    input: Value,
    vk: Option<Arc<VerifyingKey>>,
    mine: Option<Value>,
    announces: Vec<Value>,
    phase: Phase,
    out: Option<Value>,
}

impl OptnParty {
    /// Creates a party with its input.
    pub fn new(input: Value) -> OptnParty {
        OptnParty {
            input,
            vk: None,
            mine: None,
            announces: Vec::new(),
            phase: Phase::AwaitShareGen,
            out: None,
        }
    }

    fn decide(&mut self) {
        // Our own private output counts first (we hold it, signed).
        let vk = self.vk.as_deref();
        let y = self
            .mine
            .iter()
            .chain(&self.announces)
            .find_map(|v| validate(vk, v));
        self.out = Some(y.unwrap_or(Value::Bot));
    }
}

/// Checks a phase-2 value: a pair (y, σ) with σ valid on y under the
/// phase-1 verification key, when one was received. Returns y.
pub(crate) fn validate(vk: Option<&VerifyingKey>, v: &Value) -> Option<Value> {
    let vk = vk?;
    let Value::Pair(y, sig) = v else {
        return None;
    };
    let sig = Signature::from_bytes(sig.as_bytes()?)?;
    sign::verify(vk, &y.encode(), &sig).then(|| (**y).clone())
}

impl Party<OptnMsg> for OptnParty {
    fn round(&mut self, ctx: &RoundCtx, inbox: &[Envelope<OptnMsg>]) -> Vec<OutMsg<OptnMsg>> {
        if self.out.is_some() {
            return Vec::new();
        }
        let mut sfe: Option<SfeMsg<PrivOutput>> = None;
        for e in inbox {
            match &e.msg {
                OptnMsg::Sfe(m) if matches!(e.from, fair_runtime::Endpoint::Func(_)) => {
                    sfe = Some(m.clone());
                }
                OptnMsg::Announce(v) => self.announces.push(v.clone()),
                _ => {}
            }
        }
        match &self.phase {
            Phase::AwaitShareGen => {
                if ctx.round == 0 {
                    return vec![OutMsg::to_func(
                        FuncId(0),
                        OptnMsg::Sfe(SfeMsg::Input(self.input.clone())),
                    )];
                }
                match sfe {
                    Some(SfeMsg::Output(PrivOutput { mine, vk })) => {
                        self.vk = Some(vk);
                        self.mine = Some(mine.clone());
                        self.phase = Phase::AwaitAnnounces {
                            deadline: ctx.round + 2,
                        };
                        vec![OutMsg::broadcast(OptnMsg::Announce(mine))]
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
            Phase::AwaitAnnounces { deadline } => {
                if self.announces.len() >= ctx.n || ctx.round >= *deadline {
                    self.decide();
                }
                Vec::new()
            }
        }
    }

    fn output(&self) -> Option<Value> {
        self.out.clone()
    }

    fn clone_box(&self) -> Box<dyn Party<OptnMsg>> {
        Box::new(self.clone())
    }
}

/// Builds a Π^Opt_nSFE instance for `f` with the given inputs.
pub fn optn_instance(name: &str, f: NPartyFn, inputs: Vec<Value>) -> Instance<OptnMsg> {
    let n = inputs.len();
    let spec = priv_spec(name, n, f);
    let func = Adapted::new(SfeWithAbort::new(spec), down, OptnMsg::Sfe);
    Instance {
        parties: inputs
            .into_iter()
            .map(|x| Box::new(OptnParty::new(x)) as Box<dyn Party<OptnMsg>>)
            .collect(),
        funcs: vec![Box::new(func)],
    }
}

/// The concatenation function of Lemmas 12/13 as an [`NPartyFn`].
pub fn concat_fn() -> NPartyFn {
    Arc::new(|inputs: &[Value]| Value::Tuple(inputs.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fair_core::strategy::{any_output, CorruptionPlan, LockAndAbort};
    use fair_runtime::{execute, PartyId, Passive};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn instance(n: usize) -> Instance<OptnMsg> {
        let inputs = (0..n).map(|i| Value::Scalar(100 + i as u64)).collect();
        optn_instance("concat", concat_fn(), inputs)
    }

    fn truth(n: usize) -> Value {
        Value::Tuple((0..n).map(|i| Value::Scalar(100 + i as u64)).collect())
    }

    #[test]
    fn honest_run_delivers_to_all() {
        for n in [3, 4, 5] {
            let mut rng = StdRng::seed_from_u64(n as u64);
            let res = execute(instance(n), &mut Passive, &mut rng, 30).expect("execution succeeds");
            assert!(
                res.all_honest_output(&truth(n)),
                "n = {n}: {:?}",
                res.outputs
            );
        }
    }

    #[test]
    fn lock_and_abort_wins_exactly_when_coalition_holds_i_star() {
        let n = 4;
        let t = 2;
        let mut e10 = 0;
        let mut e11 = 0;
        let trials = 60;
        for seed in 0..trials {
            let mut rng = StdRng::seed_from_u64(3000 + seed);
            let mut adv = LockAndAbort::new(CorruptionPlan::Fixed((0..t).collect()), any_output());
            let res = execute(instance(n), &mut adv, &mut rng, 30).expect("execution succeeds");
            let i_star = res
                .ledger
                .get("i_star")
                .and_then(|v| v.as_scalar())
                .expect("i_star recorded") as usize;
            let coalition_has_star = i_star <= t;
            if res.learned == Some(truth(n)) && res.outputs.values().all(|v| v.is_bot()) {
                assert!(coalition_has_star, "E10 requires the coalition to hold i*");
                e10 += 1;
            } else {
                assert!(
                    res.outputs.values().all(|v| *v == truth(n)),
                    "honest parties finish when i* is honest: {:?}",
                    res.outputs
                );
                e11 += 1;
            }
        }
        assert!(e10 > 0 && e11 > 0, "both branches exercised: {e10}/{e11}");
        // t/n = 1/2: neither branch should dominate wildly.
        assert!((15..=45).contains(&e10), "E10 count {e10} of {trials}");
    }

    #[test]
    fn silent_adversary_aborts_everyone() {
        struct Silent;
        impl fair_runtime::Adversary<OptnMsg> for Silent {
            fn initial_corruptions(&mut self, _n: usize, _r: &mut StdRng) -> Vec<PartyId> {
                vec![PartyId(0)]
            }
            fn on_round(
                &mut self,
                _v: &fair_runtime::RoundView<'_, OptnMsg>,
                _c: &mut fair_runtime::AdvControl<'_, OptnMsg>,
                _r: &mut StdRng,
            ) {
            }
        }
        let mut rng = StdRng::seed_from_u64(7);
        let res = execute(instance(3), &mut Silent, &mut rng, 40).expect("execution succeeds");
        assert!(res.outputs.values().all(|v| v.is_bot()));
    }

    #[test]
    fn forged_announce_is_rejected() {
        /// Runs honestly, except it also broadcasts a forged output.
        struct Forge;
        impl fair_runtime::Adversary<OptnMsg> for Forge {
            fn initial_corruptions(&mut self, _n: usize, _r: &mut StdRng) -> Vec<PartyId> {
                vec![PartyId(0)]
            }
            fn on_round(
                &mut self,
                view: &fair_runtime::RoundView<'_, OptnMsg>,
                ctrl: &mut fair_runtime::AdvControl<'_, OptnMsg>,
                _r: &mut StdRng,
            ) {
                ctrl.run_honestly(PartyId(0));
                if view.round == 2 {
                    let fake = Value::pair(Value::Scalar(666), Value::Bytes(vec![0u8; 256 * 32]));
                    ctrl.send_as(PartyId(0), OutMsg::broadcast(OptnMsg::Announce(fake)));
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(9);
        let res = execute(instance(3), &mut Forge, &mut rng, 40).expect("execution succeeds");
        for v in res.outputs.values() {
            assert_ne!(v, &Value::Scalar(666), "forged output must not be adopted");
        }
    }

    #[test]
    fn optn_msg_wire_len_per_variant() {
        assert_eq!(OptnMsg::Sfe(SfeMsg::Abort).wire_len(), 1 + 1);
        let signed = Value::pair(Value::Scalar(1), Value::Bytes(vec![0; 8]));
        assert_eq!(OptnMsg::Announce(signed).wire_len(), 1 + 1 + 9 + 13);
    }
}
