//! Π̃ — the "leaky" protocol of Section 5 / Appendix C.5, which separates
//! 1/p-security from the paper's utility-based notion.
//!
//! Π̃ computes the logical AND x₁ ∧ x₂:
//!
//! 1. p₂ sends one bit (an honest p₂ sends 0);
//! 2. if p₂ sent 1 instead, p₁ tosses a biased coin C with Pr[C=1] = 1/4
//!    and, if C = 1, sends its *input* x₁ to p₂ (otherwise an empty
//!    message);
//! 3. the parties run the standard 1/4-secure protocol for AND (our
//!    Gordon–Katz protocol with p = 4).
//!
//! Lemma 27 shows Π̃ is both 1/2-secure and fully private in the
//! Gordon–Katz sense; Lemma 26 shows it does **not** realize F^{∧,$} —
//! the input leak in step 2 cannot be simulated. Experiment E12 measures
//! both sides of the separation.

use fair_runtime::wire::{WireLen, TAG};
use fair_runtime::{Envelope, Instance, OutMsg, Party, PartyId, RoundCtx, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::gordon_katz::{gk_instance, GkConfig, GkMsg, GkParty};

/// Engine rounds before the embedded sub-protocol starts.
const SUB_START: usize = 2;

/// Wire messages of Π̃.
#[derive(Clone, Debug)]
pub enum LeakyMsg {
    /// Step 1: p₂'s bit.
    FirstBit(bool),
    /// Step 2: p₁'s reply — `Some(x₁)` when the biased coin fired, `None`
    /// for the empty message.
    Reply(Option<u64>),
    /// Steps 3+: the embedded 1/4-secure AND protocol.
    Gk(GkMsg),
}

impl WireLen for LeakyMsg {
    fn wire_len(&self) -> usize {
        TAG + match self {
            LeakyMsg::FirstBit(b) => b.wire_len(),
            LeakyMsg::Reply(x) => x.wire_len(),
            LeakyMsg::Gk(m) => m.wire_len(),
        }
    }
}

fn translate_out(msgs: Vec<OutMsg<GkMsg>>) -> Vec<OutMsg<LeakyMsg>> {
    msgs.into_iter()
        .map(|m| OutMsg {
            to: m.to,
            msg: LeakyMsg::Gk(m.msg),
        })
        .collect()
}

/// A party of Π̃ wrapping the embedded Gordon–Katz party.
pub struct LeakyParty {
    me: usize, // 1-based
    input: u64,
    /// p₁'s biased coin (pre-drawn, Pr[true] = 1/4).
    coin: bool,
    saw_one: bool,
    inner: GkParty,
}

impl core::fmt::Debug for LeakyParty {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("LeakyParty")
            .field("me", &self.me)
            .field("inner", &self.inner)
            .finish()
    }
}

impl Clone for LeakyParty {
    fn clone(&self) -> Self {
        LeakyParty {
            me: self.me,
            input: self.input,
            coin: self.coin,
            saw_one: self.saw_one,
            inner: self.inner.clone(),
        }
    }
}

impl LeakyParty {
    /// Creates party `me` with bit input `input`; `m` is the embedded
    /// protocol's round count.
    pub fn new(me: usize, input: u64, m: usize, rng: &mut StdRng) -> LeakyParty {
        LeakyParty {
            me,
            input,
            coin: rng.random_bool(0.25),
            saw_one: false,
            inner: GkParty::new(me, Value::Scalar(input), m),
        }
    }
}

impl Party<LeakyMsg> for LeakyParty {
    fn round(&mut self, ctx: &RoundCtx, inbox: &[Envelope<LeakyMsg>]) -> Vec<OutMsg<LeakyMsg>> {
        // Steps 1–2 occupy rounds 0 and 1.
        if ctx.round == 0 {
            if self.me == 2 {
                return vec![OutMsg::to_party(PartyId(0), LeakyMsg::FirstBit(false))];
            }
            return Vec::new();
        }
        if ctx.round == 1 && self.me == 1 {
            for e in inbox {
                if let LeakyMsg::FirstBit(b) = &e.msg {
                    if *b {
                        self.saw_one = true;
                        let reply = if self.coin { Some(self.input) } else { None };
                        return vec![OutMsg::to_party(PartyId(1), LeakyMsg::Reply(reply))];
                    }
                }
            }
            return Vec::new();
        }
        if ctx.round < SUB_START {
            return Vec::new();
        }
        // Steps 3+: delegate to the embedded protocol with shifted rounds.
        let sub_inbox: Vec<Envelope<GkMsg>> = inbox
            .iter()
            .filter_map(|e| match &e.msg {
                LeakyMsg::Gk(m) => Some(Envelope {
                    from: e.from,
                    to: e.to,
                    msg: m.clone(),
                }),
                _ => None,
            })
            .collect();
        let sub_ctx = RoundCtx {
            id: ctx.id,
            n: ctx.n,
            round: ctx.round - SUB_START,
        };
        translate_out(self.inner.round(&sub_ctx, &sub_inbox))
    }

    fn output(&self) -> Option<Value> {
        self.inner.output()
    }

    fn clone_box(&self) -> Box<dyn Party<LeakyMsg>> {
        Box::new(self.clone())
    }
}

/// The embedded 1/4-secure AND configuration.
pub fn leaky_sub_config() -> GkConfig {
    let f: crate::opt2::TwoPartyFn = std::sync::Arc::new(|a: &Value, b: &Value| {
        Value::Scalar((a.as_scalar().unwrap_or(0) & 1) & (b.as_scalar().unwrap_or(0) & 1))
    });
    let bit: crate::gordon_katz::ValueSampler =
        std::sync::Arc::new(|rng: &mut StdRng| Value::Scalar(rng.random_range(0..2)));
    GkConfig::poly_domain(f, 4, 2, std::sync::Arc::clone(&bit), bit)
}

/// Builds a Π̃ instance; the embedded ShareGen functionality handles the
/// sub-protocol's phase 1.
pub fn leaky_instance(x1: u64, x2: u64, rng: &mut StdRng) -> Instance<LeakyMsg> {
    let cfg = leaky_sub_config();
    let m = cfg.m;
    // Reuse the Gordon–Katz instance's functionality, adapted to LeakyMsg.
    let gk = gk_instance("leaky-and", cfg, [Value::Scalar(x1), Value::Scalar(x2)]);
    let func = gk.funcs.into_iter().next().expect("sharegen functionality");
    let adapted = fair_runtime::Adapted::new(
        WrapGk(func),
        |m: &LeakyMsg| match m {
            LeakyMsg::Gk(g) => Some(g.clone()),
            _ => None,
        },
        LeakyMsg::Gk,
    );
    Instance {
        parties: vec![
            Box::new(LeakyParty::new(1, x1, m, &mut sub_rng(rng))),
            Box::new(LeakyParty::new(2, x2, m, &mut sub_rng(rng))),
        ],
        funcs: vec![Box::new(adapted)],
    }
}

fn sub_rng(rng: &mut StdRng) -> StdRng {
    StdRng::seed_from_u64(rng.random())
}

/// Wraps the boxed ShareGen functionality (adapters need a sized type).
struct WrapGk(Box<dyn fair_runtime::Functionality<GkMsg>>);

impl fair_runtime::Functionality<GkMsg> for WrapGk {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn on_round(
        &mut self,
        ctx: &mut fair_runtime::FuncCtx<'_>,
        incoming: &[Envelope<GkMsg>],
    ) -> Vec<OutMsg<GkMsg>> {
        self.0.on_round(ctx, incoming)
    }
}

/// What an environment observes when probing Π̃ with a corrupted p₂ that
/// sends the deviant 1-bit and then plays honestly with input `x2_played`.
#[derive(Clone, Debug, PartialEq)]
pub struct LeakyObservation {
    /// p₁'s step-2 reply: `None` = no reply seen, `Some(None)` = empty
    /// message, `Some(Some(bit))` = leaked input.
    pub reply: Option<Option<u64>>,
    /// p₁'s (the honest party's) output z₁.
    pub z1: Value,
}

/// The probing adversary of Lemmas 26/27: corrupts p₂, sends the 1-bit,
/// records the reply, and otherwise runs p₂ honestly with its input.
pub struct LeakyProbe {
    reply: Option<Option<u64>>,
}

impl LeakyProbe {
    /// Creates the probe.
    pub fn new() -> LeakyProbe {
        LeakyProbe { reply: None }
    }
}

impl Default for LeakyProbe {
    fn default() -> Self {
        LeakyProbe::new()
    }
}

impl fair_runtime::Adversary<LeakyMsg> for LeakyProbe {
    fn initial_corruptions(&mut self, _n: usize, _rng: &mut StdRng) -> Vec<PartyId> {
        vec![PartyId(1)]
    }

    fn on_round(
        &mut self,
        view: &fair_runtime::RoundView<'_, LeakyMsg>,
        ctrl: &mut fair_runtime::AdvControl<'_, LeakyMsg>,
        _rng: &mut StdRng,
    ) {
        if view.round == 0 {
            // Deviate: send 1 instead of the honest 0.
            ctrl.send_as(
                PartyId(1),
                OutMsg::to_party(PartyId(0), LeakyMsg::FirstBit(true)),
            );
            return;
        }
        for e in view.delivered.iter().chain(view.rushing.iter()) {
            if let LeakyMsg::Reply(r) = &e.msg {
                if self.reply.is_none() {
                    self.reply = Some(*r);
                }
            }
        }
        // Play the rest honestly (the embedded 1/4-secure protocol).
        ctrl.run_honestly(PartyId(1));
    }

    fn learned(&self) -> Option<Value> {
        None
    }
}

/// Runs the Lemma 26 probe against the *real* Π̃ and returns the
/// observation. `x1` is the honest party's input; the corrupted p₂ plays
/// the embedded protocol honestly with input `x2_played`.
pub fn probe_real(x1: u64, x2_played: u64, seed: u64) -> LeakyObservation {
    let mut rng = StdRng::seed_from_u64(seed);
    let inst = leaky_instance(x1, x2_played, &mut rng);
    let mut adv = LeakyProbe::new();
    let res = fair_runtime::execute(inst, &mut adv, &mut rng, 400).expect("execution succeeds");
    LeakyObservation {
        reply: adv.reply,
        z1: res.outputs.get(&PartyId(0)).cloned().unwrap_or(Value::Bot),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fair_runtime::{execute, Passive};

    #[test]
    fn honest_run_computes_and() {
        for (x1, x2) in [(0u64, 0u64), (0, 1), (1, 0), (1, 1)] {
            let mut rng = StdRng::seed_from_u64(60 + x1 * 2 + x2);
            let inst = leaky_instance(x1, x2, &mut rng);
            let res = execute(inst, &mut Passive, &mut rng, 400).expect("execution succeeds");
            assert!(
                res.all_honest_output(&Value::Scalar(x1 & x2)),
                "{x1} ∧ {x2}: {:?}",
                res.outputs
            );
        }
    }

    #[test]
    fn honest_p2_never_triggers_the_leak() {
        // With an honest p2 (first bit 0), p1 never sends a Reply.
        let mut rng = StdRng::seed_from_u64(70);
        let inst = leaky_instance(1, 1, &mut rng);
        let res = execute(inst, &mut Passive, &mut rng, 400).expect("execution succeeds");
        assert!(res.all_honest_got_output());
    }

    #[test]
    fn probe_leaks_the_input_about_a_quarter_of_the_time() {
        let mut leaked = 0;
        let mut correct_leak = true;
        let trials = 400;
        for seed in 0..trials {
            let obs = probe_real(1, 0, 4000 + seed);
            if let Some(Some(bit)) = obs.reply {
                leaked += 1;
                correct_leak &= bit == 1;
            }
        }
        let rate = leaked as f64 / trials as f64;
        assert!((0.15..=0.35).contains(&rate), "leak rate {rate} ≈ 1/4");
        assert!(correct_leak, "every leak reveals the true input");
    }

    #[test]
    fn probe_with_x2_zero_gets_z1_zero() {
        // p2 plays the embedded protocol honestly with 0, so z1 = x1 ∧ 0 = 0
        // (up to the sub-protocol's own small failure probability).
        let mut zeros = 0;
        let trials = 60;
        for seed in 0..trials {
            let obs = probe_real(1, 0, 9000 + seed);
            if obs.z1 == Value::Scalar(0) {
                zeros += 1;
            }
        }
        assert!(
            zeros as f64 / trials as f64 > 0.8,
            "z1 = 0 in {zeros}/{trials}"
        );
    }

    #[test]
    fn leaky_msg_wire_len_per_variant() {
        assert_eq!(LeakyMsg::FirstBit(true).wire_len(), 1 + 1);
        assert_eq!(LeakyMsg::Reply(None).wire_len(), 1 + 1);
        assert_eq!(LeakyMsg::Reply(Some(5)).wire_len(), 1 + 1 + 8);
        let sfe = GkMsg::Sfe(fair_sfe::ideal::SfeMsg::Abort);
        assert_eq!(LeakyMsg::Gk(sfe).wire_len(), 1 + 1 + 1);
    }
}
