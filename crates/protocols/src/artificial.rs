//! The artificial protocol of Lemma 18: *optimally fair but not
//! utility-balanced*.
//!
//! Phase 1 is the same private-output functionality as Π^Opt_nSFE (the
//! designated party p_{i*} receives the signed output). Then:
//!
//! 1. every party sends the literal value "0" to all other parties;
//! 2. if the holder received only 0s, it broadcasts the output; otherwise
//!    it tosses a fair coin — on heads it broadcasts anyway, on tails it
//!    sends the output *only to the parties that did not send a 0*;
//! 3. every party that received the output adopts it.
//!
//! A 1-adversary that sends "1" instead of "0" therefore gets the output
//! delivered privately to itself on tails, while all honest parties are
//! left empty-handed: utility γ₁₀/n + (n−1)/n · (γ₁₀+γ₁₁)/2, strictly more
//! than Π^Opt_nSFE's 1-adversary bound — yet the (n−1)-adversary utility is
//! unchanged, so the protocol remains *optimally* fair (experiment E9).

use std::sync::Arc;

use fair_crypto::sign::VerifyingKey;
use fair_runtime::wire::{WireLen, TAG};
use fair_runtime::{Adapted, Envelope, FuncId, Instance, OutMsg, Party, PartyId, RoundCtx, Value};
use fair_sfe::ideal::{SfeMsg, SfeWithAbort};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::optn::{priv_spec, validate, NPartyFn, PrivOutput};

/// Rounds a party waits for the phase-1 result before concluding abort.
const PHASE1_DEADLINE: usize = 8;

/// Wire messages.
#[derive(Clone, Debug)]
pub enum ArtMsg {
    /// Traffic to/from the phase-1 functionality.
    Sfe(SfeMsg<PrivOutput>),
    /// Step 2: the "0"-vote (`true` = the honest value 0).
    Vote(bool),
    /// Step 3: the signed output, broadcast or sent point-to-point.
    Reveal(Value),
}

impl WireLen for ArtMsg {
    fn wire_len(&self) -> usize {
        TAG + match self {
            ArtMsg::Sfe(s) => s.wire_len(),
            ArtMsg::Vote(b) => b.wire_len(),
            ArtMsg::Reveal(v) => v.wire_len(),
        }
    }
}

fn down(m: &ArtMsg) -> Option<SfeMsg<PrivOutput>> {
    match m {
        ArtMsg::Sfe(s) => Some(s.clone()),
        _ => None,
    }
}

#[derive(Clone, Debug)]
#[allow(clippy::enum_variant_names)] // the Await* names mirror the paper's phase labels
enum Phase {
    AwaitShareGen,
    /// Vote sent; holder will act once all votes land (or at the deadline).
    AwaitVotes {
        deadline: usize,
    },
    /// Non-holder waiting for a reveal (or timeout).
    AwaitReveal {
        deadline: usize,
    },
}

/// A party of the Lemma 18 protocol.
#[derive(Clone, Debug)]
pub struct ArtParty {
    input: Value,
    /// Pre-drawn fair coin for step 3.
    coin_heads: bool,
    vk: Option<Arc<VerifyingKey>>,
    mine: Option<Value>,
    votes: Vec<(PartyId, bool)>,
    reveals: Vec<Value>,
    phase: Phase,
    out: Option<Value>,
}

impl ArtParty {
    /// Creates a party; the step-3 coin is pre-drawn from `rng`.
    pub fn new(input: Value, rng: &mut StdRng) -> ArtParty {
        ArtParty {
            input,
            coin_heads: rng.random(),
            vk: None,
            mine: None,
            votes: Vec::new(),
            reveals: Vec::new(),
            phase: Phase::AwaitShareGen,
            out: None,
        }
    }

    fn i_am_holder(&self) -> bool {
        matches!(self.mine, Some(Value::Pair(_, _)))
    }
}

impl Party<ArtMsg> for ArtParty {
    fn round(&mut self, ctx: &RoundCtx, inbox: &[Envelope<ArtMsg>]) -> Vec<OutMsg<ArtMsg>> {
        if self.out.is_some() {
            return Vec::new();
        }
        let mut sfe: Option<SfeMsg<PrivOutput>> = None;
        for e in inbox {
            match (&e.msg, e.from_party()) {
                (ArtMsg::Sfe(m), None) => sfe = Some(m.clone()),
                (ArtMsg::Vote(b), Some(p)) => self.votes.push((p, *b)),
                (ArtMsg::Reveal(v), Some(_)) => self.reveals.push(v.clone()),
                _ => {}
            }
        }
        match &self.phase {
            Phase::AwaitShareGen => {
                if ctx.round == 0 {
                    return vec![OutMsg::to_func(
                        FuncId(0),
                        ArtMsg::Sfe(SfeMsg::Input(self.input.clone())),
                    )];
                }
                match sfe {
                    Some(SfeMsg::Output(PrivOutput { mine, vk })) => {
                        self.vk = Some(vk);
                        self.mine = Some(mine);
                        self.phase = Phase::AwaitVotes {
                            deadline: ctx.round + 2,
                        };
                        // Step 2: send "0" to everyone else.
                        (0..ctx.n)
                            .filter(|&j| j != ctx.id.0)
                            .map(|j| OutMsg::to_party(PartyId(j), ArtMsg::Vote(true)))
                            .collect()
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
            Phase::AwaitVotes { deadline } => {
                if self.votes.len() < ctx.n - 1 && ctx.round < *deadline {
                    return Vec::new();
                }
                if self.i_am_holder() {
                    let mine = self.mine.clone().expect("holder has output");
                    let y = validate(self.vk.as_deref(), &mine).unwrap_or(Value::Bot);
                    // Which parties sent an honest 0?
                    let zero_senders: Vec<PartyId> = self
                        .votes
                        .iter()
                        .filter(|(_, b)| *b)
                        .map(|(p, _)| *p)
                        .collect();
                    let all_zero = zero_senders.len() == ctx.n - 1;
                    self.out = Some(y);
                    if all_zero || self.coin_heads {
                        vec![OutMsg::broadcast(ArtMsg::Reveal(mine))]
                    } else {
                        // Tails: reward exactly the non-0 senders.
                        (0..ctx.n)
                            .filter(|&j| j != ctx.id.0 && !zero_senders.contains(&PartyId(j)))
                            .map(|j| OutMsg::to_party(PartyId(j), ArtMsg::Reveal(mine.clone())))
                            .collect()
                    }
                } else {
                    self.phase = Phase::AwaitReveal {
                        deadline: ctx.round + 2,
                    };
                    Vec::new()
                }
            }
            Phase::AwaitReveal { deadline } => {
                let vk = self.vk.as_deref();
                if let Some(y) = self.reveals.iter().find_map(|r| validate(vk, r)) {
                    self.out = Some(y);
                } else if ctx.round >= *deadline {
                    self.out = Some(Value::Bot);
                }
                Vec::new()
            }
        }
    }

    fn output(&self) -> Option<Value> {
        self.out.clone()
    }

    fn clone_box(&self) -> Box<dyn Party<ArtMsg>> {
        Box::new(self.clone())
    }
}

/// Builds an instance of the Lemma 18 protocol.
pub fn artificial_instance(
    name: &str,
    f: NPartyFn,
    inputs: Vec<Value>,
    rng: &mut StdRng,
) -> Instance<ArtMsg> {
    let n = inputs.len();
    let spec = priv_spec(name, n, f);
    let func = Adapted::new(SfeWithAbort::new(spec), down, ArtMsg::Sfe);
    Instance {
        parties: inputs
            .into_iter()
            .map(|x| {
                let mut party_rng = StdRng::seed_from_u64(rng.random());
                Box::new(ArtParty::new(x, &mut party_rng)) as Box<dyn Party<ArtMsg>>
            })
            .collect(),
        funcs: vec![Box::new(func)],
    }
}

/// The Lemma 18 one-party attack: run phase 1 honestly; if the corrupted
/// party turns out to hold the output, abort immediately (γ₁₀); otherwise
/// send "1" in step 2 and wait for a tails-reveal.
pub struct VoteOneAttack {
    target: PartyId,
    learned: Option<Value>,
    holder: bool,
    silent: bool,
}

impl VoteOneAttack {
    /// Attacks with corrupted party `target` (0-based).
    pub fn new(target: usize) -> VoteOneAttack {
        VoteOneAttack {
            target: PartyId(target),
            learned: None,
            holder: false,
            silent: false,
        }
    }
}

impl fair_runtime::Adversary<ArtMsg> for VoteOneAttack {
    fn initial_corruptions(&mut self, n: usize, _rng: &mut StdRng) -> Vec<PartyId> {
        assert!(self.target.0 < n);
        vec![self.target]
    }

    fn on_round(
        &mut self,
        view: &fair_runtime::RoundView<'_, ArtMsg>,
        ctrl: &mut fair_runtime::AdvControl<'_, ArtMsg>,
        _rng: &mut StdRng,
    ) {
        if self.silent {
            return;
        }
        // Inspect deliveries: the phase-1 output and any reveals.
        for e in view.delivered {
            match &e.msg {
                ArtMsg::Sfe(SfeMsg::Output(dealt)) => {
                    if let Value::Pair(y, _) = &dealt.mine {
                        // We are the holder: grab y and abort.
                        self.learned = Some((**y).clone());
                        self.holder = true;
                        self.silent = true;
                        return;
                    }
                    // Not the holder: send the deviant "1" votes now.
                    for j in 0..view.n {
                        if PartyId(j) != self.target {
                            ctrl.send_as(
                                self.target,
                                OutMsg::to_party(PartyId(j), ArtMsg::Vote(false)),
                            );
                        }
                    }
                    // Also submit nothing else; wait for a reveal.
                }
                ArtMsg::Reveal(Value::Pair(y, _)) => {
                    self.learned = Some((**y).clone());
                }
                _ => {}
            }
        }
        if view.round == 0 {
            ctrl.run_honestly(self.target); // submit the input
        }
    }

    fn learned(&self) -> Option<Value> {
        self.learned.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optn::concat_fn;
    use fair_runtime::{execute, Passive};

    fn instance(n: usize, seed: u64) -> Instance<ArtMsg> {
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs = (0..n).map(|i| Value::Scalar(50 + i as u64)).collect();
        artificial_instance("concat", concat_fn(), inputs, &mut rng)
    }

    fn truth(n: usize) -> Value {
        Value::Tuple((0..n).map(|i| Value::Scalar(50 + i as u64)).collect())
    }

    #[test]
    fn honest_run_broadcasts_and_everyone_outputs() {
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let res =
                execute(instance(4, seed), &mut Passive, &mut rng, 30).expect("execution succeeds");
            assert!(
                res.all_honest_output(&truth(4)),
                "seed {seed}: {:?}",
                res.outputs
            );
        }
    }

    #[test]
    fn vote_one_attack_has_three_outcomes() {
        // Over many seeds we must observe: (a) holder-abort E10,
        // (b) tails private reveal E10, (c) heads broadcast E11.
        let n = 4;
        let mut holder_abort = 0;
        let mut private_reveal = 0;
        let mut broadcast = 0;
        for seed in 0..120 {
            let mut rng = StdRng::seed_from_u64(500 + seed);
            let mut adv = VoteOneAttack::new(0);
            let res =
                execute(instance(n, seed), &mut adv, &mut rng, 30).expect("execution succeeds");
            let learned = res.learned == Some(truth(n));
            let honest_got = res.outputs.values().all(|v| *v == truth(n));
            assert!(
                res.outputs.values().all(|v| v.is_bot() || *v == truth(n)),
                "outputs are y or ⊥: {:?}",
                res.outputs
            );
            match (learned, honest_got, adv.holder) {
                (true, false, true) => holder_abort += 1,
                (true, false, false) => private_reveal += 1,
                (true, true, _) => broadcast += 1,
                other => {
                    // The holder itself always outputs y; when the holder is
                    // honest and tails fires, honest non-holders get ⊥ but
                    // the holder keeps y — count as private reveal.
                    if res.learned == Some(truth(n)) {
                        private_reveal += 1;
                    } else {
                        panic!("unexpected outcome {other:?}: {:?}", res.outputs);
                    }
                }
            }
        }
        assert!(holder_abort > 10, "holder branch seen {holder_abort}");
        assert!(private_reveal > 10, "tails branch seen {private_reveal}");
        assert!(broadcast > 20, "heads branch seen {broadcast}");
    }

    #[test]
    fn art_msg_wire_len_per_variant() {
        assert_eq!(ArtMsg::Sfe(SfeMsg::Abort).wire_len(), 1 + 1);
        assert_eq!(ArtMsg::Vote(true).wire_len(), 1 + 1);
        assert_eq!(ArtMsg::Reveal(Value::Scalar(1)).wire_len(), 1 + 9);
    }
}
