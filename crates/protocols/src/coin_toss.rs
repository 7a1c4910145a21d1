//! Blum's commit-then-open coin toss — the subprotocol Π2 uses to decide
//! who opens first (the paper's reference [4]).
//!
//! Each party commits to a random bit, the commitments are exchanged, and
//! both are opened in a single simultaneous round; the coin is the XOR of
//! the two bits. Binding prevents a rushing adversary from *biasing* the
//! coin — its only remaining power is to abort after seeing the honest
//! opening, which is precisely the residual unfairness Π2 inherits (and
//! why Π2 lands at (γ₁₀+γ₁₁)/2 rather than full fairness).

use fair_crypto::commit::{self, Commitment, Opening};
use fair_runtime::wire::{WireLen, TAG};
use fair_runtime::{Envelope, Instance, OutMsg, Party, PartyId, RoundCtx, Value};
use rand::rngs::StdRng;
use rand::RngExt;

/// Wire messages of the coin toss.
#[derive(Clone, Debug)]
pub enum CoinMsg {
    /// Round 0: the bit commitment.
    Commit(Commitment),
    /// Round 1: its opening.
    Open(Opening),
}

impl WireLen for CoinMsg {
    fn wire_len(&self) -> usize {
        TAG + match self {
            CoinMsg::Commit(_) => Commitment::WIRE_LEN,
            CoinMsg::Open(o) => o.wire_len(),
        }
    }
}

/// A coin-toss party. Outputs `Scalar(b)` for the joint coin b, or ⊥ if
/// the counterparty aborts or cheats.
#[derive(Clone, Debug)]
pub struct CoinParty {
    bit: bool,
    opening: Opening,
    commitment: Commitment,
    their_commitment: Option<Commitment>,
    out: Option<Value>,
}

impl CoinParty {
    /// Creates a party with a fresh random bit.
    pub fn new(rng: &mut StdRng) -> CoinParty {
        let bit: bool = rng.random();
        let (commitment, opening) = commit::commit(&[bit as u8], rng);
        CoinParty {
            bit,
            opening,
            commitment,
            their_commitment: None,
            out: None,
        }
    }

    /// The party's committed bit (visible for tests and adversaries that
    /// corrupt the party).
    pub fn bit(&self) -> bool {
        self.bit
    }
}

impl Party<CoinMsg> for CoinParty {
    fn round(&mut self, ctx: &RoundCtx, inbox: &[Envelope<CoinMsg>]) -> Vec<OutMsg<CoinMsg>> {
        if self.out.is_some() {
            return Vec::new();
        }
        let other = PartyId(1 - ctx.id.0);
        let mut opened: Option<Opening> = None;
        for e in inbox {
            if e.from_party() != Some(other) {
                continue;
            }
            match &e.msg {
                CoinMsg::Commit(c) => {
                    if self.their_commitment.is_none() {
                        self.their_commitment = Some(*c);
                    }
                }
                CoinMsg::Open(o) => opened = Some(o.clone()),
            }
        }
        match ctx.round {
            0 => vec![OutMsg::to_party(other, CoinMsg::Commit(self.commitment))],
            1 => {
                if self.their_commitment.is_none() {
                    self.out = Some(Value::Bot);
                    return Vec::new();
                }
                vec![OutMsg::to_party(other, CoinMsg::Open(self.opening.clone()))]
            }
            _ => {
                match opened {
                    Some(o) => {
                        let valid = self
                            .their_commitment
                            .as_ref()
                            .map(|c| {
                                commit::verify(c, &o) && o.message.len() == 1 && o.message[0] <= 1
                            })
                            .unwrap_or(false);
                        if valid {
                            let b = self.bit ^ (o.message[0] == 1);
                            self.out = Some(Value::Scalar(b as u64));
                        } else {
                            self.out = Some(Value::Bot);
                        }
                    }
                    None => self.out = Some(Value::Bot),
                }
                Vec::new()
            }
        }
    }

    fn output(&self) -> Option<Value> {
        self.out.clone()
    }

    fn clone_box(&self) -> Box<dyn Party<CoinMsg>> {
        Box::new(self.clone())
    }
}

/// Builds a two-party coin-toss instance.
pub fn coin_toss_instance(rng: &mut StdRng) -> Instance<CoinMsg> {
    Instance {
        parties: vec![Box::new(CoinParty::new(rng)), Box::new(CoinParty::new(rng))],
        funcs: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fair_runtime::{execute, AdvControl, Adversary, Passive, RoundView};
    use rand::SeedableRng;

    #[test]
    fn honest_toss_agrees_and_is_roughly_uniform() {
        let mut ones = 0;
        let trials = 400;
        for seed in 0..trials {
            let mut rng = StdRng::seed_from_u64(seed);
            let inst = coin_toss_instance(&mut rng);
            let res = execute(inst, &mut Passive, &mut rng, 10).expect("execution succeeds");
            let b0 = res.outputs[&PartyId(0)].as_scalar().expect("coin");
            let b1 = res.outputs[&PartyId(1)].as_scalar().expect("coin");
            assert_eq!(b0, b1, "parties agree on the coin");
            ones += b0;
        }
        let rate = ones as f64 / trials as f64;
        assert!((0.42..=0.58).contains(&rate), "coin bias: {rate}");
    }

    /// A rushing adversary that sees the honest opening first and *tries*
    /// to flip the outcome by substituting a different opening — binding
    /// makes every substitution fail.
    struct Flipper {
        fake: Option<Opening>,
    }

    impl Adversary<CoinMsg> for Flipper {
        fn initial_corruptions(&mut self, _n: usize, _r: &mut StdRng) -> Vec<PartyId> {
            vec![PartyId(0)]
        }

        fn on_round(
            &mut self,
            view: &RoundView<'_, CoinMsg>,
            ctrl: &mut AdvControl<'_, CoinMsg>,
            rng: &mut StdRng,
        ) {
            if view.round == 0 {
                ctrl.run_honestly(PartyId(0));
                return;
            }
            if view.round == 1 {
                // Rushing: the honest opening is visible now. Forge an
                // opening for the flipped bit under *fresh* randomness —
                // it cannot match our round-0 commitment.
                let honest_bit = view
                    .rushing
                    .iter()
                    .find_map(|e| match &e.msg {
                        CoinMsg::Open(o) => Some(o.message[0]),
                        _ => None,
                    })
                    .expect("rushing shows the honest opening");
                let target = honest_bit ^ 1; // force coin = 1
                let (_, fake) = fair_crypto::commit::commit(&[target], rng);
                self.fake = Some(fake.clone());
                ctrl.send_as(
                    PartyId(0),
                    OutMsg::to_party(PartyId(1), CoinMsg::Open(fake)),
                );
            }
        }
    }

    #[test]
    fn binding_blocks_rushing_bias() {
        for seed in 0..30 {
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let inst = coin_toss_instance(&mut rng);
            let mut adv = Flipper { fake: None };
            let res = execute(inst, &mut adv, &mut rng, 10).expect("execution succeeds");
            // The honest party never accepts the forged opening: it aborts
            // rather than outputting a biased coin.
            assert_eq!(res.outputs[&PartyId(1)], Value::Bot, "seed {seed}");
        }
    }

    #[test]
    fn silent_counterparty_aborts_the_toss() {
        struct Silent;
        impl Adversary<CoinMsg> for Silent {
            fn initial_corruptions(&mut self, _n: usize, _r: &mut StdRng) -> Vec<PartyId> {
                vec![PartyId(0)]
            }
            fn on_round(
                &mut self,
                _v: &RoundView<'_, CoinMsg>,
                _c: &mut AdvControl<'_, CoinMsg>,
                _r: &mut StdRng,
            ) {
            }
        }
        let mut rng = StdRng::seed_from_u64(77);
        let inst = coin_toss_instance(&mut rng);
        let res = execute(inst, &mut Silent, &mut rng, 10).expect("execution succeeds");
        assert_eq!(res.outputs[&PartyId(1)], Value::Bot);
    }

    #[test]
    fn coin_msg_wire_len_per_variant() {
        assert_eq!(CoinMsg::Commit(Commitment([0; 32])).wire_len(), 1 + 32);
        let o = Opening {
            message: vec![1],
            randomness: vec![0; 32],
        };
        assert_eq!(CoinMsg::Open(o).wire_len(), 1 + 4 + 1 + 4 + 32);
    }
}
