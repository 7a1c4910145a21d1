//! Π^{1/2}_GMW — the honest-majority fair SFE protocol of Lemma 17.
//!
//! The classic GMW protocol is fully secure — including fairness — against
//! any coalition of t < n/2 parties, and completely unfair at or beyond
//! n/2. Lemma 17 uses exactly this threshold cliff to show the protocol is
//! *not* utility-balanced for even n.
//!
//! Implementation: the phase-1 hybrid hands every party the output
//! encrypted under a one-time key k, a Shamir (⌊n/2⌋+1)-of-n share of k
//! with the opening randomness of a hash commitment to it, and the same
//! list of all n share commitments. Phase 2 broadcasts every share with
//! its opening in a single simultaneous round; a share counts only if it
//! opens the commitment published for its index, so injected bogus shares
//! are detected, and every honest party agrees on which shares are valid.
//! With a strict majority of valid shares everyone recovers k and
//! decrypts. A rushing coalition of t ≥ n/2 reads the honest shares
//! before releasing its own and withholds them — it learns y while the
//! remaining ⌊n/2⌋ honest parties stay below the threshold (see
//! [`HalfCoalition`]).

use std::sync::Arc;

use fair_crypto::commit::{self, Commitment, Opening};
use fair_crypto::prg::Prg;
use fair_crypto::share::{shamir_reconstruct, shamir_share, ShamirShare};
use fair_field::Fp;
use fair_runtime::wire::{WireLen, INT, TAG};
use fair_runtime::{
    Adapted, AdvControl, Adversary, Envelope, FuncId, Instance, OutMsg, Party, PartyId, RoundCtx,
    RoundView, Value,
};
use fair_sfe::ideal::{SfeMsg, SfeWithAbort};
use fair_sfe::spec::{IdealOutput, IdealSpec};
use rand::rngs::StdRng;

use crate::optn::NPartyFn;

/// Rounds a party waits for the phase-1 result before concluding abort.
const PHASE1_DEADLINE: usize = 8;

/// The reconstruction threshold ⌊n/2⌋ + 1: a strict majority of shares is
/// needed to recover the key. Combined with the single simultaneous
/// broadcast round this yields exactly the Lemma 17 cliff: a rushing
/// coalition of t ≥ n/2 sees the honest shares before releasing its own,
/// learns the output, and leaves the n − t ≤ ⌊n/2⌋ honest parties below
/// the threshold; any t < n/2 leaves an honest strict majority that
/// reconstructs no matter what the coalition does.
pub fn threshold(n: usize) -> usize {
    n / 2 + 1
}

/// A party's phase-1 output: the encrypted output, its key share with the
/// opening randomness of the share's commitment, and the commitments to
/// all n shares, one allocation shared by all parties.
#[derive(Clone, Debug)]
pub struct HalfOutput {
    /// The output y encrypted under the one-time key k.
    pub ct: Vec<u8>,
    /// This party's Shamir share of k: its index…
    pub index: u64,
    /// …and its value.
    pub value: u64,
    /// The opening randomness of the commitment to this party's share.
    pub randomness: Vec<u8>,
    /// The commitments to all n shares, by index − 1.
    pub commitments: Arc<[Commitment]>,
}

/// Sized as the `Value` tuple (ciphertext, index, value, randomness,
/// commitments) with each commitment a byte string of its digest.
impl WireLen for HalfOutput {
    fn wire_len(&self) -> usize {
        let digests = self
            .commitments
            .iter()
            .map(|_| Value::bytes_wire_len(Commitment::WIRE_LEN));
        Value::tuple_wire_len([
            Value::bytes_wire_len(self.ct.len()),
            Value::Scalar(self.index).wire_len(),
            Value::Scalar(self.value).wire_len(),
            Value::bytes_wire_len(self.randomness.len()),
            Value::tuple_wire_len(digests),
        ])
    }
}

/// Wire messages.
#[derive(Clone, Debug)]
pub enum HalfMsg {
    /// Traffic to/from the phase-1 functionality.
    Sfe(SfeMsg<HalfOutput>),
    /// Phase 2 broadcast: an opened key share (index, value, opening
    /// randomness).
    KeyShare(u64, u64, Vec<u8>),
}

impl WireLen for HalfMsg {
    fn wire_len(&self) -> usize {
        TAG + match self {
            HalfMsg::Sfe(s) => s.wire_len(),
            HalfMsg::KeyShare(_, _, r) => 2 * INT + r.wire_len(),
        }
    }
}

fn down(m: &HalfMsg) -> Option<SfeMsg<HalfOutput>> {
    match m {
        HalfMsg::Sfe(s) => Some(s.clone()),
        HalfMsg::KeyShare(..) => None,
    }
}

fn share_payload(index: u64, value: u64) -> Vec<u8> {
    let mut out = b"gmw-half-share".to_vec();
    out.extend_from_slice(&index.to_be_bytes());
    out.extend_from_slice(&value.to_be_bytes());
    out
}

/// Decrypts the phase-1 ciphertext with key `k`.
pub fn decrypt(ct: &[u8], k: Fp) -> Option<Value> {
    let pad = Prg::new(&k.value().to_be_bytes()).next_bytes(ct.len());
    let bytes: Vec<u8> = ct.iter().zip(&pad).map(|(a, b)| a ^ b).collect();
    Value::decode(&bytes)
}

/// The phase-1 specification: encrypted output plus verifiable key shares.
/// Party j receives the ciphertext, its share (index, value), the opening
/// randomness of the commitment to that share, and the commitments to all
/// n shares. Records facts `y` and `threshold`.
pub fn half_spec(name: &str, n: usize, f: NPartyFn) -> IdealSpec<HalfOutput> {
    IdealSpec::new(name, n, move |inputs, rng| {
        let y = f(inputs);
        let k = fair_crypto::prg::random_fp(rng);
        let enc = y.encode();
        let pad = Prg::new(&k.value().to_be_bytes()).next_bytes(enc.len());
        let ct: Vec<u8> = enc.iter().zip(&pad).map(|(a, b)| a ^ b).collect();
        let t = threshold(inputs.len());
        let shares = shamir_share(k, t, inputs.len(), rng);
        let (commitments, openings): (Vec<Commitment>, Vec<Opening>) = shares
            .iter()
            .map(|s| commit::commit(&share_payload(s.index, s.value.value()), rng))
            .unzip();
        let commitments: Arc<[Commitment]> = commitments.into();
        let per_party = shares
            .iter()
            .zip(openings)
            .map(|(s, o)| HalfOutput {
                ct: ct.clone(),
                index: s.index,
                value: s.value.value(),
                randomness: o.randomness,
                commitments: Arc::clone(&commitments),
            })
            .collect();
        IdealOutput {
            facts: vec![
                ("y".to_string(), y.clone()),
                ("threshold".to_string(), Value::Scalar(t as u64)),
            ],
            per_party,
        }
    })
}

#[derive(Clone, Debug)]
enum Phase {
    AwaitShareGen,
    AwaitShares { deadline: usize },
}

/// A party of Π^{1/2}_GMW.
#[derive(Clone, Debug)]
pub struct HalfParty {
    input: Value,
    dealt: Option<HalfOutput>,
    received: Vec<(u64, u64, Vec<u8>)>,
    phase: Phase,
    out: Option<Value>,
}

impl HalfParty {
    /// Creates a party with its input.
    pub fn new(input: Value) -> HalfParty {
        HalfParty {
            input,
            dealt: None,
            received: Vec::new(),
            phase: Phase::AwaitShareGen,
            out: None,
        }
    }

    /// A share is valid iff it opens the commitment published for its
    /// index.
    fn valid_share(&self, index: u64, value: u64, randomness: &[u8]) -> bool {
        let Some(c) = self
            .dealt
            .as_ref()
            .and_then(|d| d.commitments.get((index as usize).wrapping_sub(1)))
        else {
            return false;
        };
        let opening = Opening {
            message: share_payload(index, value),
            randomness: randomness.to_vec(),
        };
        commit::verify(c, &opening)
    }

    fn decide(&mut self, n: usize) {
        let t = threshold(n);
        let mut shares: Vec<ShamirShare> = Vec::new();
        let mut mine_and_received = self.received.clone();
        if let Some(d) = &self.dealt {
            mine_and_received.push((d.index, d.value, d.randomness.clone()));
        }
        for (index, value, r) in &mine_and_received {
            if !self.valid_share(*index, *value, r) {
                continue;
            }
            if shares.iter().any(|s| s.index == *index) {
                continue;
            }
            shares.push(ShamirShare {
                index: *index,
                value: Fp::new(*value),
            });
        }
        let out = if shares.len() >= t {
            shamir_reconstruct(&shares, t)
                .ok()
                .and_then(|k| self.dealt.as_ref().and_then(|d| decrypt(&d.ct, k)))
                .unwrap_or(Value::Bot)
        } else {
            Value::Bot
        };
        self.out = Some(out);
    }
}

impl Party<HalfMsg> for HalfParty {
    fn round(&mut self, ctx: &RoundCtx, inbox: &[Envelope<HalfMsg>]) -> Vec<OutMsg<HalfMsg>> {
        if self.out.is_some() {
            return Vec::new();
        }
        let mut sfe: Option<SfeMsg<HalfOutput>> = None;
        for e in inbox {
            match &e.msg {
                HalfMsg::Sfe(m) if matches!(e.from, fair_runtime::Endpoint::Func(_)) => {
                    sfe = Some(m.clone());
                }
                HalfMsg::KeyShare(i, v, r) => self.received.push((*i, *v, r.clone())),
                _ => {}
            }
        }
        match &self.phase {
            Phase::AwaitShareGen => {
                if ctx.round == 0 {
                    return vec![OutMsg::to_func(
                        FuncId(0),
                        HalfMsg::Sfe(SfeMsg::Input(self.input.clone())),
                    )];
                }
                match sfe {
                    Some(SfeMsg::Output(dealt)) => {
                        let share =
                            HalfMsg::KeyShare(dealt.index, dealt.value, dealt.randomness.clone());
                        self.dealt = Some(dealt);
                        self.phase = Phase::AwaitShares {
                            deadline: ctx.round + 2,
                        };
                        vec![OutMsg::broadcast(share)]
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
            Phase::AwaitShares { deadline } => {
                // Our own broadcast loops back, so `received` reaches n when
                // every party has announced.
                if self.received.len() >= ctx.n || ctx.round >= *deadline {
                    self.decide(ctx.n);
                }
                Vec::new()
            }
        }
    }

    fn output(&self) -> Option<Value> {
        self.out.clone()
    }

    fn clone_box(&self) -> Box<dyn Party<HalfMsg>> {
        Box::new(self.clone())
    }
}

/// Builds a Π^{1/2}_GMW instance.
pub fn gmw_half_instance(name: &str, f: NPartyFn, inputs: Vec<Value>) -> Instance<HalfMsg> {
    let n = inputs.len();
    let spec = half_spec(name, n, f);
    let func = Adapted::new(SfeWithAbort::new(spec), down, HalfMsg::Sfe);
    Instance {
        parties: inputs
            .into_iter()
            .map(|x| Box::new(HalfParty::new(x)) as Box<dyn Party<HalfMsg>>)
            .collect(),
        funcs: vec![Box::new(func)],
    }
}

/// The optimal coalition attack on Π^{1/2}_GMW: run honestly through
/// phase 1, collect the coalition's own key shares, then *withhold* them
/// in the broadcast round while reading the honest shares by rushing.
/// With its own t shares plus the n − t rushed honest shares the coalition
/// always reaches the threshold and learns y; the honest parties are left
/// with n − t shares, which is below the threshold exactly when t ≥ n/2 —
/// the Lemma 17 cliff.
pub struct HalfCoalition {
    corrupted: Vec<PartyId>,
    collected: Vec<(u64, u64)>,
    ct: Option<Vec<u8>>,
    learned: Option<Value>,
    withholding: bool,
}

impl HalfCoalition {
    /// Creates the attack for a fixed coalition (0-based ids).
    pub fn new(coalition: Vec<usize>) -> HalfCoalition {
        HalfCoalition {
            corrupted: coalition.into_iter().map(PartyId).collect(),
            collected: Vec::new(),
            ct: None,
            learned: None,
            withholding: false,
        }
    }

    fn try_reconstruct(&mut self, n: usize) {
        if self.learned.is_some() {
            return;
        }
        let t = threshold(n);
        if self.collected.len() < t {
            return;
        }
        let shares: Vec<ShamirShare> = self
            .collected
            .iter()
            .map(|(i, v)| ShamirShare {
                index: *i,
                value: Fp::new(*v),
            })
            .collect();
        if let (Ok(k), Some(ct)) = (shamir_reconstruct(&shares, t), &self.ct) {
            if let Some(y) = decrypt(ct, k) {
                self.learned = Some(y);
            }
        }
    }
}

impl Adversary<HalfMsg> for HalfCoalition {
    fn initial_corruptions(&mut self, n: usize, _rng: &mut StdRng) -> Vec<PartyId> {
        assert!(self.corrupted.iter().all(|p| p.0 < n));
        self.corrupted.clone()
    }

    fn on_round(
        &mut self,
        view: &RoundView<'_, HalfMsg>,
        ctrl: &mut AdvControl<'_, HalfMsg>,
        _rng: &mut StdRng,
    ) {
        // Harvest the coalition's own phase-1 outputs.
        for e in view.delivered {
            if let HalfMsg::Sfe(SfeMsg::Output(dealt)) = &e.msg {
                self.ct = Some(dealt.ct.clone());
                if !self.collected.iter().any(|(j, _)| *j == dealt.index) {
                    self.collected.push((dealt.index, dealt.value));
                }
                // From the moment we hold shares, never release them.
                self.withholding = true;
            }
        }
        // Rushing: read the honest shares broadcast this round.
        for e in view.rushing {
            if let HalfMsg::KeyShare(i, v, _) = &e.msg {
                if !self.collected.iter().any(|(j, _)| j == i) {
                    self.collected.push((*i, *v));
                }
            }
        }
        self.try_reconstruct(view.n);
        if self.withholding {
            return; // silent from the broadcast stage on
        }
        for &pid in &self.corrupted.clone() {
            ctrl.run_honestly(pid);
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
    use rand::SeedableRng;

    fn instance(n: usize) -> Instance<HalfMsg> {
        let inputs = (0..n).map(|i| Value::Scalar(10 + i as u64)).collect();
        gmw_half_instance("concat", concat_fn(), inputs)
    }

    fn truth(n: usize) -> Value {
        Value::Tuple((0..n).map(|i| Value::Scalar(10 + i as u64)).collect())
    }

    #[test]
    fn honest_run_reconstructs_for_various_n() {
        for n in [3usize, 4, 5, 6] {
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
    fn small_coalition_cannot_break_fairness() {
        // n = 5, t = 2 < 5/2: the coalition learns y by rushing but the
        // honest strict majority reconstructs anyway (E11 at best).
        let mut rng = StdRng::seed_from_u64(40);
        let mut adv = HalfCoalition::new(vec![0, 1]);
        let res = execute(instance(5), &mut adv, &mut rng, 30).expect("execution succeeds");
        assert!(
            res.outputs.values().all(|v| *v == truth(5)),
            "{:?}",
            res.outputs
        );
        assert_eq!(res.learned, Some(truth(5)));
    }

    #[test]
    fn half_coalition_steals_the_output_for_even_n() {
        // n = 4, t = 2 = n/2: rushing gives the coalition all n shares;
        // withholding leaves the honest pair below the ⌊n/2⌋+1 threshold.
        let mut rng = StdRng::seed_from_u64(41);
        let mut adv = HalfCoalition::new(vec![0, 1]);
        let res = execute(instance(4), &mut adv, &mut rng, 30).expect("execution succeeds");
        assert_eq!(res.learned, Some(truth(4)), "coalition learned the output");
        assert!(
            res.outputs.values().all(|v| v.is_bot()),
            "honest parties blocked: {:?}",
            res.outputs
        );
    }

    #[test]
    fn majority_coalition_steals_the_output_for_odd_n() {
        // n = 5, t = 3 ≥ ⌈5/2⌉.
        let mut rng = StdRng::seed_from_u64(44);
        let mut adv = HalfCoalition::new(vec![0, 1, 2]);
        let res = execute(instance(5), &mut adv, &mut rng, 30).expect("execution succeeds");
        assert_eq!(res.learned, Some(truth(5)));
        assert!(res.outputs.values().all(|v| v.is_bot()));
    }

    #[test]
    fn small_coalition_abort_still_lets_honest_reconstruct() {
        // Even if a sub-threshold coalition goes silent in phase 2, the
        // honest majority holds ≥ t shares and reconstructs — that is the
        // fairness of the honest-majority protocol.
        struct SilentInPhase2;
        impl Adversary<HalfMsg> for SilentInPhase2 {
            fn initial_corruptions(&mut self, _n: usize, _r: &mut StdRng) -> Vec<PartyId> {
                vec![PartyId(0)]
            }
            fn on_round(
                &mut self,
                view: &RoundView<'_, HalfMsg>,
                ctrl: &mut AdvControl<'_, HalfMsg>,
                _r: &mut StdRng,
            ) {
                if view.round == 0 {
                    ctrl.run_honestly(PartyId(0)); // submit input
                }
                // then silence: never broadcast the key share
            }
        }
        let mut rng = StdRng::seed_from_u64(42);
        let res =
            execute(instance(5), &mut SilentInPhase2, &mut rng, 30).expect("execution succeeds");
        for (p, v) in &res.outputs {
            assert_eq!(v, &truth(5), "party {p} reconstructs");
        }
    }

    #[test]
    fn forged_key_share_is_ignored() {
        struct ForgeShare;
        impl Adversary<HalfMsg> for ForgeShare {
            fn initial_corruptions(&mut self, _n: usize, _r: &mut StdRng) -> Vec<PartyId> {
                vec![PartyId(0)]
            }
            fn on_round(
                &mut self,
                view: &RoundView<'_, HalfMsg>,
                ctrl: &mut AdvControl<'_, HalfMsg>,
                _r: &mut StdRng,
            ) {
                ctrl.run_honestly(PartyId(0));
                if view.round == 2 {
                    // Inject a bogus share for index 2 with garbage randomness.
                    ctrl.send_as(
                        PartyId(0),
                        OutMsg::broadcast(HalfMsg::KeyShare(
                            2,
                            12345,
                            vec![0u8; commit::OPENING_LEN],
                        )),
                    );
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(43);
        let res = execute(instance(3), &mut ForgeShare, &mut rng, 30).expect("execution succeeds");
        // The forged share is ignored; real shares still reconstruct y.
        assert!(res.outputs.values().all(|v| *v == truth(3)));
    }

    #[test]
    fn half_msg_wire_len_per_variant() {
        assert_eq!(HalfMsg::Sfe(SfeMsg::Abort).wire_len(), 1 + 1);
        assert_eq!(
            HalfMsg::KeyShare(1, 2, vec![0; 32]).wire_len(),
            1 + 8 + 8 + 4 + 32
        );
    }
}
