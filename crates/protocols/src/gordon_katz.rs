//! The Gordon–Katz partially fair ("1/p-secure") two-party protocols
//! [GK, Eurocrypt 2010], analyzed in Section 5 of the paper.
//!
//! The idea: a ShareGen functionality prepares m rounds of candidate
//! outputs. Before a secret switch round i* the candidates are *fake* —
//! drawn from the distribution induced by a random counterparty input
//! (the poly-size-domain variant, Theorem 23) or uniform over the output
//! range (the poly-size-range variant, Theorem 24) — and from i* on they
//! equal the real output f(x₁, x₂). Each round the parties exchange
//! authenticated shares: p₂ releases p₁'s candidate first, then p₁
//! releases p₂'s. Whoever aborts leaves the other party outputting its
//! most recent candidate.
//!
//! The switch round is geometric with parameter α (α = 1/(p·|Y|) resp.
//! 1/(p²·|Z|)), truncated at m = ⌈8/α⌉ rounds (truncation mass e⁻⁸, far
//! below the experiments' statistical resolution). An aborting adversary
//! provokes the paper's E₁₀ only by stopping *exactly at* i*, which no
//! strategy achieves with probability better than ≈ 1/p — the bound the
//! E11 experiment measures with the payoff vector γ = (0, 0, 1, 0).

use std::sync::Arc;

use fair_crypto::authshare::{self, AuthShare, AuthShareHolding};
use fair_runtime::wire::{WireLen, INT, TAG};
use fair_runtime::{
    Adapted, AdvControl, Adversary, Envelope, FuncId, Instance, OutMsg, Party, PartyId, RoundCtx,
    RoundView, Value,
};
use fair_sfe::ideal::{SfeMsg, SfeWithAbort};
use fair_sfe::spec::{IdealOutput, IdealSpec};
use rand::rngs::StdRng;
use rand::RngExt;

use crate::opt2::TwoPartyFn;

/// Rounds a party waits for phase-1 / counterparty progress before giving
/// up and outputting its latest candidate.
const STALL_DEADLINE: usize = 8;

/// A sampler for fake candidate values.
pub type ValueSampler = Arc<dyn Fn(&mut StdRng) -> Value + Send + Sync>;

/// How fake (pre-switch) candidates are generated.
#[derive(Clone)]
pub enum FakeMode {
    /// Theorem 23 (poly-size domains): p₁'s fake candidate is f(x₁, ŷ)
    /// with ŷ sampled from p₂'s domain, and symmetrically with x̂ from
    /// p₁'s domain.
    FromDomain {
        /// Sampler for p₁'s input domain.
        x_sampler: ValueSampler,
        /// Sampler for p₂'s input domain.
        y_sampler: ValueSampler,
    },
    /// Theorem 24 (poly-size range): fake candidates are uniform over the
    /// (small) output range.
    FromRange(Vec<Value>),
}

/// Configuration of a Gordon–Katz protocol instance.
#[derive(Clone)]
pub struct GkConfig {
    /// The evaluated function.
    pub f: TwoPartyFn,
    /// The fairness parameter p.
    pub p: u64,
    /// Geometric parameter α for the switch round.
    pub alpha: f64,
    /// Truncation bound m on the number of ShareGen rounds.
    pub m: usize,
    /// Fake-candidate generation.
    pub fake: FakeMode,
}

impl GkConfig {
    /// The Theorem 23 configuration for a function whose second input
    /// domain has `y_domain_size` elements: α = 1/(p·|Y|), m = ⌈8/α⌉.
    pub fn poly_domain(
        f: TwoPartyFn,
        p: u64,
        y_domain_size: usize,
        x_sampler: ValueSampler,
        y_sampler: ValueSampler,
    ) -> GkConfig {
        let alpha = 1.0 / (p as f64 * y_domain_size as f64);
        GkConfig {
            f,
            p,
            alpha,
            m: (8.0 / alpha).ceil() as usize,
            fake: FakeMode::FromDomain {
                x_sampler,
                y_sampler,
            },
        }
    }

    /// The Theorem 24 configuration for a function with the given (small)
    /// output range: α = 1/(p²·|Z|), m = ⌈8/α⌉.
    pub fn poly_range(f: TwoPartyFn, p: u64, range: Vec<Value>) -> GkConfig {
        let alpha = 1.0 / (p as f64 * p as f64 * range.len() as f64);
        GkConfig {
            f,
            p,
            alpha,
            m: (8.0 / alpha).ceil() as usize,
            fake: FakeMode::FromRange(range),
        }
    }

    fn sample_fake(&self, rng: &mut StdRng, inputs: &[Value], for_p1: bool) -> Value {
        match &self.fake {
            FakeMode::FromDomain {
                x_sampler,
                y_sampler,
            } => {
                if for_p1 {
                    (self.f)(&inputs[0], &y_sampler(rng))
                } else {
                    (self.f)(&x_sampler(rng), &inputs[1])
                }
            }
            FakeMode::FromRange(range) => range[rng.random_range(0..range.len())].clone(),
        }
    }

    fn sample_i_star(&self, rng: &mut StdRng) -> usize {
        // Geometric(α), truncated to 1..=m.
        let mut i = 1usize;
        while i < self.m {
            if rng.random_bool(self.alpha) {
                break;
            }
            i += 1;
        }
        i
    }
}

/// A party's ShareGen output: authenticated sharings of the candidates it
/// reconstructs, its shares of the counterparty's candidates, and its
/// candidate before round 1.
#[derive(Clone, Debug)]
pub struct ShareGenOutput {
    /// This party's holdings of its own candidates, rounds 1..=m.
    pub holdings: Vec<AuthShareHolding>,
    /// This party's shares of the counterparty's candidates, rounds 1..=m.
    pub shares: Vec<AuthShare>,
    /// The candidate output before round 1.
    pub default: Value,
}

/// Sized as the `Value` tuple `(holdings, shares, default)` whose first two
/// entries are tuples of the serialized holdings and shares.
impl WireLen for ShareGenOutput {
    fn wire_len(&self) -> usize {
        let holdings = self
            .holdings
            .iter()
            .map(|h| Value::bytes_wire_len(h.wire_len()));
        let shares = self
            .shares
            .iter()
            .map(|s| Value::bytes_wire_len(s.wire_len()));
        Value::tuple_wire_len([
            Value::tuple_wire_len(holdings),
            Value::tuple_wire_len(shares),
            self.default.wire_len(),
        ])
    }
}

/// Wire messages of the Gordon–Katz protocols.
#[derive(Clone, Debug)]
pub enum GkMsg {
    /// Traffic to/from the ShareGen functionality.
    Sfe(SfeMsg<ShareGenOutput>),
    /// p₂ → p₁ in round i: p₂'s share of p₁'s candidate a_i.
    AShare(u64, AuthShare),
    /// p₁ → p₂ in round i: p₁'s share of p₂'s candidate b_i.
    BShare(u64, AuthShare),
}

impl WireLen for GkMsg {
    fn wire_len(&self) -> usize {
        TAG + match self {
            GkMsg::Sfe(s) => s.wire_len(),
            GkMsg::AShare(_, share) | GkMsg::BShare(_, share) => INT + share.wire_len(),
        }
    }
}

fn down(m: &GkMsg) -> Option<SfeMsg<ShareGenOutput>> {
    match m {
        GkMsg::Sfe(s) => Some(s.clone()),
        _ => None,
    }
}

/// The ShareGen specification: candidate sequences, dealt as authenticated
/// 2-of-2 sharings, handed to each party as a [`ShareGenOutput`]. Records
/// facts `y` and `i_star`.
pub fn sharegen_spec(name: &str, cfg: GkConfig) -> IdealSpec<ShareGenOutput> {
    IdealSpec::new(name, 2, move |inputs, rng| {
        let y = (cfg.f)(&inputs[0], &inputs[1]);
        let i_star = cfg.sample_i_star(rng);
        let mut a_holdings = Vec::with_capacity(cfg.m);
        let mut a_shares = Vec::with_capacity(cfg.m);
        let mut b_holdings = Vec::with_capacity(cfg.m);
        let mut b_shares = Vec::with_capacity(cfg.m);
        for i in 1..=cfg.m {
            let a_i = if i < i_star {
                cfg.sample_fake(rng, inputs, true)
            } else {
                y.clone()
            };
            let b_i = if i < i_star {
                cfg.sample_fake(rng, inputs, false)
            } else {
                y.clone()
            };
            let (h1, h2) = authshare::deal(&fair_crypto::mac::pack_bytes(&a_i.encode()), rng);
            a_holdings.push(h1);
            a_shares.push(h2.share);
            let (h1b, h2b) = authshare::deal(&fair_crypto::mac::pack_bytes(&b_i.encode()), rng);
            b_holdings.push(h2b);
            b_shares.push(h1b.share);
        }
        let a0 = cfg.sample_fake(rng, inputs, true);
        let b0 = cfg.sample_fake(rng, inputs, false);
        IdealOutput {
            facts: vec![
                ("y".to_string(), y.clone()),
                ("i_star".to_string(), Value::Scalar(i_star as u64)),
            ],
            per_party: vec![
                ShareGenOutput {
                    holdings: a_holdings,
                    shares: b_shares,
                    default: a0,
                },
                ShareGenOutput {
                    holdings: b_holdings,
                    shares: a_shares,
                    default: b0,
                },
            ],
        }
    })
}

#[derive(Clone, Debug)]
enum Phase {
    AwaitShareGen,
    Exchanging,
}

/// A party of the Gordon–Katz protocol.
pub struct GkParty {
    me: usize, // 1-based
    input: Value,
    m: usize,
    holdings: Vec<AuthShareHolding>,
    shares: Vec<AuthShare>,
    latest: Option<Value>,
    cur: usize,
    last_progress: usize,
    pending: Option<(u64, AuthShare)>,
    phase: Phase,
    out: Option<Value>,
}

impl core::fmt::Debug for GkParty {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("GkParty")
            .field("me", &self.me)
            .field("cur", &self.cur)
            .field("out", &self.out)
            .finish()
    }
}

impl Clone for GkParty {
    fn clone(&self) -> Self {
        GkParty {
            me: self.me,
            input: self.input.clone(),
            m: self.m,
            holdings: self.holdings.clone(),
            shares: self.shares.clone(),
            latest: self.latest.clone(),
            cur: self.cur,
            last_progress: self.last_progress,
            pending: self.pending.clone(),
            phase: self.phase.clone(),
            out: self.out.clone(),
        }
    }
}

impl GkParty {
    /// Creates party `me` (1-based) with its input; `m` must match the
    /// ShareGen configuration.
    pub fn new(me: usize, input: Value, m: usize) -> GkParty {
        assert!(me == 1 || me == 2);
        GkParty {
            me,
            input,
            m,
            holdings: Vec::new(),
            shares: Vec::new(),
            latest: None,
            cur: 1,
            last_progress: 0,
            pending: None,
            phase: Phase::AwaitShareGen,
            out: None,
        }
    }

    fn other(&self) -> PartyId {
        PartyId(2 - self.me)
    }

    fn finish_with_latest(&mut self) {
        self.out = Some(self.latest.clone().unwrap_or(Value::Bot));
    }

    /// Reconstructs candidate i (1-based) from the incoming share.
    fn reconstruct(&self, i: usize, incoming: &AuthShare) -> Option<Value> {
        let holding = self.holdings.get(i - 1)?;
        let packed = authshare::reconstruct(self.me, holding, incoming).ok()?;
        let bytes = fair_crypto::mac::unpack_bytes(&packed)?;
        Value::decode(&bytes)
    }

    fn my_share_for(&self, i: usize) -> Option<GkMsg> {
        let share = self.shares.get(i - 1)?.clone();
        Some(if self.me == 1 {
            GkMsg::BShare(i as u64, share)
        } else {
            GkMsg::AShare(i as u64, share)
        })
    }
}

impl Party<GkMsg> for GkParty {
    fn round(&mut self, ctx: &RoundCtx, inbox: &[Envelope<GkMsg>]) -> Vec<OutMsg<GkMsg>> {
        if self.out.is_some() {
            return Vec::new();
        }
        let mut sfe: Option<&SfeMsg<ShareGenOutput>> = None;
        for e in inbox {
            match &e.msg {
                GkMsg::Sfe(s) if matches!(e.from, fair_runtime::Endpoint::Func(_)) => {
                    sfe = Some(s);
                }
                GkMsg::AShare(i, s)
                    if self.me == 1
                        && e.from_party() == Some(self.other())
                        && self.pending.is_none() =>
                {
                    self.pending = Some((*i, s.clone()));
                }
                GkMsg::BShare(i, s)
                    if self.me == 2
                        && e.from_party() == Some(self.other())
                        && self.pending.is_none() =>
                {
                    self.pending = Some((*i, s.clone()));
                }
                _ => {}
            }
        }
        let mut msgs = self.dispatch(ctx, sfe);
        // A ShareGen output and the counterparty's first share can arrive
        // together; let the new phase consume the buffered share.
        if self.out.is_none() && self.pending.is_some() && matches!(self.phase, Phase::Exchanging) {
            msgs.extend(self.dispatch(ctx, None));
        }
        msgs
    }

    fn output(&self) -> Option<Value> {
        self.out.clone()
    }

    fn clone_box(&self) -> Box<dyn Party<GkMsg>> {
        Box::new(self.clone())
    }
}

impl GkParty {
    fn dispatch(
        &mut self,
        ctx: &RoundCtx,
        sfe: Option<&SfeMsg<ShareGenOutput>>,
    ) -> Vec<OutMsg<GkMsg>> {
        match &self.phase {
            Phase::AwaitShareGen => {
                if ctx.round == 0 {
                    return vec![OutMsg::to_func(
                        FuncId(0),
                        GkMsg::Sfe(SfeMsg::Input(self.input.clone())),
                    )];
                }
                match sfe {
                    Some(SfeMsg::Output(dealt)) => {
                        self.holdings = dealt.holdings.clone();
                        self.shares = dealt.shares.clone();
                        self.latest = Some(dealt.default.clone());
                        self.phase = Phase::Exchanging;
                        self.last_progress = ctx.round;
                        if self.me == 2 {
                            // p2 opens the exchange: release a_1's share.
                            return self
                                .my_share_for(1)
                                .map(|m| vec![OutMsg::to_party(self.other(), m)])
                                .unwrap_or_default();
                        }
                        Vec::new()
                    }
                    Some(SfeMsg::Abort) => {
                        self.out = Some(Value::Bot);
                        Vec::new()
                    }
                    _ => {
                        if ctx.round >= STALL_DEADLINE {
                            self.out = Some(Value::Bot);
                        }
                        Vec::new()
                    }
                }
            }
            Phase::Exchanging => {
                if let Some((i, share)) = self.pending.take() {
                    let i = i as usize;
                    if i != self.cur {
                        // Out-of-order share: treat as an abort.
                        self.finish_with_latest();
                        return Vec::new();
                    }
                    let Some(v) = self.reconstruct(i, &share) else {
                        self.finish_with_latest();
                        return Vec::new();
                    };
                    self.latest = Some(v);
                    self.last_progress = ctx.round;
                    if self.me == 1 {
                        // Respond with b_i's share; p1 finishes after round m.
                        let msg = self.my_share_for(i);
                        self.cur += 1;
                        if i == self.m {
                            self.finish_with_latest();
                        }
                        return msg
                            .map(|m| vec![OutMsg::to_party(self.other(), m)])
                            .unwrap_or_default();
                    }
                    // p2: advance and release the next a-share.
                    self.cur += 1;
                    if i == self.m {
                        self.finish_with_latest();
                        return Vec::new();
                    }
                    let next = self.cur;
                    return self
                        .my_share_for(next)
                        .map(|m| vec![OutMsg::to_party(self.other(), m)])
                        .unwrap_or_default();
                }
                if ctx.round > self.last_progress + STALL_DEADLINE {
                    self.finish_with_latest();
                }
                Vec::new()
            }
        }
    }
}

/// Builds a Gordon–Katz instance.
pub fn gk_instance(name: &str, cfg: GkConfig, inputs: [Value; 2]) -> Instance<GkMsg> {
    let m = cfg.m;
    let spec = sharegen_spec(name, cfg);
    let func = Adapted::new(SfeWithAbort::new(spec), down, GkMsg::Sfe);
    let [x1, x2] = inputs;
    Instance {
        parties: vec![
            Box::new(GkParty::new(1, x1, m)),
            Box::new(GkParty::new(2, x2, m)),
        ],
        funcs: vec![Box::new(func)],
    }
}

/// When the [`GkAttack`] adversary stops.
#[derive(Clone, Debug)]
pub enum AbortRule {
    /// Abort right after reconstructing candidate i.
    AtRound(usize),
    /// Abort at the first round whose reconstructed candidate equals the
    /// given value (the value-guessing attack).
    OnValue(Value),
    /// Abort at the first round whose candidate equals the previous one
    /// (the repetition heuristic).
    OnRepeat,
    /// Never abort (the honest baseline).
    Never,
}

/// The Gordon–Katz attacker: corrupts p₁, plays honestly, watches the
/// candidates a_1, a_2, … it reconstructs, and aborts according to an
/// [`AbortRule`] — claiming its latest candidate as the learned output.
pub struct GkAttack {
    rule: AbortRule,
    holdings: Vec<AuthShareHolding>,
    history: Vec<Value>,
    learned: Option<Value>,
    aborted: bool,
}

impl GkAttack {
    /// Creates the attack.
    pub fn new(rule: AbortRule) -> GkAttack {
        GkAttack {
            rule,
            holdings: Vec::new(),
            history: Vec::new(),
            learned: None,
            aborted: false,
        }
    }

    fn should_abort(&self) -> bool {
        let Some(last) = self.history.last() else {
            return false;
        };
        match &self.rule {
            AbortRule::AtRound(i) => self.history.len() >= *i,
            AbortRule::OnValue(v) => last == v,
            AbortRule::OnRepeat => {
                self.history.len() >= 2 && self.history[self.history.len() - 2] == *last
            }
            AbortRule::Never => false,
        }
    }
}

impl Adversary<GkMsg> for GkAttack {
    fn initial_corruptions(&mut self, _n: usize, _rng: &mut StdRng) -> Vec<PartyId> {
        vec![PartyId(0)]
    }

    fn on_round(
        &mut self,
        view: &RoundView<'_, GkMsg>,
        ctrl: &mut AdvControl<'_, GkMsg>,
        _rng: &mut StdRng,
    ) {
        if self.aborted {
            return;
        }
        // Harvest our holdings from the ShareGen output.
        for e in view.delivered {
            if let GkMsg::Sfe(SfeMsg::Output(dealt)) = &e.msg {
                self.holdings = dealt.holdings.clone();
            }
        }
        // Reconstruct any candidate delivered this round or visible by
        // rushing, *before* deciding whether to respond.
        let mut seen: Vec<(u64, AuthShare)> = Vec::new();
        for e in view.delivered.iter().chain(view.rushing.iter()) {
            if let GkMsg::AShare(i, s) = &e.msg {
                seen.push((*i, s.clone()));
            }
        }
        for (i, share) in seen {
            let i = i as usize;
            if i != self.history.len() + 1 {
                continue;
            }
            let Some(holding) = self.holdings.get(i - 1) else {
                continue;
            };
            if let Ok(packed) = authshare::reconstruct(1, holding, &share) {
                if let Some(v) =
                    fair_crypto::mac::unpack_bytes(&packed).and_then(|b| Value::decode(&b))
                {
                    self.history.push(v);
                }
            }
        }
        if self.should_abort() {
            self.learned = self.history.last().cloned();
            self.aborted = true;
            return;
        }
        ctrl.run_honestly(PartyId(0));
        // On a completed run, claim the machine's output.
        if let Some(v) = ctrl.machine(PartyId(0)).output() {
            if !v.is_bot() && self.learned.is_none() {
                self.learned = Some(v);
            }
        }
    }

    fn learned(&self) -> Option<Value> {
        self.learned.clone()
    }
}

/// The ideal-world counterpart of a [`GkAttack`] run — the F^{f,$} world
/// with the Theorem 23 simulator.
///
/// The simulator internally reproduces ShareGen's sampling (it can: the
/// fake candidates depend only on the corrupted party's input and public
/// samplers), applies the adversary's abort rule to the simulated
/// candidate stream, and maps the abort round onto F^$'s interface: abort
/// before the switch round replaces the honest output by a fresh
/// Y₂(x₂)-sample; abort at or after it delivers the real output (with the
/// exact-switch round being the E₁₀ event). Comparing the joint
/// (learned, honest-output) distribution of this sampler with the real
/// protocol is the empirical content of "the protocol realizes F^{f,$}".
pub fn ideal_observables(
    cfg: &GkConfig,
    rule: &AbortRule,
    x1: &Value,
    x2: &Value,
    rng: &mut StdRng,
) -> (Option<Value>, Value) {
    let y = (cfg.f)(x1, x2);
    let i_star = cfg.sample_i_star(rng);
    let inputs = [x1.clone(), x2.clone()];
    // Walk the simulated candidate stream under the abort rule.
    let mut history: Vec<Value> = Vec::new();
    let mut abort_at: Option<usize> = None;
    for i in 1..=cfg.m {
        let a_i = if i < i_star {
            cfg.sample_fake(rng, &inputs, true)
        } else {
            y.clone()
        };
        history.push(a_i);
        let fire = match rule {
            AbortRule::AtRound(r) => history.len() >= *r,
            AbortRule::OnValue(v) => history.last() == Some(v),
            AbortRule::OnRepeat => {
                history.len() >= 2 && history[history.len() - 2] == history[history.len() - 1]
            }
            AbortRule::Never => false,
        };
        if fire {
            abort_at = Some(i);
            break;
        }
    }
    match abort_at {
        None => (Some(y.clone()), y), // completed: both get the output
        Some(i) => {
            let learned = history.last().cloned();
            // The honest party holds b_{i−1}: real from i−1 ≥ i*, else a
            // fresh Y₂(x₂)-replacement (F^$'s randomized abort).
            let honest = if i > i_star {
                y
            } else {
                cfg.sample_fake(rng, &inputs, false)
            };
            (learned, honest)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fair_runtime::{execute, Passive};
    use rand::SeedableRng;

    /// AND over bits, with p2's domain {0,1}.
    fn and_cfg(p: u64) -> GkConfig {
        let f: TwoPartyFn = Arc::new(|a: &Value, b: &Value| {
            Value::Scalar((a.as_scalar().unwrap_or(0) & 1) & (b.as_scalar().unwrap_or(0) & 1))
        });
        let bit: ValueSampler = Arc::new(|rng: &mut StdRng| Value::Scalar(rng.random_range(0..2)));
        GkConfig::poly_domain(f, p, 2, Arc::clone(&bit), bit)
    }

    fn run(p: u64, x1: u64, x2: u64, seed: u64) -> fair_runtime::ExecutionResult {
        let cfg = and_cfg(p);
        let m = cfg.m;
        let inst = gk_instance("and", cfg, [Value::Scalar(x1), Value::Scalar(x2)]);
        let mut rng = StdRng::seed_from_u64(seed);
        execute(inst, &mut Passive, &mut rng, 3 * m + 20).expect("execution succeeds")
    }

    #[test]
    fn honest_run_outputs_the_real_value() {
        for (x1, x2) in [(1u64, 1u64), (1, 0), (0, 1), (0, 0)] {
            let res = run(2, x1, x2, 17 + x1 * 2 + x2);
            assert!(
                res.all_honest_output(&Value::Scalar(x1 & x2)),
                "{x1} & {x2}: {:?}",
                res.outputs
            );
        }
    }

    #[test]
    fn switch_round_is_geometric_with_expected_mean() {
        let cfg = and_cfg(2);
        let mut rng = StdRng::seed_from_u64(5);
        let mut total = 0usize;
        let trials = 2000;
        for _ in 0..trials {
            total += cfg.sample_i_star(&mut rng);
        }
        let mean = total as f64 / trials as f64;
        // Geometric(1/4) has mean 4 (truncation at m = 32 barely matters).
        assert!((mean - 4.0).abs() < 0.3, "mean i* = {mean}");
    }

    #[test]
    fn abort_at_fixed_round_rarely_hits_i_star() {
        // With p = 2 and |Y| = 2 (α = 1/4): Pr[i* = 3] = (3/4)² · 1/4 ≈ 0.14.
        let mut e10 = 0;
        let trials = 200;
        for seed in 0..trials {
            let cfg = and_cfg(2);
            let m = cfg.m;
            let inst = gk_instance("and", cfg, [Value::Scalar(1), Value::Scalar(1)]);
            let mut rng = StdRng::seed_from_u64(900 + seed);
            let mut adv = GkAttack::new(AbortRule::AtRound(3));
            let res = execute(inst, &mut adv, &mut rng, 3 * m + 20).expect("execution succeeds");
            let y = Value::Scalar(1);
            let honest_correct = res.outputs.get(&PartyId(1)) == Some(&y);
            if res.learned == Some(y.clone()) && !honest_correct {
                e10 += 1;
            }
        }
        let rate = e10 as f64 / trials as f64;
        assert!(rate < 0.5, "E10 rate {rate} must be bounded by 1/p = 0.5");
        assert!(rate > 0.02, "the attack occasionally succeeds ({rate})");
    }

    #[test]
    fn abort_after_switch_gives_both_parties_the_output() {
        // Abort very late: i* ≤ 20 with high probability, so both sides
        // have the real output by then.
        let cfg = and_cfg(2);
        let m = cfg.m;
        let inst = gk_instance("and", cfg, [Value::Scalar(1), Value::Scalar(1)]);
        let mut rng = StdRng::seed_from_u64(31);
        let mut adv = GkAttack::new(AbortRule::AtRound(m));
        let res = execute(inst, &mut adv, &mut rng, 3 * m + 20).expect("execution succeeds");
        assert_eq!(res.outputs[&PartyId(1)], Value::Scalar(1));
    }

    #[test]
    fn early_abort_leaves_honest_with_candidate_from_distribution() {
        // Abort at round 1 (almost surely before i*): the honest party
        // outputs f(x̂, y), which for y = x2 = 0 is always 0.
        let cfg = and_cfg(2);
        let m = cfg.m;
        let inst = gk_instance("and", cfg, [Value::Scalar(1), Value::Scalar(0)]);
        let mut rng = StdRng::seed_from_u64(37);
        let mut adv = GkAttack::new(AbortRule::AtRound(1));
        let res = execute(inst, &mut adv, &mut rng, 3 * m + 20).expect("execution succeeds");
        assert_eq!(res.outputs[&PartyId(1)], Value::Scalar(0));
    }

    #[test]
    fn gk_msg_wire_len_per_variant() {
        let share = AuthShare {
            summand: vec![fair_field::Fp::new(1)],
            summand_tag: fair_crypto::mac::MacTag(fair_field::Fp::new(2)),
        };
        let holding = AuthShareHolding {
            share: share.clone(),
            key: fair_crypto::mac::MacKey::random(&mut StdRng::seed_from_u64(0)),
        };
        let dealt = ShareGenOutput {
            holdings: vec![holding],
            shares: vec![share.clone()],
            default: Value::Bot,
        };
        // The tuple (holdings, shares, ⊥): one 24-byte share, and one
        // holding of that share plus its 16-byte key.
        assert_eq!(
            GkMsg::Sfe(SfeMsg::Output(dealt)).wire_len(),
            1 + 1 + (1 + 4) + (1 + 4 + (1 + 4 + 40)) + (1 + 4 + (1 + 4 + 24)) + 1
        );
        assert_eq!(
            GkMsg::AShare(3, share.clone()).wire_len(),
            1 + 8 + 8 + 8 + 8
        );
        assert_eq!(GkMsg::BShare(3, share).wire_len(), 1 + 8 + 8 + 8 + 8);
    }
}
