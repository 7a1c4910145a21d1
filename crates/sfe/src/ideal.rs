//! The ideal SFE functionalities the paper's protocols are built on (and
//! compared against).
//!
//! * [`SfeWithAbort`] — standard *unfair* SFE ("security with abort"): the
//!   adversary receives corrupted parties' outputs first and may then abort
//!   before honest parties receive theirs. This is the hybrid that phase 1
//!   of Π^Opt_2SFE / Π^Opt_nSFE invokes (instantiable by GMW, see
//!   [`crate::gmw`]).
//! * [`FairSfe`] — fully fair SFE: outputs are delivered to everyone
//!   simultaneously. The "dummy protocol" around it (Definition 19's
//!   Φ^F_sfe) is the benchmark for *ideal* fairness.
//! * [`RandAbortSfe`] — the functionality F^{f,$}_sfe with randomized abort
//!   from Figure 1 (the only figure in the paper): on an adversarial abort,
//!   the honest party's output is replaced by a sample from a distribution
//!   depending only on its own input. This is the ideal target realized by
//!   the Gordon–Katz protocols (Theorems 23/24).
//!
//! All functionalities enforce guaranteed termination with a stall guard:
//! if the adversary withholds a corrupted party's input past the deadline,
//! the evaluation aborts.

use std::collections::BTreeMap;
use std::sync::Arc;

use fair_runtime::wire::{WireLen, TAG};
use fair_runtime::{Endpoint, Envelope, FuncCtx, Functionality, OutMsg, PartyId, Value};
use rand::rngs::StdRng;

use crate::spec::IdealSpec;

/// Messages understood by [`SfeWithAbort`] and [`FairSfe`]. Inputs are
/// [`Value`]s; outputs are of the spec's output type `O` (see
/// [`IdealSpec`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SfeMsg<O = Value> {
    /// Party → functionality: contribute an input.
    Input(Value),
    /// Functionality → party: your output.
    Output(O),
    /// Adversary → functionality: abort. Functionality → party: the
    /// evaluation aborted.
    Abort,
}

impl<O: WireLen> WireLen for SfeMsg<O> {
    fn wire_len(&self) -> usize {
        TAG + match self {
            SfeMsg::Input(v) => v.wire_len(),
            SfeMsg::Output(o) => o.wire_len(),
            SfeMsg::Abort => 0,
        }
    }
}

/// Rounds the functionality waits for missing inputs before aborting.
const STALL_LIMIT: usize = 2;

#[derive(Debug)]
enum Phase<O> {
    Collecting {
        got: BTreeMap<PartyId, Value>,
        first_round: Option<usize>,
    },
    Window {
        per_party: Vec<O>,
    },
    Done,
}

/// Unfair SFE with abort (the F_sfe-with-abort hybrid).
///
/// Round structure: parties send [`SfeMsg::Input`]; once all `n` inputs are
/// in, corrupted parties' outputs go out immediately (the rushing adversary
/// sees them next round); honest outputs follow one round later unless the
/// adversary sends [`SfeMsg::Abort`] in between, in which case honest
/// parties receive [`SfeMsg::Abort`].
pub struct SfeWithAbort<O = Value> {
    spec: IdealSpec<O>,
    phase: Phase<O>,
}

impl<O> SfeWithAbort<O> {
    /// Creates the functionality for `spec`.
    pub fn new(spec: IdealSpec<O>) -> SfeWithAbort<O> {
        SfeWithAbort {
            spec,
            phase: Phase::Collecting {
                got: BTreeMap::new(),
                first_round: None,
            },
        }
    }

    fn abort_all(&mut self, n: usize) -> Vec<OutMsg<SfeMsg<O>>> {
        self.phase = Phase::Done;
        (0..n)
            .map(|i| OutMsg::to_party(PartyId(i), SfeMsg::Abort))
            .collect()
    }
}

fn adversary_sent_abort<O>(incoming: &[Envelope<SfeMsg<O>>]) -> bool {
    incoming
        .iter()
        .any(|e| e.from == Endpoint::Adversary && matches!(e.msg, SfeMsg::Abort))
}

fn collect_inputs<O>(got: &mut BTreeMap<PartyId, Value>, incoming: &[Envelope<SfeMsg<O>>]) {
    for e in incoming {
        if let (Some(p), SfeMsg::Input(v)) = (e.from_party(), &e.msg) {
            got.entry(p).or_insert_with(|| v.clone());
        }
    }
}

impl<O: Clone> Functionality<SfeMsg<O>> for SfeWithAbort<O> {
    fn name(&self) -> &str {
        "F_sfe_abort"
    }

    fn on_round(
        &mut self,
        ctx: &mut FuncCtx<'_>,
        incoming: &[Envelope<SfeMsg<O>>],
    ) -> Vec<OutMsg<SfeMsg<O>>> {
        let n = ctx.n;
        match &mut self.phase {
            Phase::Collecting { got, first_round } => {
                if adversary_sent_abort(incoming) {
                    return self.abort_all(n);
                }
                collect_inputs(got, incoming);
                if !got.is_empty() && first_round.is_none() {
                    *first_round = Some(ctx.round);
                }
                if got.len() == n {
                    let inputs: Vec<Value> = got.values().cloned().collect();
                    let out = self.spec.eval(&inputs, ctx.rng);
                    for (k, v) in &out.facts {
                        ctx.ledger.record(k, v.clone());
                    }
                    let mut msgs = Vec::new();
                    let corrupted_any = !ctx.corrupted.is_empty();
                    for (i, v) in out.per_party.iter().enumerate() {
                        if ctx.corrupted.contains(&PartyId(i)) {
                            msgs.push(OutMsg::to_party(PartyId(i), SfeMsg::Output(v.clone())));
                        }
                    }
                    if corrupted_any {
                        self.phase = Phase::Window {
                            per_party: out.per_party,
                        };
                    } else {
                        for (i, v) in out.per_party.iter().enumerate() {
                            msgs.push(OutMsg::to_party(PartyId(i), SfeMsg::Output(v.clone())));
                        }
                        self.phase = Phase::Done;
                    }
                    return msgs;
                }
                // Stall guard.
                if let Some(fr) = *first_round {
                    if ctx.round >= fr + STALL_LIMIT {
                        return self.abort_all(n);
                    }
                }
                Vec::new()
            }
            Phase::Window { per_party } => {
                let per_party = std::mem::take(per_party);
                self.phase = Phase::Done;
                if adversary_sent_abort(incoming) {
                    return (0..n)
                        .filter(|i| !ctx.corrupted.contains(&PartyId(*i)))
                        .map(|i| OutMsg::to_party(PartyId(i), SfeMsg::Abort))
                        .collect();
                }
                per_party
                    .into_iter()
                    .enumerate()
                    .filter(|(i, _)| !ctx.corrupted.contains(&PartyId(*i)))
                    .map(|(i, v)| OutMsg::to_party(PartyId(i), SfeMsg::Output(v)))
                    .collect()
            }
            Phase::Done => Vec::new(),
        }
    }
}

/// Fully fair SFE: all outputs delivered simultaneously; the adversary can
/// only abort *before* the evaluation completes.
pub struct FairSfe {
    spec: IdealSpec,
    phase: Phase<Value>,
}

impl FairSfe {
    /// Creates the functionality for `spec`.
    pub fn new(spec: IdealSpec) -> FairSfe {
        FairSfe {
            spec,
            phase: Phase::Collecting {
                got: BTreeMap::new(),
                first_round: None,
            },
        }
    }
}

impl Functionality<SfeMsg> for FairSfe {
    fn name(&self) -> &str {
        "F_sfe_fair"
    }

    fn on_round(
        &mut self,
        ctx: &mut FuncCtx<'_>,
        incoming: &[Envelope<SfeMsg>],
    ) -> Vec<OutMsg<SfeMsg>> {
        let n = ctx.n;
        match &mut self.phase {
            Phase::Collecting { got, first_round } => {
                if adversary_sent_abort(incoming) {
                    self.phase = Phase::Done;
                    return (0..n)
                        .map(|i| OutMsg::to_party(PartyId(i), SfeMsg::Abort))
                        .collect();
                }
                collect_inputs(got, incoming);
                if !got.is_empty() && first_round.is_none() {
                    *first_round = Some(ctx.round);
                }
                if got.len() == n {
                    let inputs: Vec<Value> = got.values().cloned().collect();
                    let out = self.spec.eval(&inputs, ctx.rng);
                    for (k, v) in &out.facts {
                        ctx.ledger.record(k, v.clone());
                    }
                    self.phase = Phase::Done;
                    return out
                        .per_party
                        .iter()
                        .enumerate()
                        .map(|(i, v)| OutMsg::to_party(PartyId(i), SfeMsg::Output(v.clone())))
                        .collect();
                }
                if let Some(fr) = *first_round {
                    if ctx.round >= fr + STALL_LIMIT {
                        self.phase = Phase::Done;
                        return (0..n)
                            .map(|i| OutMsg::to_party(PartyId(i), SfeMsg::Abort))
                            .collect();
                    }
                }
                Vec::new()
            }
            Phase::Window { .. } => unreachable!("FairSfe never enters the abort window"),
            Phase::Done => Vec::new(),
        }
    }
}

/// Messages understood by [`RandAbortSfe`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RandMsg {
    /// Party → functionality: contribute an input.
    Input(Value),
    /// Functionality → party: your output.
    Output(Value),
    /// Adversary → functionality: deliver party i's output now.
    Deliver(usize),
    /// Adversary → functionality: abort — undelivered honest outputs are
    /// replaced by samples from the replacement distribution and delivered.
    Abort,
}

impl WireLen for RandMsg {
    fn wire_len(&self) -> usize {
        TAG + match self {
            RandMsg::Input(v) | RandMsg::Output(v) => v.wire_len(),
            RandMsg::Deliver(i) => i.wire_len(),
            RandMsg::Abort => 0,
        }
    }
}

/// Replacement distribution for F^$: given the party index and that party's
/// own input, sample a replacement output.
pub type ReplacementDist = Arc<dyn Fn(usize, &Value, &mut StdRng) -> Value + Send + Sync>;

/// Rounds after evaluation before undelivered outputs are auto-delivered
/// (keeps executions with inactive adversaries terminating).
const AUTO_DELIVER_AFTER: usize = 4;

/// The two-party functionality with randomized abort, F^{f,$}_sfe (Fig. 1).
pub struct RandAbortSfe {
    spec: IdealSpec,
    dist: ReplacementDist,
    inputs: BTreeMap<PartyId, Value>,
    first_round: Option<usize>,
    computed: Option<Vec<Value>>,
    computed_round: usize,
    delivered: Vec<bool>,
    aborted: bool,
}

impl RandAbortSfe {
    /// Creates the functionality. `spec` must be a two-party spec; `dist`
    /// is the family of replacement distributions Y_i(x_i).
    ///
    /// # Panics
    ///
    /// Panics if `spec.n() != 2`.
    pub fn new(spec: IdealSpec, dist: ReplacementDist) -> RandAbortSfe {
        assert_eq!(spec.n(), 2, "F^$ is a two-party functionality");
        RandAbortSfe {
            spec,
            dist,
            inputs: BTreeMap::new(),
            first_round: None,
            computed: None,
            computed_round: 0,
            delivered: vec![false, false],
            aborted: false,
        }
    }

    fn deliver(&mut self, i: usize, out: &mut Vec<OutMsg<RandMsg>>) {
        if let Some(vals) = &self.computed {
            if !self.delivered[i] {
                self.delivered[i] = true;
                out.push(OutMsg::to_party(
                    PartyId(i),
                    RandMsg::Output(vals[i].clone()),
                ));
            }
        }
    }
}

impl Functionality<RandMsg> for RandAbortSfe {
    fn name(&self) -> &str {
        "F_sfe_rand_abort"
    }

    fn on_round(
        &mut self,
        ctx: &mut FuncCtx<'_>,
        incoming: &[Envelope<RandMsg>],
    ) -> Vec<OutMsg<RandMsg>> {
        let mut out = Vec::new();
        // Input collection.
        for e in incoming {
            if let (Some(p), RandMsg::Input(v)) = (e.from_party(), &e.msg) {
                self.inputs.entry(p).or_insert_with(|| v.clone());
                self.first_round.get_or_insert(ctx.round);
            }
        }
        if self.computed.is_none() && self.inputs.len() == 2 {
            let inputs: Vec<Value> = self.inputs.values().cloned().collect();
            let o = self.spec.eval(&inputs, ctx.rng);
            for (k, v) in &o.facts {
                ctx.ledger.record(k, v.clone());
            }
            ctx.ledger.record("y1", o.per_party[0].clone());
            ctx.ledger.record("y2", o.per_party[1].clone());
            self.computed = Some(o.per_party);
            self.computed_round = ctx.round;
        }
        if self.computed.is_none() {
            if let Some(fr) = self.first_round {
                if ctx.round >= fr + STALL_LIMIT {
                    // Missing input: deliver ⊥ to everyone and stop.
                    self.computed = Some(vec![Value::Bot, Value::Bot]);
                    self.computed_round = ctx.round;
                    for i in 0..2 {
                        self.deliver(i, &mut out);
                    }
                    return out;
                }
            }
            return out;
        }
        // Adversary instructions.
        for e in incoming {
            if e.from != Endpoint::Adversary {
                continue;
            }
            match &e.msg {
                RandMsg::Deliver(i) if *i < 2 => self.deliver(*i, &mut out),
                RandMsg::Abort if !self.aborted => {
                    self.aborted = true;
                    // Replace every *undelivered honest* party's output.
                    for i in 0..2 {
                        let pid = PartyId(i);
                        if !self.delivered[i] && !ctx.corrupted.contains(&pid) {
                            let x = self.inputs.get(&pid).cloned().unwrap_or(Value::Bot);
                            let replacement = (self.dist)(i, &x, ctx.rng);
                            ctx.ledger
                                .record(&format!("replaced_{}", i + 1), replacement.clone());
                            if let Some(vals) = &mut self.computed {
                                vals[i] = replacement;
                            }
                        }
                    }
                    for i in 0..2 {
                        self.deliver(i, &mut out);
                    }
                }
                _ => {}
            }
        }
        // Auto-delivery deadline.
        if ctx.round >= self.computed_round + AUTO_DELIVER_AFTER {
            for i in 0..2 {
                self.deliver(i, &mut out);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dummy::SfeDummyParty;
    use crate::spec::{and_spec, swap_spec};
    use fair_runtime::{execute, AdvControl, Adversary, Instance, Passive, RoundView};
    use rand::SeedableRng;

    fn two_party_instance(
        func: Box<dyn Functionality<SfeMsg>>,
        x1: Value,
        x2: Value,
    ) -> Instance<SfeMsg> {
        Instance {
            parties: vec![
                Box::new(SfeDummyParty::new(x1)),
                Box::new(SfeDummyParty::new(x2)),
            ],
            funcs: vec![func],
        }
    }

    #[test]
    fn sfe_with_abort_delivers_without_corruption() {
        let inst = two_party_instance(
            Box::new(SfeWithAbort::new(swap_spec())),
            Value::Scalar(10),
            Value::Scalar(20),
        );
        let mut rng = StdRng::seed_from_u64(0);
        let res = execute(inst, &mut Passive, &mut rng, 20).expect("execution succeeds");
        let y = Value::pair(Value::Scalar(20), Value::Scalar(10));
        assert!(res.all_honest_output(&y));
        assert_eq!(res.ledger.get("y"), Some(&y));
    }

    /// Corrupts p1, submits an input, grabs the output, then aborts.
    struct GrabAndAbort {
        learned: Option<Value>,
    }

    impl Adversary<SfeMsg> for GrabAndAbort {
        fn initial_corruptions(&mut self, _n: usize, _r: &mut StdRng) -> Vec<PartyId> {
            vec![PartyId(0)]
        }

        fn on_round(
            &mut self,
            view: &RoundView<'_, SfeMsg>,
            ctrl: &mut AdvControl<'_, SfeMsg>,
            _rng: &mut StdRng,
        ) {
            if view.round == 0 {
                ctrl.send_as(
                    PartyId(0),
                    OutMsg::to_func(fair_runtime::FuncId(0), SfeMsg::Input(Value::Scalar(5))),
                );
            }
            for e in view.delivered {
                if let SfeMsg::Output(v) = &e.msg {
                    self.learned = Some(v.clone());
                    ctrl.send_adv(OutMsg::to_func(fair_runtime::FuncId(0), SfeMsg::Abort));
                }
            }
        }

        fn learned(&self) -> Option<Value> {
            self.learned.clone()
        }
    }

    #[test]
    fn sfe_with_abort_lets_adversary_learn_then_abort() {
        let inst = two_party_instance(
            Box::new(SfeWithAbort::new(swap_spec())),
            Value::Scalar(10),
            Value::Scalar(20),
        );
        let mut rng = StdRng::seed_from_u64(1);
        let mut adv = GrabAndAbort { learned: None };
        let res = execute(inst, &mut adv, &mut rng, 20).expect("execution succeeds");
        // Adversary (as p1) learned y = (x2, x1') = (20, 5).
        let y = Value::pair(Value::Scalar(20), Value::Scalar(5));
        assert_eq!(res.learned, Some(y.clone()));
        assert_eq!(res.ledger.get("y"), Some(&y));
        // Honest p2 got ⊥.
        assert_eq!(res.outputs[&PartyId(1)], Value::Bot);
    }

    #[test]
    fn fair_sfe_gives_no_abort_window() {
        let inst = two_party_instance(
            Box::new(FairSfe::new(swap_spec())),
            Value::Scalar(10),
            Value::Scalar(20),
        );
        let mut rng = StdRng::seed_from_u64(2);
        let mut adv = GrabAndAbort { learned: None };
        let res = execute(inst, &mut adv, &mut rng, 20).expect("execution succeeds");
        // The abort arrives only after outputs were already delivered to
        // everyone: honest p2 still gets the real output.
        let y = Value::pair(Value::Scalar(20), Value::Scalar(5));
        assert_eq!(res.outputs[&PartyId(1)], y);
    }

    #[test]
    fn sfe_with_abort_stalls_out_on_withheld_input() {
        struct Withhold;
        impl Adversary<SfeMsg> for Withhold {
            fn initial_corruptions(&mut self, _n: usize, _r: &mut StdRng) -> Vec<PartyId> {
                vec![PartyId(0)]
            }
            fn on_round(
                &mut self,
                _v: &RoundView<'_, SfeMsg>,
                _c: &mut AdvControl<'_, SfeMsg>,
                _r: &mut StdRng,
            ) {
            }
        }
        let inst = two_party_instance(
            Box::new(SfeWithAbort::new(swap_spec())),
            Value::Scalar(1),
            Value::Scalar(2),
        );
        let mut rng = StdRng::seed_from_u64(3);
        let res = execute(inst, &mut Withhold, &mut rng, 30).expect("execution succeeds");
        assert_eq!(res.outputs[&PartyId(1)], Value::Bot);
    }

    #[test]
    fn rand_abort_auto_delivers_with_passive_adversary() {
        let dist: ReplacementDist = Arc::new(|_, _, rng| {
            use rand::RngExt;
            Value::Scalar(rng.random_range(0..2))
        });
        let inst = Instance {
            parties: vec![
                Box::new(crate::dummy::RandDummyParty::new(Value::Scalar(1))),
                Box::new(crate::dummy::RandDummyParty::new(Value::Scalar(1))),
            ],
            funcs: vec![Box::new(RandAbortSfe::new(and_spec(), dist))],
        };
        let mut rng = StdRng::seed_from_u64(4);
        let res = execute(inst, &mut Passive, &mut rng, 30).expect("execution succeeds");
        assert!(res.all_honest_output(&Value::Scalar(1)));
    }

    /// Simulator-style adversary for F^$: corrupts p1, learns the output,
    /// then aborts so p2's output is replaced by a random one.
    struct RandGrabAbort {
        learned: Option<Value>,
    }

    impl Adversary<RandMsg> for RandGrabAbort {
        fn initial_corruptions(&mut self, _n: usize, _r: &mut StdRng) -> Vec<PartyId> {
            vec![PartyId(0)]
        }

        fn on_round(
            &mut self,
            view: &RoundView<'_, RandMsg>,
            ctrl: &mut AdvControl<'_, RandMsg>,
            _rng: &mut StdRng,
        ) {
            let fid = fair_runtime::FuncId(0);
            if view.round == 0 {
                ctrl.send_as(
                    PartyId(0),
                    OutMsg::to_func(fid, RandMsg::Input(Value::Scalar(1))),
                );
                ctrl.send_adv(OutMsg::to_func(fid, RandMsg::Deliver(0)));
            }
            for e in view.delivered {
                if let RandMsg::Output(v) = &e.msg {
                    self.learned = Some(v.clone());
                    ctrl.send_adv(OutMsg::to_func(fid, RandMsg::Abort));
                }
            }
        }

        fn learned(&self) -> Option<Value> {
            self.learned.clone()
        }
    }

    #[test]
    fn rand_abort_replaces_undelivered_honest_output() {
        // Replacement distribution: always 9 (distinguishable marker).
        let dist: ReplacementDist = Arc::new(|_, _, _| Value::Scalar(9));
        let inst = Instance {
            parties: vec![
                Box::new(crate::dummy::RandDummyParty::new(Value::Scalar(1))),
                Box::new(crate::dummy::RandDummyParty::new(Value::Scalar(1))),
            ],
            funcs: vec![Box::new(RandAbortSfe::new(and_spec(), dist))],
        };
        let mut rng = StdRng::seed_from_u64(5);
        let mut adv = RandGrabAbort { learned: None };
        let res = execute(inst, &mut adv, &mut rng, 30).expect("execution succeeds");
        assert_eq!(
            res.learned,
            Some(Value::Scalar(1)),
            "adversary saw the real output"
        );
        assert_eq!(
            res.outputs[&PartyId(1)],
            Value::Scalar(9),
            "honest output was replaced"
        );
        assert!(res.ledger.get("replaced_2").is_some());
    }

    #[test]
    fn sfe_msg_wire_len_per_variant() {
        assert_eq!(SfeMsg::<Value>::Input(Value::Scalar(3)).wire_len(), 1 + 9);
        assert_eq!(SfeMsg::Output(Value::Bytes(vec![0; 5])).wire_len(), 1 + 10);
        assert_eq!(SfeMsg::<Value>::Abort.wire_len(), 1);
    }

    #[test]
    fn rand_msg_wire_len_per_variant() {
        assert_eq!(RandMsg::Input(Value::Bot).wire_len(), 1 + 1);
        assert_eq!(RandMsg::Output(Value::Scalar(1)).wire_len(), 1 + 9);
        assert_eq!(RandMsg::Deliver(1).wire_len(), 1 + 8);
        assert_eq!(RandMsg::Abort.wire_len(), 1);
    }
}
