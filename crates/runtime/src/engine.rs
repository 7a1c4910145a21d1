//! The synchronous execution engine.
//!
//! One call to [`execute`] runs a complete protocol execution in the style
//! of Canetti's synchronous model with guaranteed termination: fixed rounds,
//! bilateral secure channels, a consistent broadcast channel, hybrid
//! functionalities, and a rushing, adaptively-corrupting adversary.
//!
//! # Round schedule
//!
//! For each round `r`:
//!
//! 1. Messages sent in round `r − 1` are delivered.
//! 2. Honest parties process their inboxes and produce outgoing messages
//!    (buffered, not yet released).
//! 3. The adversary runs: it sees corrupted parties' inboxes and — by
//!    rushing — every honest message addressed to a corrupted party or
//!    broadcast; it may adaptively corrupt, fork corrupted machines, and
//!    inject messages for corrupted parties.
//! 4. All released messages are routed; functionalities consume the round's
//!    messages and emit replies for round `r + 1`.
//!
//! The execution ends when every honest party has decided an output, or
//! after `max_rounds`.

use std::collections::{BTreeMap, BTreeSet};

use fair_trace::{Dst, NoopTracer, Src, TraceEvent, Tracer, WireLen};
use rand::rngs::StdRng;

use crate::adversary::{AdvControl, Adversary, RoundView};
use crate::error::EngineError;
use crate::func::{FuncCtx, Functionality, Ledger};
use crate::msg::{Destination, Endpoint, Envelope, FuncId, OutMsg, PartyId};
use crate::party::{Party, RoundCtx};
use crate::value::Value;

/// A protocol instance ready to execute: the party machines (with their
/// inputs baked in) and the hybrid functionalities they may call.
pub struct Instance<M> {
    /// Party state machines, index = party id.
    pub parties: Vec<Box<dyn Party<M>>>,
    /// Hybrid functionalities, index = [`FuncId`].
    pub funcs: Vec<Box<dyn Functionality<M>>>,
}

impl<M> core::fmt::Debug for Instance<M> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Instance")
            .field("parties", &self.parties.len())
            .field("funcs", &self.funcs.len())
            .finish()
    }
}

/// The result of one execution.
#[derive(Clone, Debug)]
pub struct ExecutionResult {
    /// Outputs of the parties that finished the protocol *honestly*
    /// (corrupted parties have no entry).
    pub outputs: BTreeMap<PartyId, Value>,
    /// The final corruption set.
    pub corrupted: BTreeSet<PartyId>,
    /// The value the adversary claims to have learned.
    pub learned: Option<Value>,
    /// Ground-truth facts recorded by functionalities.
    pub ledger: Ledger,
    /// Rounds actually executed.
    pub rounds: usize,
}

impl ExecutionResult {
    /// Whether every honest party produced a non-⊥ output.
    pub fn all_honest_got_output(&self) -> bool {
        !self.outputs.is_empty() && self.outputs.values().all(|v| !v.is_bot())
    }

    /// Whether every honest party output exactly `v`.
    pub fn all_honest_output(&self, v: &Value) -> bool {
        !self.outputs.is_empty() && self.outputs.values().all(|o| o == v)
    }
}

/// Hard cap on rounds used when callers pass `max_rounds = 0`.
pub const DEFAULT_MAX_ROUNDS: usize = 10_000;

/// Executes `instance` against `adversary`.
///
/// `rng` drives *all* randomness (parties pre-draw theirs at construction;
/// functionalities and the adversary draw here), so executions are exactly
/// reproducible from a seed.
///
/// # Errors
///
/// Returns an [`EngineError`] when the adversary corrupts a nonexistent
/// party, when a message is routed to a functionality the instance lacks,
/// or when an engine-internal invariant breaks. Malformed adversarial input
/// is a typed error, never a panic.
pub fn execute<M: Clone + core::fmt::Debug + WireLen>(
    instance: Instance<M>,
    adversary: &mut dyn Adversary<M>,
    rng: &mut StdRng,
    max_rounds: usize,
) -> Result<ExecutionResult, EngineError> {
    execute_traced(instance, adversary, rng, max_rounds, &mut NoopTracer)
}

/// The traced message source for an engine endpoint.
fn trace_src(e: Endpoint) -> Src {
    match e {
        Endpoint::Party(p) => Src::Party(p.0),
        Endpoint::Func(f) => Src::Func(f.0),
        Endpoint::Adversary => Src::Adversary,
    }
}

/// The traced destination for an engine destination (broadcasts are traced
/// once, before fan-out).
fn trace_dst(d: Destination) -> Dst {
    match d {
        Destination::Party(p) => Dst::Party(p.0),
        Destination::Func(f) => Dst::Func(f.0),
        Destination::Adversary => Dst::Adversary,
        Destination::All => Dst::Broadcast,
    }
}

/// [`execute`], observed through a [`Tracer`].
///
/// Every emission site is guarded by `if T::ENABLED`, a compile-time
/// constant, so with [`NoopTracer`] this monomorphizes to exactly the
/// untraced engine: no event is built, no corruption set is snapshotted,
/// no message is measured. [`execute`] itself is that instantiation.
/// With tracing on, each `Send` event carries the message's encoded size
/// ([`WireLen`]), which is arithmetic over field lengths.
///
/// # Errors
///
/// Identical to [`execute`] — tracing observes the execution and never
/// changes its outcome.
pub fn execute_traced<M: Clone + core::fmt::Debug + WireLen, T: Tracer>(
    instance: Instance<M>,
    adversary: &mut dyn Adversary<M>,
    rng: &mut StdRng,
    max_rounds: usize,
    tracer: &mut T,
) -> Result<ExecutionResult, EngineError> {
    let max_rounds = if max_rounds == 0 {
        DEFAULT_MAX_ROUNDS
    } else {
        max_rounds
    };
    let n = instance.parties.len();
    let mut honest: Vec<Option<Box<dyn Party<M>>>> =
        instance.parties.into_iter().map(Some).collect();
    let mut funcs = instance.funcs;

    let mut corrupted: BTreeSet<PartyId> = BTreeSet::new();
    let mut pool: BTreeMap<PartyId, Box<dyn Party<M>>> = BTreeMap::new();
    for pid in adversary.initial_corruptions(n, rng) {
        if pid.0 >= n {
            return Err(EngineError::CorruptOutOfRange { party: pid, n });
        }
        if corrupted.insert(pid) {
            let machine = honest[pid.0]
                .take()
                .ok_or(EngineError::Internal("initial corruption machine taken"))?;
            pool.insert(pid, machine);
            if T::ENABLED {
                tracer.event(&TraceEvent::Corrupt {
                    party: pid.0,
                    round: 0,
                });
            }
        }
    }

    let mut ledger = Ledger::new();
    let mut pending: Vec<Envelope<M>> = Vec::new();
    let mut rounds_used = 0;

    for round in 0..max_rounds {
        rounds_used = round;
        if T::ENABLED {
            tracer.event(&TraceEvent::RoundStart { round });
        }

        // 1. Partition this round's deliveries.
        let mut inboxes: BTreeMap<PartyId, Vec<Envelope<M>>> = BTreeMap::new();
        let mut func_in: Vec<Vec<Envelope<M>>> = (0..funcs.len()).map(|_| Vec::new()).collect();
        let mut adv_delivered: Vec<Envelope<M>> = Vec::new();
        for env in pending.drain(..) {
            match env.to {
                Destination::Party(p) => {
                    if corrupted.contains(&p) {
                        adv_delivered.push(env.clone());
                    }
                    inboxes.entry(p).or_default().push(env);
                }
                Destination::Func(f) => func_in[f.0].push(env),
                Destination::Adversary => adv_delivered.push(env),
                // Broadcasts are expanded at send time; a pending broadcast
                // envelope would be an engine bug.
                Destination::All => {
                    return Err(EngineError::Internal("undelivered broadcast envelope"))
                }
            }
        }

        // 2. Honest parties run.
        let mut honest_out: Vec<(PartyId, OutMsg<M>)> = Vec::new();
        let mut all_honest_done = true;
        #[allow(clippy::needless_range_loop)] // i is a PartyId, not just an index
        for i in 0..n {
            let pid = PartyId(i);
            if corrupted.contains(&pid) {
                continue;
            }
            let machine = honest[i]
                .as_mut()
                .ok_or(EngineError::Internal("honest machine missing in round"))?;
            if machine.output().is_some() {
                continue;
            }
            all_honest_done = false;
            let ctx = RoundCtx { id: pid, n, round };
            let inbox = inboxes.get(&pid).map(Vec::as_slice).unwrap_or(&[]);
            for out in machine.round(&ctx, inbox) {
                honest_out.push((pid, out));
            }
        }

        // If every honest party had already decided before this round, stop
        // (corrupted-only executions stop immediately at the first round in
        // which nothing honest remains pending).
        if all_honest_done && corrupted.len() < n {
            break;
        }

        // 3. Adversary step (rushing).
        let rushing: Vec<Envelope<M>> = honest_out
            .iter()
            .filter(|(_, m)| match m.to {
                Destination::Party(q) => corrupted.contains(&q),
                Destination::All => true,
                Destination::Adversary => true,
                Destination::Func(_) => false,
            })
            .map(|(p, m)| Envelope {
                from: Endpoint::Party(*p),
                to: m.to,
                msg: m.msg.clone(),
            })
            .collect();
        // Snapshot the corruption set so adaptive corruptions made inside
        // `on_round` can be traced afterwards (empty — allocation-free —
        // when tracing is disabled).
        let pre_corrupted = if T::ENABLED {
            corrupted.clone()
        } else {
            BTreeSet::new()
        };
        let mut sends: Vec<(Endpoint, OutMsg<M>)>;
        {
            let view = RoundView {
                round,
                n,
                delivered: &adv_delivered,
                rushing: &rushing,
            };
            let mut ctrl = AdvControl {
                round,
                n,
                corrupted: &mut corrupted,
                honest: &mut honest,
                pool: &mut pool,
                honest_out: &mut honest_out,
                inboxes: &inboxes,
                sends: Vec::new(),
            };
            adversary.on_round(&view, &mut ctrl, rng);
            sends = ctrl.sends;
        }
        if T::ENABLED {
            for pid in corrupted.difference(&pre_corrupted) {
                tracer.event(&TraceEvent::Corrupt {
                    party: pid.0,
                    round,
                });
            }
        }
        if corrupted.len() == n {
            // Nobody honest is left; the execution is over.
            break;
        }

        // 4. Route all released messages.
        for (pid, out) in honest_out {
            sends.push((Endpoint::Party(pid), out));
        }
        let mut func_now: Vec<Vec<Envelope<M>>> = (0..funcs.len()).map(|_| Vec::new()).collect();
        for (from, out) in sends {
            if T::ENABLED {
                tracer.event(&TraceEvent::Send {
                    from: trace_src(from),
                    to: trace_dst(out.to),
                    len: out.msg.wire_len(),
                });
            }
            match out.to {
                Destination::All => {
                    for q in 0..n {
                        pending.push(Envelope {
                            from,
                            to: Destination::Party(PartyId(q)),
                            msg: out.msg.clone(),
                        });
                    }
                }
                Destination::Party(_) | Destination::Adversary => {
                    pending.push(Envelope {
                        from,
                        to: out.to,
                        msg: out.msg,
                    });
                }
                Destination::Func(f) => {
                    if f.0 >= funcs.len() {
                        return Err(EngineError::UnknownFunctionality {
                            func: f,
                            funcs: funcs.len(),
                        });
                    }
                    func_now[f.0].push(Envelope {
                        from,
                        to: out.to,
                        msg: out.msg,
                    });
                }
            }
        }

        // 5. Functionalities consume this round's messages (delivered to
        //    them within the round) and reply next round.
        for (fi, func) in funcs.iter_mut().enumerate() {
            // Messages delivered from last round (func_in) and sent this
            // round (func_now) are both visible now: functionalities react
            // within the round they are invoked.
            let mut incoming = core::mem::take(&mut func_in[fi]);
            incoming.append(&mut func_now[fi]);
            if T::ENABLED && !incoming.is_empty() {
                tracer.event(&TraceEvent::FuncCall {
                    func: fi,
                    round,
                    msgs: incoming.len(),
                });
            }
            let mut ctx = FuncCtx {
                round,
                n,
                corrupted: &corrupted,
                ledger: &mut ledger,
                rng,
            };
            for out in func.on_round(&mut ctx, &incoming) {
                if T::ENABLED {
                    tracer.event(&TraceEvent::Send {
                        from: Src::Func(fi),
                        to: trace_dst(out.to),
                        len: out.msg.wire_len(),
                    });
                }
                match out.to {
                    Destination::All => {
                        for q in 0..n {
                            pending.push(Envelope {
                                from: Endpoint::Func(FuncId(fi)),
                                to: Destination::Party(PartyId(q)),
                                msg: out.msg.clone(),
                            });
                        }
                    }
                    _ => pending.push(Envelope {
                        from: Endpoint::Func(FuncId(fi)),
                        to: out.to,
                        msg: out.msg,
                    }),
                }
            }
        }
    }

    let mut outputs = BTreeMap::new();
    #[allow(clippy::needless_range_loop)] // i is a PartyId, not just an index
    for i in 0..n {
        let pid = PartyId(i);
        if corrupted.contains(&pid) {
            continue;
        }
        let machine = honest[i]
            .as_ref()
            .ok_or(EngineError::Internal("honest machine missing at output"))?;
        let v = machine.output().unwrap_or(Value::Bot);
        if T::ENABLED {
            tracer.event(&TraceEvent::Output {
                party: i,
                bot: v.is_bot(),
            });
        }
        outputs.insert(pid, v);
    }
    if T::ENABLED {
        tracer.event(&TraceEvent::End {
            rounds: rounds_used,
        });
    }

    Ok(ExecutionResult {
        outputs,
        corrupted,
        learned: adversary.learned(),
        ledger,
        rounds: rounds_used,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::Passive;
    use rand::SeedableRng;

    /// Two parties exchange their inputs and output the pair.
    #[derive(Clone, Debug)]
    struct Swapper {
        input: u64,
        got: Option<u64>,
    }

    impl Party<u64> for Swapper {
        fn round(&mut self, ctx: &RoundCtx, inbox: &[Envelope<u64>]) -> Vec<OutMsg<u64>> {
            match ctx.round {
                0 => {
                    let other = PartyId(1 - ctx.id.0);
                    vec![OutMsg::to_party(other, self.input)]
                }
                _ => {
                    if self.got.is_none() {
                        self.got = inbox.first().map(|e| e.msg);
                        if self.got.is_none() {
                            // Counterparty silent: abort.
                            self.got = Some(u64::MAX);
                        }
                    }
                    vec![]
                }
            }
        }

        fn output(&self) -> Option<Value> {
            self.got.map(|v| {
                if v == u64::MAX {
                    Value::Bot
                } else {
                    Value::Scalar(v)
                }
            })
        }

        fn clone_box(&self) -> Box<dyn Party<u64>> {
            Box::new(self.clone())
        }
    }

    fn swap_instance() -> Instance<u64> {
        Instance {
            parties: vec![
                Box::new(Swapper {
                    input: 10,
                    got: None,
                }),
                Box::new(Swapper {
                    input: 20,
                    got: None,
                }),
            ],
            funcs: vec![],
        }
    }

    #[test]
    fn passive_execution_swaps_inputs() {
        let mut rng = StdRng::seed_from_u64(0);
        let res = execute(swap_instance(), &mut Passive, &mut rng, 10).expect("execution succeeds");
        assert_eq!(res.outputs[&PartyId(0)], Value::Scalar(20));
        assert_eq!(res.outputs[&PartyId(1)], Value::Scalar(10));
        assert!(res.corrupted.is_empty());
        assert!(res.all_honest_got_output());
    }

    /// Corrupts p1 at the start, stays silent: p2 must abort.
    struct SilentCorruptor;

    impl Adversary<u64> for SilentCorruptor {
        fn initial_corruptions(&mut self, _n: usize, _rng: &mut StdRng) -> Vec<PartyId> {
            vec![PartyId(0)]
        }

        fn on_round(
            &mut self,
            _view: &RoundView<'_, u64>,
            _ctrl: &mut AdvControl<'_, u64>,
            _rng: &mut StdRng,
        ) {
        }
    }

    #[test]
    fn silent_corruption_forces_abort_output() {
        let mut rng = StdRng::seed_from_u64(0);
        let res = execute(swap_instance(), &mut SilentCorruptor, &mut rng, 10)
            .expect("execution succeeds");
        assert_eq!(res.outputs.len(), 1);
        assert_eq!(res.outputs[&PartyId(1)], Value::Bot);
        assert!(res.corrupted.contains(&PartyId(0)));
    }

    /// Rushing adversary: corrupts p1, reads p2's round-0 message via
    /// rushing, learns it, and still completes the protocol for p2.
    #[derive(Default)]
    struct RushingReader {
        seen: Option<u64>,
    }

    impl Adversary<u64> for RushingReader {
        fn initial_corruptions(&mut self, _n: usize, _rng: &mut StdRng) -> Vec<PartyId> {
            vec![PartyId(0)]
        }

        fn on_round(
            &mut self,
            view: &RoundView<'_, u64>,
            ctrl: &mut AdvControl<'_, u64>,
            _rng: &mut StdRng,
        ) {
            if view.round == 0 {
                // Rushing: p2's input is already visible this round.
                self.seen = view.rushing.first().map(|e| e.msg);
                assert!(self.seen.is_some(), "rushing view must show p2's message");
                // Send the corrupted party's message anyway.
                ctrl.send_as(PartyId(0), OutMsg::to_party(PartyId(1), 999));
            }
        }

        fn learned(&self) -> Option<Value> {
            self.seen.map(Value::Scalar)
        }
    }

    #[test]
    fn rushing_view_shows_same_round_messages() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut adv = RushingReader::default();
        let res = execute(swap_instance(), &mut adv, &mut rng, 10).expect("execution succeeds");
        assert_eq!(res.learned, Some(Value::Scalar(20)));
        // p2 received the injected message.
        assert_eq!(res.outputs[&PartyId(1)], Value::Scalar(999));
    }

    /// Adaptive corruption: waits one round, then corrupts p2 and retracts
    /// nothing (p2 already sent in round 0).
    struct LateCorruptor {
        grabbed_state: bool,
    }

    impl Adversary<u64> for LateCorruptor {
        fn initial_corruptions(&mut self, _n: usize, _rng: &mut StdRng) -> Vec<PartyId> {
            vec![]
        }

        fn on_round(
            &mut self,
            view: &RoundView<'_, u64>,
            ctrl: &mut AdvControl<'_, u64>,
            _rng: &mut StdRng,
        ) {
            if view.round == 1 {
                let grant = ctrl.corrupt(PartyId(1)).expect("p2 was honest");
                // p2 processed round 1 already: its inbox held p1's input.
                assert_eq!(grant.inbox.len(), 1);
                // Fork the machine and check it has decided.
                let fork = ctrl.machine(PartyId(1)).clone_box();
                self.grabbed_state = fork.output().is_some();
            }
        }
    }

    #[test]
    fn adaptive_corruption_hands_over_live_state() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut adv = LateCorruptor {
            grabbed_state: false,
        };
        let res = execute(swap_instance(), &mut adv, &mut rng, 10).expect("execution succeeds");
        assert!(adv.grabbed_state);
        // p1 remains honest and got its output before the corruption.
        assert_eq!(res.outputs[&PartyId(0)], Value::Scalar(20));
        assert!(!res.outputs.contains_key(&PartyId(1)));
    }

    #[test]
    fn all_corrupted_execution_terminates_immediately() {
        struct All;
        impl Adversary<u64> for All {
            fn initial_corruptions(&mut self, n: usize, _rng: &mut StdRng) -> Vec<PartyId> {
                (0..n).map(PartyId).collect()
            }
            fn on_round(
                &mut self,
                _v: &RoundView<'_, u64>,
                _c: &mut AdvControl<'_, u64>,
                _r: &mut StdRng,
            ) {
            }
        }
        let mut rng = StdRng::seed_from_u64(0);
        let res = execute(swap_instance(), &mut All, &mut rng, 10).expect("execution succeeds");
        assert!(res.outputs.is_empty());
        assert_eq!(res.corrupted.len(), 2);
        assert_eq!(res.rounds, 0);
    }

    #[test]
    fn max_rounds_caps_runaway_protocols() {
        /// Never outputs.
        #[derive(Clone, Debug)]
        struct Loop;
        impl Party<u64> for Loop {
            fn round(&mut self, _c: &RoundCtx, _i: &[Envelope<u64>]) -> Vec<OutMsg<u64>> {
                vec![]
            }
            fn output(&self) -> Option<Value> {
                None
            }
            fn clone_box(&self) -> Box<dyn Party<u64>> {
                Box::new(self.clone())
            }
        }
        let inst = Instance {
            parties: vec![Box::new(Loop), Box::new(Loop)],
            funcs: vec![],
        };
        let mut rng = StdRng::seed_from_u64(0);
        let res = execute(inst, &mut Passive, &mut rng, 7).expect("execution succeeds");
        assert_eq!(res.rounds, 6);
        assert!(res.outputs.values().all(|v| v.is_bot()));
    }

    #[test]
    fn traced_execution_pins_the_event_stream() {
        use fair_trace::RecordingTracer;
        let mut rng = StdRng::seed_from_u64(0);
        let mut tracer = RecordingTracer::with_ring(64);
        let res = execute_traced(
            swap_instance(),
            &mut SilentCorruptor,
            &mut rng,
            10,
            &mut tracer,
        )
        .expect("execution succeeds");
        let stats = tracer.stats();
        assert_eq!(stats.corruptions, 1);
        assert_eq!(stats.outputs, 1);
        assert_eq!(stats.bots, 1);
        assert_eq!(stats.rounds, res.rounds as u64);
        let lines: Vec<String> = tracer
            .into_transcript(0)
            .events
            .iter()
            .map(|e| e.render())
            .collect();
        // p0 is corrupted up front and stays silent; p1 sends its input in
        // round 0 (a `u64` is 8 bytes on the wire), waits one round for a
        // reply that never comes, and aborts with ⊥.
        assert_eq!(
            lines,
            vec![
                "corrupt p0 round=0",
                "round 0",
                "send from=p1 to=p0 len=8",
                "round 1",
                "round 2",
                "output p1 bot=true",
                "end rounds=2",
            ]
        );
    }

    #[test]
    fn traced_and_untraced_executions_agree() {
        use fair_trace::{NoopTracer, RecordingTracer};
        for seed in 0..8 {
            let mut r1 = StdRng::seed_from_u64(seed);
            let mut r2 = StdRng::seed_from_u64(seed);
            let mut r3 = StdRng::seed_from_u64(seed);
            let plain = execute(swap_instance(), &mut RushingReader::default(), &mut r1, 10);
            let noop = execute_traced(
                swap_instance(),
                &mut RushingReader::default(),
                &mut r2,
                10,
                &mut NoopTracer,
            );
            let mut rec = RecordingTracer::with_ring(256);
            let traced = execute_traced(
                swap_instance(),
                &mut RushingReader::default(),
                &mut r3,
                10,
                &mut rec,
            );
            assert_eq!(format!("{plain:?}"), format!("{noop:?}"), "seed {seed}");
            assert_eq!(format!("{plain:?}"), format!("{traced:?}"), "seed {seed}");
        }
    }

    #[test]
    fn adaptive_corruptions_are_traced_in_their_round() {
        use fair_trace::{RecordingTracer, TraceEvent};
        let mut rng = StdRng::seed_from_u64(0);
        let mut adv = LateCorruptor {
            grabbed_state: false,
        };
        let mut tracer = RecordingTracer::with_ring(64);
        execute_traced(swap_instance(), &mut adv, &mut rng, 10, &mut tracer)
            .expect("execution succeeds");
        let t = tracer.into_transcript(0);
        assert!(
            t.events
                .contains(&TraceEvent::Corrupt { party: 1, round: 1 }),
            "the round-1 adaptive corruption of p2 must be traced"
        );
    }

    #[test]
    fn broadcast_reaches_every_party_identically() {
        /// p1 broadcasts its input; everyone outputs what they heard.
        #[derive(Clone, Debug)]
        struct Bc {
            input: Option<u64>,
            heard: Option<u64>,
        }
        impl Party<u64> for Bc {
            fn round(&mut self, ctx: &RoundCtx, inbox: &[Envelope<u64>]) -> Vec<OutMsg<u64>> {
                if ctx.round == 0 {
                    if let Some(x) = self.input {
                        return vec![OutMsg::broadcast(x)];
                    }
                } else if self.heard.is_none() {
                    self.heard = inbox.first().map(|e| e.msg).or(Some(u64::MAX));
                }
                vec![]
            }
            fn output(&self) -> Option<Value> {
                self.heard.map(Value::Scalar)
            }
            fn clone_box(&self) -> Box<dyn Party<u64>> {
                Box::new(self.clone())
            }
        }
        let inst = Instance {
            parties: vec![
                Box::new(Bc {
                    input: Some(42),
                    heard: None,
                }),
                Box::new(Bc {
                    input: None,
                    heard: None,
                }),
                Box::new(Bc {
                    input: None,
                    heard: None,
                }),
            ],
            funcs: vec![],
        };
        let mut rng = StdRng::seed_from_u64(0);
        let res = execute(inst, &mut Passive, &mut rng, 10).expect("execution succeeds");
        for i in 0..3 {
            assert_eq!(res.outputs[&PartyId(i)], Value::Scalar(42), "party {i}");
        }
    }
}
