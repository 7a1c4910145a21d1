//! Deterministic per-protocol metrics: integer counters and histograms
//! of rounds, messages, bytes, corruptions, and aborts, keyed by scenario
//! name.
//!
//! Mirrors `fair-simlab`'s integer-tally discipline so the exported
//! summaries are **bit-identical for every `--jobs` value**: estimators
//! accumulate one [`ProtoBatch`] per scheduler tile (one mutex touch per
//! ~64 trials, never per trial) and submit it here. A batch keeps exact
//! value counts rather than samples, so batch merges are commutative
//! integer additions, and [`drain`] takes order statistics over the
//! counts — no observable output depends on which worker ran which tile.
//! Counts also bound the store: a protocol's rounds, messages and bytes
//! take a handful of distinct values, so a long-lived collector (the
//! server keeps one on for its whole life) stays a few entries per
//! metric however many trials it absorbs.
//!
//! Collection is off by default; the recorded experiment runner enables
//! it around each experiment and drains [`ProtoSummary`] rows into the
//! structured JSON records afterwards.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::event::TraceEvent;
use crate::stats::QuantileSummary;

/// Integer counters for one protocol execution, absorbed from the event
/// stream by a [`crate::RecordingTracer`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rounds executed (from the `End` event).
    pub rounds: u64,
    /// Messages released into the network (broadcasts count once).
    pub msgs: u64,
    /// Total encoded message bytes ([`crate::WireLen`]).
    pub bytes: u64,
    /// Functionality invocations that consumed at least one message.
    pub func_calls: u64,
    /// Corruptions (initial and adaptive).
    pub corruptions: u64,
    /// Honest outputs delivered.
    pub outputs: u64,
    /// Honest outputs that were ⊥ (aborts).
    pub bots: u64,
}

impl ExecStats {
    /// Folds one event into the counters.
    pub fn absorb(&mut self, e: &TraceEvent) {
        match *e {
            TraceEvent::RoundStart { .. } => {}
            TraceEvent::Send { len, .. } => {
                self.msgs += 1;
                self.bytes += len as u64;
            }
            TraceEvent::FuncCall { .. } => self.func_calls += 1,
            TraceEvent::Corrupt { .. } => self.corruptions += 1,
            TraceEvent::Output { bot, .. } => {
                self.outputs += 1;
                if bot {
                    self.bots += 1;
                }
            }
            TraceEvent::End { rounds } => self.rounds = rounds as u64,
        }
    }
}

/// One tile's worth of per-protocol observations — the mergeable unit
/// estimators accumulate locally and submit once per tile.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProtoBatch {
    /// Trials observed.
    pub trials: u64,
    /// Total corruptions across the batch.
    pub corruptions: u64,
    /// Total functionality invocations across the batch.
    pub func_calls: u64,
    /// Trials in which some honest party ended with ⊥.
    pub aborts: u64,
    /// Per-trial round counts: value → trials with that value.
    pub rounds: BTreeMap<u64, u64>,
    /// Per-trial message counts: value → trials with that value.
    pub msgs: BTreeMap<u64, u64>,
    /// Per-trial byte totals: value → trials with that value.
    pub bytes: BTreeMap<u64, u64>,
}

impl ProtoBatch {
    /// Records one finished trial.
    pub fn record(&mut self, s: &ExecStats) {
        self.trials += 1;
        self.corruptions += s.corruptions;
        self.func_calls += s.func_calls;
        if s.bots > 0 {
            self.aborts += 1;
        }
        for (counts, v) in [
            (&mut self.rounds, s.rounds),
            (&mut self.msgs, s.msgs),
            (&mut self.bytes, s.bytes),
        ] {
            *counts.entry(v).or_insert(0) += 1;
        }
    }

    /// Merges another batch into this one (commutative: every field is
    /// an integer sum).
    pub fn merge(&mut self, other: ProtoBatch) {
        self.trials += other.trials;
        self.corruptions += other.corruptions;
        self.func_calls += other.func_calls;
        self.aborts += other.aborts;
        for (counts, more) in [
            (&mut self.rounds, other.rounds),
            (&mut self.msgs, other.msgs),
            (&mut self.bytes, other.bytes),
        ] {
            for (v, n) in more {
                *counts.entry(v).or_insert(0) += n;
            }
        }
    }
}

/// The drained, exportable summary of one protocol's metrics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoSummary {
    /// Scenario name (the protocol × strategy label).
    pub name: String,
    /// Trials observed.
    pub trials: u64,
    /// Total corruptions.
    pub corruptions: u64,
    /// Total functionality invocations.
    pub func_calls: u64,
    /// Trials in which some honest party ended with ⊥.
    pub aborts: u64,
    /// Distribution of per-trial round counts.
    pub rounds: QuantileSummary,
    /// Distribution of per-trial message counts.
    pub msgs: QuantileSummary,
    /// Distribution of per-trial byte totals.
    pub bytes: QuantileSummary,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static STORE: Mutex<BTreeMap<String, ProtoBatch>> = Mutex::new(BTreeMap::new());

fn store() -> std::sync::MutexGuard<'static, BTreeMap<String, ProtoBatch>> {
    STORE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether per-protocol metrics are being collected.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns collection on/off and clears all accumulated state.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
    store().clear();
}

/// Submits one tile's batch under a scenario name. No-op unless
/// collection is enabled.
pub fn record_batch(name: &str, batch: ProtoBatch) {
    if !enabled() || batch.trials == 0 {
        return;
    }
    let mut guard = store();
    match guard.get_mut(name) {
        Some(acc) => acc.merge(batch),
        None => {
            guard.insert(name.to_string(), batch);
        }
    }
}

/// Drains everything collected so far into per-protocol summaries,
/// sorted by name. The output is a pure function of the recorded trial
/// multiset — identical for every worker count.
pub fn drain() -> Vec<ProtoSummary> {
    let batches = std::mem::take(&mut *store());
    summarize(batches)
}

/// Summarizes everything collected so far **without draining** — the
/// live export behind `fair-serve`'s `/metrics` endpoint, which must be
/// able to report accumulated per-protocol counters while the server
/// keeps collecting across requests. The lock is held only for the copy.
pub fn snapshot() -> Vec<ProtoSummary> {
    let batches = store().clone();
    summarize(batches)
}

fn summarize(batches: BTreeMap<String, ProtoBatch>) -> Vec<ProtoSummary> {
    let q = |counts: &BTreeMap<u64, u64>| {
        QuantileSummary::from_counts(counts.iter().map(|(&v, &n)| (v, n)))
    };
    batches
        .into_iter()
        .map(|(name, b)| ProtoSummary {
            name,
            trials: b.trials,
            corruptions: b.corruptions,
            func_calls: b.func_calls,
            aborts: b.aborts,
            rounds: q(&b.rounds),
            msgs: q(&b.msgs),
            bytes: q(&b.bytes),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The store and its enable flag are process-global while the test
    /// harness runs tests on parallel threads, so every test that touches
    /// them holds this lock.
    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        static GLOBAL: Mutex<()> = Mutex::new(());
        GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn stats(rounds: u64, msgs: u64, bytes: u64, bots: u64) -> ExecStats {
        ExecStats {
            rounds,
            msgs,
            bytes,
            func_calls: 1,
            corruptions: 1,
            outputs: 2,
            bots,
        }
    }

    #[test]
    fn disabled_collection_is_a_no_op() {
        let _guard = exclusive();
        set_enabled(false);
        let mut b = ProtoBatch::default();
        b.record(&stats(3, 5, 50, 0));
        record_batch("x", b);
        assert!(drain().is_empty());
    }

    #[test]
    fn merge_order_does_not_change_the_summary() {
        let _guard = exclusive();
        let mut b1 = ProtoBatch::default();
        b1.record(&stats(3, 5, 50, 0));
        b1.record(&stats(9, 2, 20, 1));
        let mut b2 = ProtoBatch::default();
        b2.record(&stats(6, 7, 70, 0));

        set_enabled(true);
        record_batch("pi", b1.clone());
        record_batch("pi", b2.clone());
        let ab = drain();

        set_enabled(true);
        record_batch("pi", b2);
        record_batch("pi", b1);
        let ba = drain();
        set_enabled(false);

        assert_eq!(ab, ba);
        assert_eq!(ab.len(), 1);
        let p = &ab[0];
        assert_eq!(
            (p.trials, p.aborts, p.corruptions, p.func_calls),
            (3, 1, 3, 3)
        );
        assert_eq!((p.rounds.min, p.rounds.max, p.rounds.total), (3, 9, 18));
        assert_eq!(p.msgs.total, 14);
        assert_eq!(p.bytes.total, 140);
    }

    #[test]
    fn snapshot_reports_without_draining() {
        let _guard = exclusive();
        let mut b = ProtoBatch::default();
        b.record(&stats(3, 5, 50, 0));
        set_enabled(true);
        record_batch("pi", b.clone());
        let snap = snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].trials, 1);
        // The store still holds the batch: a later batch accumulates on
        // top of it, and drain sees both.
        record_batch("pi", b);
        let drained = drain();
        assert_eq!(drained[0].trials, 2);
        assert!(snapshot().is_empty());
        set_enabled(false);
    }

    #[test]
    fn store_keeps_one_entry_per_distinct_value() {
        let _guard = exclusive();
        set_enabled(true);
        // 10 000 trials over 3 distinct shapes, submitted tile by tile.
        for tile in 0..157u64 {
            let mut b = ProtoBatch::default();
            for t in tile * 64..((tile + 1) * 64).min(10_000) {
                let k = t % 3;
                b.record(&stats(2 + k, 4 + k, 40 + k, 0));
            }
            record_batch("pi", b);
        }
        let held = store()["pi"].clone();
        assert_eq!(held.trials, 10_000);
        for counts in [&held.rounds, &held.msgs, &held.bytes] {
            assert_eq!(counts.len(), 3, "{counts:?}");
            assert_eq!(counts.values().sum::<u64>(), 10_000);
        }
        let p = &drain()[0];
        assert_eq!((p.rounds.min, p.rounds.p50, p.rounds.max), (2, 3, 4));
        assert_eq!(p.bytes.total, 40 * 10_000 + 3_333 + 2 * 3_333);
        set_enabled(false);
    }

    #[test]
    fn absorb_folds_every_event_kind() {
        use crate::event::{Dst, Src};
        let mut s = ExecStats::default();
        s.absorb(&TraceEvent::RoundStart { round: 0 });
        s.absorb(&TraceEvent::Send {
            from: Src::Party(0),
            to: Dst::Func(0),
            len: 4,
        });
        s.absorb(&TraceEvent::FuncCall {
            func: 0,
            round: 0,
            msgs: 1,
        });
        s.absorb(&TraceEvent::Corrupt { party: 1, round: 0 });
        s.absorb(&TraceEvent::Output {
            party: 0,
            bot: true,
        });
        s.absorb(&TraceEvent::End { rounds: 2 });
        assert_eq!(
            s,
            ExecStats {
                rounds: 2,
                msgs: 1,
                bytes: 4,
                func_calls: 1,
                corruptions: 1,
                outputs: 1,
                bots: 1,
            }
        );
    }
}
