//! Progressive (CI-bounded) estimation context.
//!
//! An adaptive run trades a fixed trial budget for a precision target: the
//! estimator keeps executing tile batches until the 95% confidence
//! half-width drops to `epsilon` (or the budget runs out), emitting a
//! running [`ProgressUpdate`] after every batch. The stop rule is a pure
//! function of the integer tallies, so adaptive results are bit-identical
//! for every worker count — exactly like fixed-budget ones.
//!
//! The context travels thread-locally: [`scoped`] arms the calling thread
//! with an epsilon (and an optional live-update channel), runs a closure —
//! typically a whole experiment making many [`crate::estimate`] calls —
//! and returns the closure's value together with an aggregated
//! [`AdaptiveSummary`] of trials used versus requested. `estimate` checks
//! the ambient context and diverts to its chunked adaptive path when one
//! is armed; with no context armed, nothing changes.
//!
//! Updates cross threads through an `mpsc` channel rather than a callback
//! so the consumer (e.g. the serve streaming endpoint, which must write
//! progress frames to a live socket) never needs a `'static` borrow of the
//! producer's state.

use std::cell::RefCell;
use std::sync::mpsc::Sender;

use fair_simlab::{AdaptiveSummary, ProgressUpdate};

struct Ctx {
    tx: Option<Sender<ProgressUpdate>>,
    /// The accounting so far; its `epsilon` is the armed target.
    summary: AdaptiveSummary,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// Runs `f` with adaptive estimation armed at precision `epsilon` on this
/// thread, returning `f`'s value and the aggregated accounting. Frames go
/// to `tx` when provided (send failures are ignored — a hung-up consumer
/// must not stop the computation). Scopes restore the previous context on
/// exit, including unwinds.
pub fn scoped<T>(
    epsilon: f64,
    tx: Option<Sender<ProgressUpdate>>,
    f: impl FnOnce() -> T,
) -> (T, AdaptiveSummary) {
    struct Restore(Option<Ctx>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CTX.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let prev = CTX.with(|c| {
        c.borrow_mut().replace(Ctx {
            tx,
            summary: AdaptiveSummary {
                epsilon,
                ..AdaptiveSummary::default()
            },
        })
    });
    let mut restore = Restore(prev);
    let value = f();
    let summary = CTX.with(|c| {
        let mut slot = c.borrow_mut();
        let summary = slot.as_ref().map(|ctx| ctx.summary).unwrap_or_default();
        *slot = restore.0.take();
        summary
    });
    core::mem::forget(restore);
    (value, summary)
}

/// The armed epsilon, if adaptive estimation is active on this thread.
pub(crate) fn epsilon() -> Option<f64> {
    CTX.with(|c| c.borrow().as_ref().map(|ctx| ctx.summary.epsilon))
}

/// Emits a progress frame to the armed channel (no-op otherwise).
pub(crate) fn emit(update: ProgressUpdate) {
    CTX.with(|c| {
        if let Some(Ctx { tx: Some(tx), .. }) = c.borrow().as_ref() {
            let _ = tx.send(update);
        }
    });
}

/// Books one finished adaptive `estimate()` call into the scope summary.
pub(crate) fn note(requested: usize, used: usize, early: bool) {
    CTX.with(|c| {
        if let Some(ctx) = c.borrow_mut().as_mut() {
            ctx.summary.estimates += 1;
            ctx.summary.early_stops += u64::from(early);
            ctx.summary.trials_requested += requested as u64;
            ctx.summary.trials_used += used as u64;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_thread_has_no_context() {
        assert_eq!(epsilon(), None);
        emit(ProgressUpdate {
            scenario: "x".into(),
            requested: 1,
            trials: 1,
            mean: 0.0,
            ci: 0.0,
            done: true,
        }); // no-op
        note(10, 10, false); // no-op
    }

    #[test]
    fn scoped_arms_and_restores() {
        let ((), summary) = scoped(0.25, None, || {
            assert_eq!(epsilon(), Some(0.25));
            note(1000, 256, true);
            note(500, 500, false);
            // Nested scopes shadow and restore.
            let ((), inner) = scoped(0.5, None, || note(10, 10, false));
            assert_eq!(inner.estimates, 1);
            assert_eq!(epsilon(), Some(0.25));
        });
        assert_eq!(epsilon(), None);
        assert_eq!(summary.estimates, 2);
        assert_eq!(summary.early_stops, 1);
        assert_eq!(summary.trials_requested, 1500);
        assert_eq!(summary.trials_used, 756);
    }

    #[test]
    fn frames_cross_the_channel() {
        let (tx, rx) = std::sync::mpsc::channel();
        let ((), _) = scoped(0.1, Some(tx), || {
            emit(ProgressUpdate {
                scenario: "s".into(),
                requested: 100,
                trials: 64,
                mean: 0.5,
                ci: 0.2,
                done: false,
            });
        });
        let got = rx.recv().expect("one frame");
        assert_eq!(got.trials, 64);
        assert!(!got.done);
        assert!(rx.try_recv().is_err());
    }
}
