//! The deterministic tiled trial scheduler.
//!
//! [`run_tiled`] partitions `[0, total)` trial indices into fixed-size
//! tiles and maps a caller-supplied function over every tile, returning the
//! per-tile results **in tile order** regardless of which worker computed
//! which tile. Two invariants make the output independent of the worker
//! count:
//!
//! 1. the tile boundaries depend only on `total` (never on `--jobs`), so
//!    any merge the caller folds over the returned `Vec` sees the same
//!    operand grouping and order every time — even floating-point
//!    reductions are bit-identical;
//! 2. trial seeds are derived per index ([`crate::seed::trial_seed`]),
//!    never from worker-local state.
//!
//! Workers claim tiles from a shared atomic counter (work stealing without
//! locks), accumulate `(tile_index, result)` pairs privately, and the
//! results are placed at join time — no locking on the hot path.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Trials per tile. Fixed — tile geometry must never depend on the worker
/// count (see the module docs); 64 trials amortize the claim overhead while
/// still load-balancing jagged per-trial costs.
pub const TILE: usize = 64;

/// The configured worker count (0 = unset, treat as 1).
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Serializes [`with_jobs`] scopes so concurrent tests don't interleave
/// their temporary overrides.
static JOBS_SCOPE: Mutex<()> = Mutex::new(());

/// Sets the global worker count used by [`run_tiled`] (the `--jobs` flag).
/// `0` and `1` both mean sequential execution.
pub fn set_jobs(jobs: usize) {
    JOBS.store(jobs, Ordering::Relaxed);
}

/// The effective worker count: the value from [`set_jobs`], else 1.
pub fn effective_jobs() -> usize {
    JOBS.load(Ordering::Relaxed).max(1)
}

/// Runs `f` with the global worker count temporarily set to `jobs`,
/// restoring the previous value afterwards. Scopes are serialized, so
/// concurrent tests comparing job counts cannot interleave.
pub fn with_jobs<T>(jobs: usize, f: impl FnOnce() -> T) -> T {
    let _guard = JOBS_SCOPE.lock().unwrap_or_else(|e| e.into_inner());
    let prev = JOBS.load(Ordering::Relaxed);
    JOBS.store(jobs, Ordering::Relaxed);
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            JOBS.store(self.0, Ordering::Relaxed);
        }
    }
    let _restore = Restore(prev);
    f()
}

/// Maps `f` over the fixed tiling of `[0, total)` and returns the per-tile
/// results in tile order. `f` receives the half-open index range of one
/// tile. Sequential when the effective job count is 1 (the same tiling and
/// merge path — `--jobs 1` exercises identical code), sharded across the
/// calling thread and `jobs − 1` `std::thread::scope` workers otherwise.
pub fn run_tiled<T, F>(total: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(core::ops::Range<usize>) -> T + Sync,
{
    let tiles = total.div_ceil(TILE);
    let tile_range = |i: usize| i * TILE..((i + 1) * TILE).min(total);
    run_indexed(tiles, |i| f(tile_range(i)))
}

/// Maps `f` over `0..count` and returns the results in index order — the
/// work-distribution core under [`run_tiled`], exposed so callers with a
/// *sparse* work list (e.g. the tile-cache path computing only missing
/// tiles) get the same claim-from-an-atomic-counter scheduling without
/// inventing a dense range. Determinism contract: results depend only on
/// `f` and `count`, never on the worker count.
pub fn run_indexed<T, F>(count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = effective_jobs().clamp(1, count.max(1));
    if jobs <= 1 {
        return (0..count).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    thread::scope(|scope| {
        // The calling thread is one of the `jobs` workers.
        let handles: Vec<_> = (1..jobs)
            .map(|_| scope.spawn(|| claim(&next, count, &f)))
            .collect();
        let own = claim(&next, count, &f);
        let joined = handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("simlab worker panicked"));
        for (i, result) in own.into_iter().chain(joined) {
            slots[i] = Some(result);
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index computed"))
        .collect()
}

/// One worker's loop: claims indices from `next` until `count` and
/// returns its `(index, result)` pairs.
fn claim<T, F: Fn(usize) -> T>(next: &AtomicUsize, count: usize, f: &F) -> Vec<(usize, T)> {
    let mut mine = Vec::new();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= count {
            return mine;
        }
        mine.push((i, f(i)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_index_exactly_once() {
        for total in [0usize, 1, TILE - 1, TILE, TILE + 1, 10 * TILE + 7] {
            let tiles = with_jobs(4, || run_tiled(total, |r| r.collect::<Vec<_>>()));
            let flat: Vec<usize> = tiles.into_iter().flatten().collect();
            assert_eq!(flat, (0..total).collect::<Vec<_>>(), "total {total}");
        }
    }

    #[test]
    fn results_are_identical_across_job_counts() {
        let run = |jobs| {
            with_jobs(jobs, || {
                run_tiled(1000, |r| {
                    // Wrapping sum: tiles of full-range u64 seeds overflow a
                    // checked add; only schedule-independence matters here.
                    r.map(|i| crate::seed::trial_seed(7, i as u64))
                        .fold(0u64, u64::wrapping_add)
                })
            })
        };
        let expected = run(1);
        for jobs in [2, 4, 8, 64] {
            assert_eq!(run(jobs), expected, "jobs {jobs}");
        }
    }

    #[test]
    fn with_jobs_restores_previous_value() {
        set_jobs(0);
        with_jobs(3, || assert_eq!(effective_jobs(), 3));
        // Back to the unset default (1 effective).
        assert_eq!(JOBS.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn zero_total_yields_no_tiles() {
        assert!(run_tiled(0, |_| 0u8).is_empty());
    }

    #[test]
    fn run_indexed_is_in_order_for_any_job_count() {
        for jobs in [1, 2, 4, 8] {
            let out = with_jobs(jobs, || run_indexed(37, |i| i * i));
            assert_eq!(
                out,
                (0..37).map(|i| i * i).collect::<Vec<_>>(),
                "jobs {jobs}"
            );
        }
        assert!(run_indexed(0, |i| i).is_empty());
    }
}
