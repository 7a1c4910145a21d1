//! Run observability: per-trial latency collection (min/p50/p99/max
//! summaries) and a live `trials/s` progress line on stderr.
//!
//! Collection is off by default so unit tests and library consumers pay
//! nothing; the `reproduce` runner calls [`start`] and [`stop`] around each
//! experiment and drains a [`QuantileSummary`] in between. Latency samples
//! are batched per tile so the mutex is touched once per ~64 trials, never
//! per trial. The progress line is printed from that same tile-completion
//! path, at most once every 2 s, so no thread is needed.

use fair_trace::QuantileSummary;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Minimum time between two progress lines of one experiment.
const PROGRESS_PERIOD: Duration = Duration::from_secs(2);

static ENABLED: AtomicBool = AtomicBool::new(false);
static COLLECTOR: Mutex<Collector> = Mutex::new(Collector {
    samples: Vec::new(),
    run: None,
});

/// Per-trial latencies of the running experiment and the state its
/// progress line needs, kept under one lock so the reported trial count is
/// exactly the number of samples.
struct Collector {
    samples: Vec<u64>,
    run: Option<Run>,
}

struct Run {
    label: String,
    started: Instant,
    last_report: Instant,
}

fn collector() -> MutexGuard<'static, Collector> {
    // Every update leaves the collector valid, so a poisoned lock is safe
    // to recover.
    COLLECTOR.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether trial metrics are being collected.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears all samples and starts collecting for the experiment `label`
/// (called by the runner at the start of each experiment).
pub fn start(label: &str) {
    let now = Instant::now();
    let mut c = collector();
    c.samples.clear();
    c.run = Some(Run {
        label: label.to_string(),
        started: now,
        last_report: now,
    });
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stops collecting and clears all samples (called by the runner once the
/// experiment's latencies are drained).
pub fn stop() {
    ENABLED.store(false, Ordering::Relaxed);
    let mut c = collector();
    c.samples.clear();
    c.run = None;
}

/// Records a finished batch of trials with their per-trial latencies, and
/// prints the progress line if 2 s have passed since the last one (or since
/// [`start`]). No-op unless collection is enabled.
pub fn record_batch(latencies_ns: &[u64]) {
    if !enabled() || latencies_ns.is_empty() {
        return;
    }
    let line = {
        let mut guard = collector();
        let c = &mut *guard;
        let Some(run) = c.run.as_mut() else {
            return;
        };
        c.samples.extend_from_slice(latencies_ns);
        let now = Instant::now();
        (now.duration_since(run.last_report) >= PROGRESS_PERIOD).then(|| {
            run.last_report = now;
            let done = c.samples.len();
            let rate = done as f64 / now.duration_since(run.started).as_secs_f64();
            format!("[simlab] {}: {done} trials, {rate:.0} trials/s", run.label)
        })
    };
    if let Some(line) = line {
        eprintln!("{line}");
    }
}

/// Renders a nanosecond count with an adaptive unit.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// The per-trial timing facade: wall-clock reads stay inside `simlab`
/// (fairlint rule D1 keeps `Instant` out of the determinism-boundary
/// crates), and estimators just wrap each trial in [`BatchTimer::time`].
///
/// When collection is disabled (the default) the timer is a no-op: no
/// clock is read and nothing is allocated beyond an empty `Option`.
///
/// # Examples
///
/// ```
/// use fair_simlab::metrics::BatchTimer;
///
/// let mut timer = BatchTimer::start(8);
/// let answer = timer.time(|| 2 + 2);
/// assert_eq!(answer, 4);
/// timer.finish(); // records the batch if collection is enabled
/// ```
#[derive(Debug)]
pub struct BatchTimer {
    samples: Option<Vec<u64>>,
}

impl BatchTimer {
    /// Creates a timer for a batch of up to `capacity` timed calls.
    /// Samples are only collected while metrics are [`enabled`].
    pub fn start(capacity: usize) -> BatchTimer {
        BatchTimer {
            samples: enabled().then(|| Vec::with_capacity(capacity)),
        }
    }

    /// Runs `f`, recording its wall-clock latency when collection is
    /// enabled; transparent otherwise.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        match self.samples.as_mut() {
            Some(samples) => {
                let t0 = Instant::now();
                let out = f();
                samples.push(t0.elapsed().as_nanos() as u64);
                out
            }
            None => f(),
        }
    }

    /// Submits the batch to the global latency collector.
    pub fn finish(self) {
        if let Some(samples) = self.samples {
            record_batch(&samples);
        }
    }
}

/// Drains and summarizes the collected per-trial latencies, in
/// nanoseconds (`None` when no trial was timed).
pub fn drain_latency() -> Option<QuantileSummary> {
    let samples = std::mem::take(&mut collector().samples);
    (!samples.is_empty()).then(|| QuantileSummary::from_samples(samples))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ns_picks_sane_units() {
        assert_eq!(fmt_ns(500), "500ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_200_000_000), "3.20s");
    }

    #[test]
    fn disabled_collection_is_a_no_op() {
        stop();
        record_batch(&[1, 2, 3]);
        assert!(drain_latency().is_none());
    }
}
