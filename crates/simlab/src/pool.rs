//! A bounded worker pool with explicit admission control — the job
//! submission API behind `fair-serve`.
//!
//! [`run_tiled`](crate::scheduler::run_tiled) shards the trials of *one*
//! estimate; this pool schedules *whole jobs* (one per request) across a
//! fixed set of threads with a **bounded queue**: when the queue is full,
//! [`WorkerPool::try_submit`] fails immediately instead of buffering
//! without limit, so callers can shed load (HTTP 429) rather than let
//! latency grow unboundedly. Dropping the pool is the graceful shutdown:
//! the workers run every job still queued, then exit and are joined.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A submitted unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why a submission was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity; retry later or shed the request.
    QueueFull,
}

impl core::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "job queue is full"),
        }
    }
}

#[derive(Default)]
struct PoolState {
    queue: VecDeque<Job>,
    shutting_down: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signals workers that the queue gained a job or shutdown began.
    wake: Condvar,
    queue_cap: usize,
}

impl PoolShared {
    fn lock(&self) -> std::sync::MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A fixed-size thread pool over a bounded FIFO job queue.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (min 1) serving a queue of at most
    /// `queue_cap` (min 1) pending jobs.
    pub fn new(workers: usize, queue_cap: usize) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState::default()),
            wake: Condvar::new(),
            queue_cap: queue_cap.max(1),
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Enqueues `job`, failing fast when the queue is full. Never blocks.
    pub fn try_submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), SubmitError> {
        let mut state = self.shared.lock();
        if state.queue.len() >= self.shared.queue_cap {
            return Err(SubmitError::QueueFull);
        }
        state.queue.push_back(Box::new(job));
        drop(state);
        self.shared.wake.notify_one();
        Ok(())
    }
}

impl Drop for WorkerPool {
    /// Graceful shutdown: the workers finish every queued job, then exit
    /// and are joined.
    fn drop(&mut self) {
        self.shared.lock().shutting_down = true;
        self.shared.wake.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let mut state = shared.lock();
        loop {
            if let Some(job) = state.queue.pop_front() {
                drop(state);
                job();
                break;
            }
            if state.shutting_down {
                return;
            }
            state = shared.wake.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn executes_submitted_jobs() {
        let pool = WorkerPool::new(2, 16);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let hits = Arc::clone(&hits);
            pool.try_submit(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            })
            .expect("queue has room");
        }
        drop(pool);
        assert_eq!(hits.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn full_queue_rejects_without_blocking() {
        let pool = WorkerPool::new(1, 1);
        let done = Arc::new(AtomicUsize::new(0));
        let (started, picked_up) = mpsc::channel();
        let (release, gate) = mpsc::channel::<()>();
        // Occupy the single worker until released.
        let d = Arc::clone(&done);
        pool.try_submit(move || {
            let _ = started.send(());
            let _ = gate.recv();
            d.fetch_add(1, Ordering::SeqCst);
        })
        .expect("first job admitted");
        // Wait for the worker to pick it up so the queue is empty.
        picked_up.recv().expect("worker started the job");
        let d = Arc::clone(&done);
        pool.try_submit(move || {
            d.fetch_add(1, Ordering::SeqCst);
        })
        .expect("queue slot free");
        assert_eq!(pool.try_submit(|| {}), Err(SubmitError::QueueFull));
        release.send(()).expect("job is waiting");
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn drop_runs_every_queued_job_before_joining() {
        let pool = WorkerPool::new(1, 64);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..20 {
            let done = Arc::clone(&done);
            pool.try_submit(move || {
                std::thread::sleep(Duration::from_millis(1));
                done.fetch_add(1, Ordering::SeqCst);
            })
            .expect("admitted");
        }
        // Graceful: every queued job ran before the drop returned.
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), 20);
    }
}
