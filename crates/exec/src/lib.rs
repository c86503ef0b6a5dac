//! # h2o-exec — the parallel candidate-evaluation executor
//!
//! The paper's first pillar is a *massively parallel* one-shot search:
//! candidate evaluation throughput, not policy arithmetic, is the binding
//! constraint at scale. This crate provides the machinery the search loops
//! use to fan per-step candidate batches out across a worker pool:
//!
//! * [`Executor`] — a persistent **work-stealing** executor for borrowing
//!   jobs (evaluators live on the caller's stack). Its helper threads are
//!   spawned once, when the executor is built, and between batches spin
//!   briefly and then park; the calling thread works as worker 0. Jobs
//!   are pre-sharded round-robin across per-worker deques; an idle worker
//!   steals from the back of its neighbours' deques.
//! * [`DistributedPool`] — the **process-per-node** mode: byte jobs fan
//!   out over Unix-socket or TCP [`NodeTransport`]s carrying
//!   length-prefixed, checksummed [`frame`]s, with the same
//!   submission-order reduction, so a multi-process search reproduces the
//!   single-process run byte for byte ([`serve`] is the worker half). Its
//!   per-node legs run on an [`Executor`] the pool owns.
//!
//! ## Determinism contract
//!
//! Both layers reduce results in **submission order**: `execute(jobs)[i]`
//! is always the result of `jobs[i]`, no matter which worker ran it or
//! when it finished. A job must therefore own everything its result
//! depends on (its RNG seed, its evaluator state) — under that discipline,
//! single-worker and N-worker runs produce bit-identical output, which the
//! determinism suite (`tests/determinism.rs` at the workspace root)
//! asserts on whole search-history CSVs.
//!
//! Scheduling *placement* is intentionally nondeterministic (that is what
//! makes stealing fast); only the reduction order is pinned. A one-worker
//! executor runs every job on the calling thread in submission order.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(clippy::todo, clippy::unreachable)]
#![warn(clippy::dbg_macro, clippy::print_stderr, clippy::print_stdout)]
#![warn(clippy::expect_used, clippy::panic, clippy::unwrap_used)]

pub mod distributed;
pub mod frame;
mod helpers;
pub mod transport;
pub mod wire;

pub use distributed::{decode_indexed, encode_indexed, serve, DistributedPool, PoolOptions};
pub use frame::{
    decode_frame, encode_frame, read_frame, write_frame, ExecError, Frame, FrameKind,
    FRAME_HEADER_LEN, FRAME_MAGIC, MAX_PAYLOAD, PROTOCOL_VERSION,
};
pub use transport::{NodeAddr, NodeListener, NodeTransport};
pub use wire::{Dec, Enc, WireError};

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// Environment variable overriding the worker count when a config asks for
/// auto selection (`workers == 0`).
pub const WORKERS_ENV: &str = "H2O_WORKERS";

/// Resolves a requested worker count to a concrete one.
///
/// * `requested > 0` wins outright.
/// * `requested == 0` means auto: the [`WORKERS_ENV`] variable if set,
///   otherwise the machine's available parallelism.
///
/// The result is clamped to `[1, max_useful]` — there is never a reason to
/// run more workers than jobs per batch.
pub fn resolve_workers(requested: usize, max_useful: usize) -> usize {
    let chosen = if requested > 0 {
        requested
    } else {
        std::env::var(WORKERS_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&w| w > 0)
            .unwrap_or_else(|| {
                // h2o-lint: allow(nondet-taint) -- the worker count is value-invisible
                // by the determinism contract: search output is bit-identical for every
                // worker count (enforced by the tier-1 determinism suite).
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    };
    chosen.clamp(1, max_useful.max(1))
}

/// A persistent work-stealing executor over borrowing jobs.
///
/// [`Executor::new`] spawns `workers − 1` helper threads once; between
/// batches they spin for about 25 µs and then park (an executor built with
/// [`Executor::parking`] parks at once), and they are joined when the
/// executor drops. During [`execute`](Executor::execute) the calling
/// thread works as worker 0 beside them. Concurrent `execute` calls on one
/// shared executor take turns, and a batch submitted from inside a running
/// job runs inline on the submitting thread.
///
/// # Examples
///
/// ```
/// use h2o_exec::Executor;
///
/// let exec = Executor::new(4);
/// let squares = exec.map((0..100).collect(), |_, x: u64| x * x);
/// assert_eq!(squares[7], 49); // submission-order reduction
/// ```
#[derive(Debug)]
pub struct Executor {
    workers: usize,
    /// `None` for one worker.
    helpers: Option<helpers::Helpers>,
    /// Worker `w`'s `h2o_exec_worker_jobs_total{worker="w"}` counter name,
    /// formatted once; the counters are still looked up per batch.
    worker_jobs: Vec<String>,
}

impl Executor {
    /// Creates an executor with a fixed worker count, spawning its
    /// `workers − 1` helper threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        Self::spawn(workers, true)
    }

    /// Creates an executor whose waiting threads park at once instead of
    /// spinning first: for jobs that block on I/O, whose batches outlast
    /// the spin budget, so a spin would only burn CPU that other
    /// processes could use. [`DistributedPool`] runs its node legs on one.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn parking(workers: usize) -> Self {
        Self::spawn(workers, false)
    }

    fn spawn(workers: usize, spin: bool) -> Self {
        assert!(workers > 0, "need at least one worker");
        Self {
            workers,
            helpers: (workers > 1).then(|| helpers::Helpers::spawn(workers, spin)),
            worker_jobs: (0..workers)
                .map(|w| format!("h2o_exec_worker_jobs_total{{worker=\"{w}\"}}"))
                .collect(),
        }
    }

    /// Builds an executor from a config-requested worker count plus the
    /// environment: [`WORKERS_ENV`] fills in auto counts (see
    /// [`resolve_workers`]).
    pub fn from_env(requested: usize, max_useful: usize) -> Self {
        Self::new(resolve_workers(requested, max_useful))
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every job and returns results in **submission order**:
    /// `execute(jobs)[i]` is the result of `jobs[i]`.
    ///
    /// Jobs are pre-sharded round-robin over per-worker deques (job `i`
    /// starts on worker `i % workers`, worker 0 being the calling thread);
    /// an idle worker steals from the back of the other deques. Each job
    /// runs exactly once. A one-worker executor and a call made from inside
    /// a running job run the batch inline, in submission order.
    ///
    /// Utilization telemetry per batch: jobs executed per worker
    /// (`h2o_exec_worker_jobs_total{worker=...}`), steals
    /// (`h2o_exec_steals_total`), and one busy plus one idle observation
    /// per worker (`h2o_exec_worker_{busy,idle}_seconds`) — idle is the
    /// time spent in the steal loop without holding a job, so
    /// `idle / (busy + idle)` is the batch's scheduling overhead.
    ///
    /// # Panics
    ///
    /// Re-raises the first job panic after every worker has stopped.
    #[expect(
        clippy::expect_used,
        reason = "`run_batch` returns only after every worker stopped, and workers only stop once all deques are drained, so each result slot was filled"
    )]
    pub fn execute<J, R>(&self, jobs: Vec<J>) -> Vec<R>
    where
        J: FnOnce() -> R + Send,
        R: Send,
    {
        let n = jobs.len();
        h2o_obs::counter("h2o_exec_batches_total").inc();
        h2o_obs::counter("h2o_exec_jobs_total").add(n as u64);
        let workers = self.workers.min(n.max(1));
        // Utilization instruments: per-worker job counters plus one busy
        // and one idle observation per worker per batch (idle = the time a
        // worker spent inside the steal loop without holding a job).
        // Readings come from h2o-obs stopwatches and feed instruments
        // only, so they cannot perturb the submission-order reduction.
        let worker_jobs: Vec<h2o_obs::Counter> = self.worker_jobs[..workers]
            .iter()
            .map(|name| h2o_obs::counter(name))
            .collect();
        let busy_seconds = h2o_obs::histogram("h2o_exec_worker_busy_seconds");
        let idle_seconds = h2o_obs::histogram("h2o_exec_worker_idle_seconds");
        let parallel = workers > 1 && !helpers::IN_BATCH.get();
        let Some(pool) = self.helpers.as_ref().filter(|_| parallel) else {
            let batch_watch = h2o_obs::Stopwatch::start();
            let results = jobs
                .into_iter()
                .map(|job| {
                    worker_jobs[0].inc();
                    job()
                })
                .collect();
            busy_seconds.record(batch_watch.elapsed_secs());
            idle_seconds.record(0.0);
            return results;
        };

        // Each job lives in its own slot so taking one never contends with
        // taking another; the queues only carry indices.
        let slots: Vec<Mutex<Option<J>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let mut queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|_| Mutex::new(VecDeque::with_capacity(n / workers + 1)))
            .collect();
        for i in 0..n {
            queues[i % workers].get_mut().push_back(i);
        }
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let steals = AtomicU64::new(0);

        let work = |me: usize| {
            let batch_watch = h2o_obs::Stopwatch::start();
            let mut busy = 0.0f64;
            loop {
                // Own deque first (front), then steal (back). The own-queue
                // guard MUST drop before stealing: chained
                // `lock().pop_front().or_else(..)` keeps the guard alive
                // across the closure (temporaries live to the end of the
                // statement), and N workers each holding their own queue
                // while locking a victim's is a hold-and-wait cycle that
                // deadlocks the pool.
                let own = queues[me].lock().pop_front();
                let idx = own.or_else(|| {
                    (1..workers).find_map(|offset| {
                        let victim = (me + offset) % workers;
                        let stolen = queues[victim].lock().pop_back();
                        if stolen.is_some() {
                            steals.fetch_add(1, Ordering::Relaxed);
                        }
                        stolen
                    })
                });
                let Some(i) = idx else { break };
                #[expect(
                    clippy::expect_used,
                    reason = "each index is pushed to exactly one deque and stealing pops, never clones, so a slot is taken exactly once"
                )]
                let job = slots[i].lock().take().expect("job taken exactly once");
                let job_watch = h2o_obs::Stopwatch::start();
                let result = job();
                busy += job_watch.elapsed_secs();
                worker_jobs[me].inc();
                *results[i].lock() = Some(result);
            }
            busy_seconds.record(busy);
            idle_seconds.record((batch_watch.elapsed_secs() - busy).max(0.0));
        };
        pool.run_batch(workers, &work);

        h2o_obs::counter("h2o_exec_steals_total").add(steals.into_inner());
        results
            .into_iter()
            .map(|slot| slot.into_inner().expect("every job produced a result"))
            .collect()
    }

    /// Applies `f` to every item in parallel, returning results in item
    /// order. `f` receives the item's submission index, so jobs can derive
    /// per-item seeds without sharing state.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let f = &f;
        let jobs: Vec<_> = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| move || f(i, item))
            .collect();
        self.execute(jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        let exec = Executor::new(4);
        // Reverse sleep-free compute order pressure: later jobs are cheaper.
        let out = exec.map((0..64u64).collect(), |i, x| {
            let mut acc = x;
            for _ in 0..(64 - i) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i, acc)
        });
        for (i, (idx, _)) in out.iter().enumerate() {
            assert_eq!(i, *idx);
        }
    }

    #[test]
    fn one_worker_equals_many_workers() {
        let work = |_: usize, x: u64| x.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17);
        let a = Executor::new(1).map((0..257).collect(), work);
        let b = Executor::new(7).map((0..257).collect(), work);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_batch_is_fine() {
        let out: Vec<u64> = Executor::new(3).map(Vec::<u64>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        Executor::new(0);
    }

    #[test]
    fn resolve_workers_clamps_and_prefers_explicit() {
        assert_eq!(resolve_workers(4, 16), 4);
        assert_eq!(resolve_workers(32, 8), 8, "clamped to max_useful");
        assert_eq!(resolve_workers(3, 0), 1, "max_useful floor of 1");
        assert!(resolve_workers(0, 64) >= 1);
    }
}
