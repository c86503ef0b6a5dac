//! The executor's helper threads: spawned once, joined on drop. Between
//! batches a helper spins briefly on the batch epoch, then parks on a
//! condvar; a pool built not to spin parks at once.

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// A published batch with its lifetime erased: called once per worker
/// taking part, with that worker's index.
type Work = &'static (dyn Fn(usize) + Sync);

/// How long a thread that waits on the other side of the hand-off spins
/// before it parks: a helper waiting for the next batch, or the caller
/// waiting for the helpers' reports. A batch published, or a report made,
/// inside this window costs no futex sleep and wake. Timed with a
/// stopwatch rather than by counting turns of the loop, whose cost varies
/// about tenfold across CPUs.
const SPIN_BUDGET_SECS: f64 = 25e-6;

thread_local! {
    /// Set while this thread runs a share of a batch. A batch submitted
    /// from there must run inline: the helpers it would wait for are busy
    /// with the enclosing batch, or their caller is waiting on them.
    pub(crate) static IN_BATCH: Cell<bool> = const { Cell::new(false) };
}

/// Runs worker `me`'s share of `work`, catching a panic so that it can be
/// re-raised once every other share has stopped.
fn run_share(work: &(dyn Fn(usize) + Sync), me: usize) -> std::thread::Result<()> {
    let outer = IN_BATCH.replace(true);
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| work(me)));
    IN_BATCH.set(outer);
    outcome
}

#[derive(Default)]
struct State {
    /// The published batch and how many workers take part in it, the
    /// caller included; `None` between batches.
    batch: Option<(Work, usize)>,
    /// The first panic any share of this batch reported.
    panic: Option<Box<dyn Any + Send>>,
    /// Helpers parked on `wake`.
    parked: usize,
}

struct Shared {
    state: Mutex<State>,
    /// Bumped each time a batch is published. Written only under the
    /// `state` lock, so a read under the lock matches `state.batch`;
    /// spinning helpers read it without the lock.
    epoch: AtomicU64,
    /// Helpers taking part in the current batch that have not reported
    /// back yet.
    running: AtomicUsize,
    /// Set under the `state` lock when the executor drops.
    shutdown: AtomicBool,
    /// Set while the caller is parked on `done`.
    caller_parked: AtomicBool,
    /// Whether waiting threads spin before they park. The executor's
    /// builder decides: a pool whose jobs block on I/O parks at once,
    /// because its batches outlast the budget and a spin only burns CPU.
    spin: bool,
    /// Wakes parked helpers: a batch was published, or shutdown began.
    wake: Condvar,
    /// Wakes the parked caller: the last running helper reported back.
    done: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Spins until `ready()` holds or the spin budget runs out, and
    /// returns whether it holds. Without `spin` it only checks once.
    ///
    /// Each turn yields the CPU rather than pausing in place. With a CPU of
    /// its own the yield returns at once; but when the scheduler has put
    /// the thread this one waits for on the same CPU, a spinner that only
    /// paused would hold that CPU for the whole budget, twice per batch.
    fn spin_until(&self, ready: impl Fn() -> bool) -> bool {
        let watch = self.spin.then(h2o_obs::Stopwatch::start);
        loop {
            if ready() {
                return true;
            }
            match watch {
                Some(watch) if watch.elapsed_secs() < SPIN_BUDGET_SECS => std::thread::yield_now(),
                _ => return false,
            }
        }
    }

    /// Helper `me`'s life: run its share of every batch it takes part in,
    /// report back, and return on shutdown.
    fn serve(&self, me: usize) {
        let mut seen = 0;
        loop {
            let news = || {
                self.epoch.load(Ordering::Acquire) != seen || self.shutdown.load(Ordering::Acquire)
            };
            let batch = {
                let state = if self.spin_until(news) {
                    self.lock()
                } else {
                    let mut state = self.lock();
                    state.parked += 1;
                    let mut state = self
                        .wake
                        .wait_while(state, |_| !news())
                        .unwrap_or_else(PoisonError::into_inner);
                    state.parked -= 1;
                    state
                };
                // Both are written only under the lock held here.
                if self.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                seen = self.epoch.load(Ordering::Relaxed);
                // A batch with fewer workers than helpers leaves the
                // highest-numbered helpers out; they were not counted.
                state.batch.filter(|&(_, workers)| me < workers)
            };
            let Some((work, _)) = batch else {
                continue;
            };
            if let Err(payload) = run_share(work, me) {
                self.lock().panic.get_or_insert(payload);
            }
            // The last helper to report wakes the caller only if it has
            // parked. Both sides' flag and count accesses are SeqCst: a
            // caller that still saw this helper running had set
            // `caller_parked` first, and holds the lock until it waits.
            if self.running.fetch_sub(1, Ordering::SeqCst) == 1
                && self.caller_parked.load(Ordering::SeqCst)
            {
                drop(self.lock());
                self.done.notify_one();
            }
        }
    }

    /// Returns once every helper taking part in the batch reported back:
    /// the caller spins on the count, then parks on `done`.
    fn await_helpers(&self) {
        if self.spin_until(|| self.running.load(Ordering::Acquire) == 0) {
            return;
        }
        let state = self.lock();
        self.caller_parked.store(true, Ordering::SeqCst);
        let state = self
            .done
            .wait_while(state, |_| self.running.load(Ordering::SeqCst) != 0)
            .unwrap_or_else(PoisonError::into_inner);
        self.caller_parked.store(false, Ordering::Relaxed);
        drop(state);
    }
}

/// The helper threads of one executor.
pub(crate) struct Helpers {
    shared: Arc<Shared>,
    /// Helper `i` is worker `i + 1`.
    threads: Vec<JoinHandle<()>>,
    /// Held for the whole of a batch, so concurrent callers take turns.
    turn: Mutex<()>,
}

impl fmt::Debug for Helpers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Helpers({} threads)", self.threads.len())
    }
}

impl Helpers {
    /// Spawns one helper per worker index in `1..workers`, stopping at the
    /// first thread that fails to spawn: the other workers' steal loops
    /// drain the deques of missing helpers, so a failed spawn costs
    /// parallelism, nothing else. With `spin`, waiting threads spin before
    /// they park; without it they park at once.
    pub(crate) fn spawn(workers: usize, spin: bool) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::default(),
            epoch: AtomicU64::new(0),
            running: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            caller_parked: AtomicBool::new(false),
            spin,
            wake: Condvar::new(),
            done: Condvar::new(),
        });
        let threads = (1..workers)
            .map_while(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("h2o-exec-{me}"))
                    .spawn(move || shared.serve(me))
                    .ok()
            })
            .collect();
        Self {
            shared,
            threads,
            turn: Mutex::new(()),
        }
    }

    /// Runs `work(me)` once for every worker `me < workers`: worker 0 on
    /// the calling thread, the others on their helpers. Returns when every
    /// share has stopped.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic any share reported, after every share
    /// stopped.
    #[allow(unsafe_code)]
    pub(crate) fn run_batch(&self, workers: usize, work: &(dyn Fn(usize) + Sync)) {
        let turn = self.turn.lock().unwrap_or_else(PoisonError::into_inner);
        let shared = &*self.shared;
        let taking_part = self.threads.len().min(workers.saturating_sub(1));
        // SAFETY: `erased` is `work` with its lifetime erased, and it is
        // only called while `work` is still borrowed. A helper calls it
        // only between reading the epoch bumped below, with `state.batch`
        // under the lock, and its decrement of `running`; a helper that
        // does not take part never calls it. This function neither
        // returns nor unwinds until it has read `running` back at zero,
        // which synchronizes with every helper's decrement, and has
        // cleared `state.batch`: its own share runs under `catch_unwind`,
        // a payload it does not keep is dropped only after that wait, and
        // nothing else before the wait can panic (lock poisoning is
        // ignored, not unwrapped).
        let erased = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Work>(work) };
        let any_parked = {
            let mut state = shared.lock();
            state.batch = Some((erased, workers));
            // Published by the epoch's release, which a spinning helper
            // acquires before it takes the lock and reads the batch.
            shared.running.store(taking_part, Ordering::Relaxed);
            shared.epoch.fetch_add(1, Ordering::Release);
            state.parked > 0
        };
        // A helper still spinning sees the new epoch by itself.
        if any_parked {
            shared.wake.notify_all();
        }
        // The first share to report a panic wins, the caller's included.
        let late = run_share(work, 0).err().and_then(|payload| {
            let mut state = shared.lock();
            match state.panic {
                None => {
                    state.panic = Some(payload);
                    None
                }
                Some(_) => Some(payload),
            }
        });
        shared.await_helpers();
        let first = {
            let mut state = shared.lock();
            state.batch = None;
            state.panic.take()
        };
        drop(turn);
        drop(late);
        if let Some(payload) = first {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for Helpers {
    fn drop(&mut self) {
        {
            let _state = self.shared.lock();
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.wake.notify_all();
        for thread in self.threads.drain(..) {
            // Every share runs under `catch_unwind`, so a helper cannot
            // end in a panic worth re-raising here.
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a deadline, so a regression fails rather than hangs"
    )]
    fn the_first_reported_panic_wins() {
        use std::time::{Duration, Instant};
        let helpers = Helpers::spawn(2, true);
        // Worker `first` panics at once; the other waits until that panic
        // is recorded (or a deadline passes, so a regression fails rather
        // than hangs), then panics too.
        for first in [0, 1] {
            let work = |me: usize| {
                let deadline = Instant::now() + Duration::from_secs(10);
                while me != first
                    && helpers.shared.lock().panic.is_none()
                    && Instant::now() < deadline
                {
                    std::thread::yield_now();
                }
                panic::panic_any(me);
            };
            let payload = panic::catch_unwind(AssertUnwindSafe(|| helpers.run_batch(2, &work)))
                .expect_err("both shares panicked");
            assert_eq!(payload.downcast_ref::<usize>(), Some(&first));
        }
    }
}
