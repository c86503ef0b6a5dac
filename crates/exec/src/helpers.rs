//! The executor's helper threads: spawned once, parked on a condvar
//! between batches, joined on drop.

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// A published batch with its lifetime erased: called once per worker
/// taking part, with that worker's index.
type Work = &'static (dyn Fn(usize) + Sync);

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
    /// Bumped each time a batch is published.
    epoch: u64,
    /// The published batch and how many workers take part in it, the
    /// caller included; `None` between batches.
    batch: Option<(Work, usize)>,
    /// Helpers taking part that have not reported back yet.
    running: usize,
    /// The first panic any share of this batch reported.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    /// Wakes the helpers: a batch was published, or shutdown began.
    wake: Condvar,
    /// Wakes the caller: the last running helper reported back.
    done: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Helper `me`'s life: run its share of every batch it takes part in,
    /// report back, and return on shutdown.
    fn serve(&self, me: usize) {
        let mut seen = 0;
        loop {
            let outcome = {
                let state = self
                    .wake
                    .wait_while(self.lock(), |s| !s.shutdown && s.epoch == seen)
                    .unwrap_or_else(PoisonError::into_inner);
                if state.shutdown {
                    return;
                }
                seen = state.epoch;
                // A batch with fewer workers than helpers leaves the
                // highest-numbered helpers out; they were not counted.
                let Some((work, _)) = state.batch.filter(|&(_, workers)| me < workers) else {
                    continue;
                };
                drop(state);
                run_share(work, me)
            };
            let mut state = self.lock();
            if let Err(payload) = outcome {
                state.panic.get_or_insert(payload);
            }
            state.running -= 1;
            if state.running == 0 {
                self.done.notify_one();
            }
        }
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
    /// parallelism, nothing else.
    pub(crate) fn spawn(workers: usize) -> Self {
        let shared = Arc::new(Shared::default());
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
        let taking_part = self.threads.len().min(workers.saturating_sub(1));
        // SAFETY: `erased` is `work` with its lifetime erased, and it is
        // only called while `work` is still borrowed. Helpers call it only
        // between reading it from `state` for this epoch and decrementing
        // `running`. This function neither returns nor unwinds until
        // `running` is back at zero and `state.batch` is cleared: its own
        // share runs under `catch_unwind`, a payload it does not keep is
        // dropped only after that wait, and nothing else before the wait
        // can panic (lock poisoning is ignored, not unwrapped).
        let erased = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Work>(work) };
        {
            let mut state = self.shared.lock();
            state.epoch += 1;
            state.batch = Some((erased, workers));
            state.running = taking_part;
        }
        self.shared.wake.notify_all();
        let own = run_share(work, 0);
        let mut state = self.shared.lock();
        // The first share to report a panic wins, the caller's included.
        let late = match own {
            Err(payload) if state.panic.is_none() => {
                state.panic = Some(payload);
                None
            }
            own => own.err(),
        };
        let mut state = self
            .shared
            .done
            .wait_while(state, |s| s.running > 0)
            .unwrap_or_else(PoisonError::into_inner);
        state.batch = None;
        let first = state.panic.take();
        drop(state);
        drop(turn);
        drop(late);
        if let Some(payload) = first {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for Helpers {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
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
        let helpers = Helpers::spawn(2);
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
