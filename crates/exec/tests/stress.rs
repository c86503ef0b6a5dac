//! Concurrency stress tests for the executor (mirrors
//! `crates/obs/tests/concurrency.rs`): overlapping batches from many
//! producers must lose nothing and duplicate nothing, the helper threads
//! must persist across batches and shut down cleanly, and borrowing,
//! panicking and nested jobs must keep their scoped-thread semantics.
//! The spin/park tests drive both sides of the hand-off: batches
//! published while the helper still spins, and after it has parked.

use h2o_exec::Executor;
use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

const PRODUCERS: usize = 8;
const BATCHES_PER_PRODUCER: usize = 20;
const JOBS_PER_BATCH: usize = 37;

/// Worker count for stress runs; honours the CI matrix's `H2O_WORKERS`.
fn workers() -> usize {
    h2o_exec::resolve_workers(0, 4)
}

#[test]
fn overlapping_batches_from_many_producers_lose_nothing() {
    let exec = Arc::new(Executor::new(workers().max(2)));
    let executed = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for producer in 0..PRODUCERS {
            let exec = Arc::clone(&exec);
            let executed = &executed;
            s.spawn(move || {
                for batch in 0..BATCHES_PER_PRODUCER {
                    let results = exec.map((0..JOBS_PER_BATCH).collect(), |_, job| {
                        executed.fetch_add(1, Ordering::SeqCst);
                        // A value unique across all producers/batches/jobs.
                        (producer, batch, job)
                    });
                    // No loss, no duplication, no cross-batch bleed: each
                    // producer sees exactly its own jobs, in order.
                    let own: Vec<_> = (0..JOBS_PER_BATCH).map(|j| (producer, batch, j)).collect();
                    assert_eq!(results, own);
                }
            });
        }
    });
    assert_eq!(
        executed.into_inner(),
        PRODUCERS * BATCHES_PER_PRODUCER * JOBS_PER_BATCH,
        "every job executed exactly once"
    );
}

thread_local! {
    /// A clone of a test's token, parked by a thread that ran a job and
    /// released only when that thread exits.
    static HELD: RefCell<Option<Arc<()>>> = const { RefCell::new(None) };
}

#[test]
#[expect(
    clippy::disallowed_types,
    reason = "ThreadId is not Ord, so the threads seen go in a HashSet"
)]
#[expect(
    clippy::disallowed_methods,
    reason = "bounds how long dropping the executor may take"
)]
fn helpers_persist_across_batches_and_join_on_drop() {
    use std::collections::HashSet;
    let caller = std::thread::current().id();
    let exec = Executor::new(2);
    let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
    for _ in 0..500 {
        exec.map(vec![(); 8], |_, ()| {
            seen.lock().unwrap().insert(std::thread::current().id());
        });
    }
    // Only the caller and the one helper ran jobs: no batch spawned threads.
    let seen = seen.into_inner().unwrap();
    assert!(
        seen.len() <= 2 && seen.contains(&caller),
        "jobs ran on {seen:?}"
    );

    // Two jobs meeting at a barrier must run on both threads at once, so
    // the helper runs one of them and parks a clone of `token`.
    let token = Arc::new(());
    let meet = Barrier::new(2);
    exec.map(vec![(); 2], |_, ()| {
        meet.wait();
        HELD.with(|held| *held.borrow_mut() = Some(Arc::clone(&token)));
    });
    HELD.with(|held| held.borrow_mut().take()); // the caller's own clone
    assert_eq!(Arc::strong_count(&token), 2, "the helper holds one clone");
    let start = Instant::now();
    drop(exec);
    let took = start.elapsed();
    assert!(took < Duration::from_secs(5), "drop took {took:?}");
    // A thread's locals are destroyed before `join` returns.
    assert_eq!(Arc::strong_count(&token), 1, "the helper was not joined");
}

#[test]
fn job_panic_reraises_after_the_rest_of_the_batch() {
    const JOBS: usize = 16;
    let exec = Executor::new(workers().max(2));
    // Job 0 starts on the caller's deque, job 1 on a helper's.
    for panicking in [0, 1] {
        let ran = AtomicUsize::new(0);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            exec.map((0..JOBS).collect(), |_, i| {
                if i == panicking {
                    panic!("job {i} failed");
                }
                ran.fetch_add(1, Ordering::SeqCst);
            })
        }));
        let payload = outcome.expect_err("the job panic must reach the caller");
        let own_payload = format!("job {panicking} failed");
        assert_eq!(payload.downcast_ref::<String>(), Some(&own_payload));
        assert_eq!(ran.load(Ordering::SeqCst), JOBS - 1, "every other job ran");
        // The executor survives: the next batch runs normally.
        let clean = exec.map((0..JOBS as u64).collect(), |_, x| x * x);
        assert_eq!(clean, (0..JOBS as u64).map(|x| x * x).collect::<Vec<_>>());
    }
}

#[test]
fn jobs_borrow_the_callers_stack() {
    // Each job holds a disjoint `&mut` into a Vec on this stack; a job run
    // twice, or not at all, leaves its cell wrong.
    let mut cells = vec![0usize; 500];
    let jobs: Vec<_> = cells
        .iter_mut()
        .enumerate()
        .map(|(i, cell)| move || *cell += i + 1)
        .collect();
    Executor::new(8).execute(jobs);
    assert!(cells.iter().enumerate().all(|(i, &cell)| cell == i + 1));
}

#[test]
fn nested_batches_run_inline() {
    // The outer jobs meet at a barrier, so one nests from the caller and one
    // from the helper; neither may wait on the executor they are part of.
    let exec = Executor::new(2);
    let meet = Barrier::new(2);
    let sums = exec.map(vec![1u64, 2], |_, x| {
        meet.wait();
        let inner = exec.map((0..4u64).collect(), |_, y| x * 10 + y);
        inner.into_iter().sum::<u64>()
    });
    assert_eq!(sums, vec![46, 86]);
}

#[test]
fn separate_executors_are_deterministic_under_contention() {
    // Many executors, each on its own thread, hammering the same process
    // must not interfere: each returns its own batch in submission order.
    std::thread::scope(|s| {
        for round in 0..PRODUCERS {
            s.spawn(move || {
                let exec = Executor::new(4);
                let expect: Vec<u64> = (0..100u64).map(|x| x * 31 + round as u64).collect();
                for _ in 0..10 {
                    let got = exec.map((0..100u64).collect(), |_, x| x * 31 + round as u64);
                    assert_eq!(got, expect);
                }
            });
        }
    });
}

#[test]
fn tiny_batches_never_deadlock_the_steal_path() {
    // Regression: workers used to hold their own queue lock while locking a
    // victim's queue to steal (a guard-lifetime bug), so several workers
    // going empty simultaneously formed a hold-and-wait cycle and the pool
    // hung. Trivial jobs drain the queues almost instantly, making every
    // worker a would-be thief — thousands of rounds reliably tripped the
    // old cycle, while the fixed lock discipline must run them all.
    let exec = Executor::new(4);
    for round in 0..4_000u64 {
        let got = exec.map((0..8u64).collect(), |_, x| x ^ round);
        assert_eq!(got.len(), 8);
    }
}

#[test]
fn mixed_cost_jobs_still_reduce_in_order() {
    let exec = Executor::new(workers().max(2));
    // Heavily skewed job costs force steals; results must stay ordered.
    let out = exec.map((0..256usize).collect(), |i, _| {
        let spin = if i % 16 == 0 { 200_000 } else { 10 };
        let mut acc = i as u64;
        for _ in 0..spin {
            acc = acc
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        std::hint::black_box(acc);
        i
    });
    assert_eq!(out, (0..256).collect::<Vec<_>>());
}

/// How long a spin/park test may take before it counts as hung.
const DEADLINE: Duration = Duration::from_secs(60);

/// Well past the executor's spin budget of about 25 µs, so a helper idle
/// this long has parked.
const PAUSE: Duration = Duration::from_millis(2);

/// Runs `body` on a thread of its own and fails if it has not finished by
/// [`DEADLINE`], so a lost wake fails the test instead of hanging it. A
/// panic in `body` is re-raised.
fn within_deadline(body: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    match finished.recv_timeout(DEADLINE) {
        Err(RecvTimeoutError::Timeout) => panic!("not done within {DEADLINE:?}: a wake was lost"),
        Ok(()) | Err(RecvTimeoutError::Disconnected) => {
            if let Err(payload) = runner.join() {
                panic::resume_unwind(payload);
            }
        }
    }
}

/// Runs one batch of two jobs that meet at a barrier, so the helper must
/// run one of them, and returns the thread each job ran on.
fn meeting_batch(exec: &Executor) -> Vec<ThreadId> {
    let meet = Barrier::new(2);
    exec.map(vec![(); 2], |_, ()| {
        meet.wait();
        std::thread::current().id()
    })
}

#[test]
fn back_to_back_batches_inside_the_spin_window() {
    within_deadline(|| {
        let exec = Executor::new(2);
        let caller = std::thread::current().id();
        for round in 0..2_000u64 {
            // The helper reports and spins; the next batch is published
            // while it does.
            let threads = meeting_batch(&exec);
            assert!(threads.contains(&caller) && threads[0] != threads[1]);
            let got = exec.map((0..8u64).collect(), |_, x| x ^ round);
            assert_eq!(got, (0..8u64).map(|x| x ^ round).collect::<Vec<_>>());
        }
    });
}

#[test]
fn batches_after_a_pause_take_the_parked_path() {
    within_deadline(|| {
        let exec = Executor::new(2);
        for _ in 0..50 {
            // The helper has parked: publishing must wake it, or the
            // barrier never opens.
            std::thread::sleep(PAUSE);
            meeting_batch(&exec);
            // The caller's share ends at once while the helper's job runs
            // past the budget, so the caller parks and the helper's report
            // must wake it.
            let meet = Barrier::new(2);
            let out = exec.map(vec![0u64, 1], |_, x| {
                meet.wait();
                if std::thread::current().name() == Some("h2o-exec-1") {
                    std::thread::sleep(PAUSE);
                }
                x * 2
            });
            assert_eq!(out, vec![0, 2]);
        }
    });
}

#[test]
fn a_parking_executor_wakes_its_helper_for_every_batch() {
    within_deadline(|| {
        // Its helper parks as soon as it has reported, so every publish
        // must wake it, or the barrier never opens.
        let exec = Executor::parking(2);
        for round in 0..500u64 {
            meeting_batch(&exec);
            let got = exec.map((0..8u64).collect(), |_, x| x ^ round);
            assert_eq!(got, (0..8u64).map(|x| x ^ round).collect::<Vec<_>>());
        }
    });
}

#[test]
fn dropping_an_executor_while_its_helpers_spin_joins_them() {
    within_deadline(|| {
        for _ in 0..200 {
            let exec = Executor::new(2);
            meeting_batch(&exec);
            // The helper has just reported and spins on the next epoch:
            // it must see shutdown there and exit, or this join hangs.
            drop(exec);
        }
        // A helper that never ran a batch is still in its first spin.
        for _ in 0..200 {
            drop(Executor::new(2));
        }
    });
}

#[test]
fn a_job_panic_on_a_spinning_helper_reaches_the_caller() {
    within_deadline(|| {
        let exec = Executor::new(2);
        let caller = std::thread::current().id();
        for _ in 0..20 {
            meeting_batch(&exec);
            // Published while the helper spins. The caller's job waits at
            // the barrier, so it cannot steal job 1: the helper runs it.
            let meet = Barrier::new(2);
            let ran_on = Mutex::new(None);
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                exec.map(vec![0usize, 1], |_, i| {
                    meet.wait();
                    if i == 1 {
                        *ran_on.lock().unwrap() = Some(std::thread::current().id());
                        panic!("job {i} failed");
                    }
                })
            }));
            let payload = outcome.expect_err("the helper's panic must reach the caller");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("job 1 failed")
            );
            let helper = ran_on.into_inner().unwrap().expect("job 1 ran");
            assert_ne!(helper, caller, "job 1 ran on the helper");
        }
        // The executor survives and still uses its helper.
        assert_eq!(
            exec.map((0..16u64).collect(), |_, x| x + 1),
            (1..17).collect::<Vec<_>>()
        );
        meeting_batch(&exec);
    });
}
