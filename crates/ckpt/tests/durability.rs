//! The store's durability contract, driven through `FileCheckpointSink` by
//! a synthetic search: checkpoint bytes grow linearly with run length, a
//! crash between the log append and the snapshot rename costs nothing on
//! resume, and a log that lost or changed bytes fails with a typed error.

use h2o_ckpt::{CheckpointStore, CkptError, FileCheckpointSink};
use h2o_core::{
    CheckpointSink, EvalResult, EvaluatedCandidate, Policy, ResumeState, RewardBaseline,
    SearchSnapshot, StepRecord,
};
use std::fs;
use std::path::{Path, PathBuf};

const SHARDS: usize = 8;
const FINGERPRINT: u64 = 0x5EED;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("h2o_ckpt_dur_{}_{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn sink(dir: &Path, every: usize) -> FileCheckpointSink {
    FileCheckpointSink::new(
        CheckpointStore::new(dir, FINGERPRINT).expect("store opens"),
        every,
    )
}

fn fresh_state() -> ResumeState {
    ResumeState {
        steps_done: 0,
        policy: Policy::from_logits(vec![vec![0.0; 4]; 6]),
        baseline: RewardBaseline::new(0.9),
        history: Vec::new(),
        evaluated: Vec::new(),
        supernet_state: None,
    }
}

/// Runs a synthetic search from `state` up to `steps` completed steps,
/// handing `sink` a snapshot whenever it asks. Every record is a function
/// of its step and shard alone, so a resumed run sees exactly the
/// snapshots an uninterrupted one does.
fn run(sink: &mut dyn CheckpointSink, state: &mut ResumeState, steps: usize) {
    for step in state.steps_done..steps {
        let x = step as f64;
        state.history.push(StepRecord {
            step,
            mean_reward: -1.0 / (1.0 + x),
            best_reward: x.sqrt(),
            entropy: 1.5 - x * 1e-3,
            step_time_ms: 2.0 + x * 0.25,
        });
        for shard in 0..SHARDS {
            state.evaluated.push(EvaluatedCandidate {
                sample: (0..6).map(|d| (step * 7 + shard * 3 + d) % 4).collect(),
                result: EvalResult {
                    quality: 0.5 + x * 1e-4,
                    perf_values: vec![1e3 * (shard + 1) as f64],
                },
                reward: x - shard as f64,
            });
        }
        state.policy = Policy::from_logits(vec![vec![x * 0.01, -x * 0.02, 0.5, x]; 6]);
        state.baseline.update(-x);
        state.steps_done = step + 1;
        if sink.should_checkpoint(state.steps_done) {
            sink.on_checkpoint(&state.as_snapshot())
                .expect("checkpoint writes");
        }
    }
}

/// Sizes of the snapshot files and of the whole directory.
fn sizes(dir: &Path) -> (Vec<u64>, u64) {
    let mut snapshots = Vec::new();
    let mut total = 0;
    for entry in fs::read_dir(dir).expect("dir lists") {
        let entry = entry.expect("dir entry");
        let len = entry.metadata().expect("metadata").len();
        if entry.file_name().to_string_lossy().starts_with("ckpt-") {
            snapshots.push(len);
        }
        total += len;
    }
    (snapshots, total)
}

#[test]
fn checkpoint_bytes_grow_linearly_with_run_length() {
    // Measured on disk, not through h2o_ckpt_bytes_written_total: tests
    // running in parallel share the metrics registry.
    let measure = |name: &str, steps: usize| {
        let dir = temp_dir(name);
        run(&mut sink(&dir, 5), &mut fresh_state(), steps);
        let measured = sizes(&dir);
        let _ = fs::remove_dir_all(&dir);
        measured
    };
    let (short, short_total) = measure("short", 40);
    let (long, long_total) = measure("long", 400);
    assert_eq!((short.len(), long.len()), (8, 80));
    assert!(
        short.iter().chain(&long).all(|&len| len == short[0]),
        "every snapshot must have the same size whatever its step: {short:?} {long:?}"
    );
    let growth = long_total as f64 / short_total as f64;
    assert!(
        (9.0..11.0).contains(&growth),
        "a 10x longer run wrote {growth:.1}x the bytes ({short_total} -> {long_total})"
    );
}

#[test]
fn a_crash_past_the_latest_snapshot_resumes_and_is_overwritten() {
    // The uninterrupted run the crashed ones must reproduce byte for byte.
    let reference = temp_dir("crash_ref");
    run(&mut sink(&reference, 2), &mut fresh_state(), 8);
    let mut at_6 = fresh_state();
    run(&mut NoSink, &mut at_6, 6);

    for (case, junk) in [("orphan", None), ("torn", Some(&b"\x07torn"[..]))] {
        let dir = temp_dir(case);
        let mut crashed = sink(&dir, 2);
        let mut state = fresh_state();
        run(&mut crashed, &mut state, 8);
        // A crash after the step-8 log fsync but before the rename: the log
        // holds a frame no snapshot covers, and possibly torn bytes.
        fs::remove_file(crashed.store().path_for(8)).expect("drop the step-8 snapshot");
        let log_path = crashed.store().log_path();
        if let Some(junk) = junk {
            let mut log = fs::read(&log_path).expect("log reads");
            log.truncate(log.len() - 3);
            log.extend_from_slice(junk);
            fs::write(&log_path, log).expect("tear the log");
        }

        let mut resumed = sink(&dir, 2);
        let mut state = resumed
            .store()
            .load_latest()
            .expect("latest loads")
            .expect("a snapshot exists");
        assert_eq!(
            state, at_6,
            "{case}: resume must see exactly the step-6 state"
        );
        run(&mut resumed, &mut state, 8);
        for name in ["ckpt.log", "ckpt-00000008.h2o"] {
            assert_eq!(
                fs::read(dir.join(name)).expect("written"),
                fs::read(reference.join(name)).expect("written"),
                "{case}: {name} must match the uninterrupted run's"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&reference);
}

/// A sink that never checkpoints, to run the synthetic search in memory.
struct NoSink;

impl CheckpointSink for NoSink {
    fn should_checkpoint(&self, _steps_done: usize) -> bool {
        false
    }

    fn on_checkpoint(&mut self, _snapshot: &SearchSnapshot<'_>) -> Result<(), String> {
        Ok(())
    }
}

#[test]
fn a_short_or_flipped_log_fails_load_latest_typed() {
    let dir = temp_dir("bad_log");
    let mut writer = sink(&dir, 2);
    let log_path = writer.store().log_path();
    run(&mut writer, &mut fresh_state(), 4);
    let good = fs::read(&log_path).expect("log reads");
    let load = || CheckpointStore::new(&dir, FINGERPRINT)?.load_latest();

    for cut in [0, 1, 8, good.len() / 2, good.len() - 1] {
        fs::write(&log_path, &good[..cut]).expect("shorten the log");
        assert_eq!(load(), Err(CkptError::Truncated), "log cut to {cut} bytes");
    }
    for i in 0..good.len() {
        let mut bad = good.clone();
        bad[i] ^= 0x10;
        fs::write(&log_path, &bad).expect("flip a log byte");
        let err = load().expect_err("a flipped byte must not load");
        assert!(
            matches!(err, CkptError::ChecksumMismatch | CkptError::Corrupt(_)),
            "byte {i}: unexpected error {err:?}"
        );
    }
    fs::write(&log_path, &good).expect("restore the log");
    assert_eq!(load().map(|s| s.map(|s| s.steps_done)), Ok(Some(4)));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_fresh_run_into_a_used_directory_starts_over() {
    let dir = temp_dir("fresh");
    run(&mut sink(&dir, 2), &mut fresh_state(), 6);
    // Without --resume: the log starts over, so the snapshots of the old
    // run, which point into its frames, must go.
    let mut fresh = sink(&dir, 2);
    run(&mut fresh, &mut fresh_state(), 2);
    assert_eq!(fresh.store().latest_step(), Ok(Some(2)));
    let mut expected = fresh_state();
    run(&mut NoSink, &mut expected, 2);
    let loaded = CheckpointStore::new(&dir, FINGERPRINT).and_then(|s| s.load_latest());
    assert_eq!(loaded, Ok(Some(expected)));
    let _ = fs::remove_dir_all(&dir);
}
