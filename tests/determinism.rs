//! Determinism regression suite for the parallel evaluation executor and
//! the memoizing simulator cache (the executor's contract: same seed ⇒
//! byte-identical telemetry for any worker count, cache on or off).
//!
//! Wall-clock step timings are the one legitimately nondeterministic
//! column, so outcomes are normalized (timing zeroed) before the CSVs are
//! compared byte-for-byte.

use h2o_nas::ckpt::{CheckpointStore, FileCheckpointSink};
use h2o_nas::core::telemetry::{candidates_csv, history_csv};
use h2o_nas::core::{
    shard_seed, ArchEvaluator, CheckpointSink, EvalResult, ParallelStage, PerfObjective,
    ResumeState, RewardFn, RewardKind, SearchConfig, SearchDriver, SearchOutcome, SearchSnapshot,
};
use h2o_nas::eval::{BackendSpec, Domain, EvalBackend};
use h2o_nas::graph::{DType, Graph, OpKind};
use h2o_nas::hwsim::{arch_key, SystemConfig};
use h2o_nas::space::{ArchSample, Decision, SearchSpace};

fn space() -> SearchSpace {
    let mut s = SearchSpace::new("det");
    s.push(Decision::new("m", 6));
    s.push(Decision::new("k", 5));
    s.push(Decision::new("n", 4));
    s
}

fn reward() -> RewardFn {
    RewardFn::new(
        RewardKind::Relu,
        vec![PerfObjective::new("time", 1e-4, -6.0)],
    )
}

fn sample_graph(sample: &ArchSample) -> Graph {
    let mut g = Graph::new("det", DType::Bf16);
    g.add(
        OpKind::MatMul {
            m: 64 * (sample[0] + 1),
            k: 32 * (sample[1] + 1),
            n: 16 * (sample[2] + 1),
        },
        &[],
    );
    g
}

/// Zeroes the wall-clock column so the remaining telemetry can be compared
/// byte-for-byte across runs.
fn normalized_csvs(mut outcome: SearchOutcome) -> (String, String) {
    for record in &mut outcome.history {
        record.step_time_ms = 0.0;
    }
    (history_csv(&outcome), candidates_csv(&outcome))
}

fn det_cfg(workers: usize) -> SearchConfig {
    SearchConfig {
        steps: 30,
        shards: 6,
        policy_lr: 0.07,
        seed: 1234,
        workers,
        ..Default::default()
    }
}

/// Builds a fresh backend through the unified factory: the domain only
/// selects a pretraining space for the model backend, so the cached and
/// plain simulator backends work on this test's custom space too.
fn det_backend(cached: bool) -> EvalBackend {
    let spec = if cached {
        BackendSpec::Cached { capacity: 512 }
    } else {
        BackendSpec::Simulator
    };
    EvalBackend::build(&spec, Domain::Dlrm).expect("backend builds")
}

fn det_search(
    cfg: &SearchConfig,
    backend: &EvalBackend,
    resume: Option<ResumeState>,
    sink: Option<&mut dyn CheckpointSink>,
) -> SearchOutcome {
    let mut stage = ParallelStage::new(
        |_| {
            let backend = backend.clone();
            move |sample: &ArchSample| {
                let cost = backend.training_cost(
                    sample,
                    arch_key("det", sample),
                    &SystemConfig::training_pod(),
                    || sample_graph(sample),
                );
                EvalResult {
                    quality: (cost.params / 1e6).ln_1p(),
                    perf_values: vec![cost.latency],
                }
            }
        },
        cfg,
    );
    SearchDriver::new(&space(), &reward(), *cfg)
        .run(&mut stage, resume, sink)
        .expect("det search runs")
}

fn run_with(workers: usize, cached: bool) -> (String, String) {
    normalized_csvs(det_search(
        &det_cfg(workers),
        &det_backend(cached),
        None,
        None,
    ))
}

#[test]
fn workers_1_and_4_write_byte_identical_csvs() {
    let (hist_1, cand_1) = run_with(1, false);
    let (hist_4, cand_4) = run_with(4, false);
    assert_eq!(
        hist_1, hist_4,
        "history CSV must not depend on worker count"
    );
    assert_eq!(
        cand_1, cand_4,
        "candidate CSV must not depend on worker count"
    );
}

#[test]
fn cache_on_and_off_write_byte_identical_csvs() {
    let (hist_off, cand_off) = run_with(2, false);
    let backend = det_backend(true);
    let (hist_on, cand_on) = normalized_csvs(det_search(&det_cfg(2), &backend, None, None));
    assert_eq!(hist_off, hist_on, "memoization must be value-invisible");
    assert_eq!(cand_off, cand_on);
    // And the cache did real work: 30 steps x 6 shards over a 120-point
    // space guarantees repeats.
    let stats = backend.cache().expect("cached backend").stats();
    assert!(stats.hits > 0, "expected cache hits, got {stats:?}");
}

#[test]
fn cached_parallel_run_matches_uncached_serial_run() {
    // The strongest cross-configuration claim: (workers=4, cache on) is
    // byte-identical to (workers=1, cache off).
    let serial = run_with(1, false);
    let parallel = run_with(4, true);
    assert_eq!(serial, parallel);
}

/// A deliberately stateful evaluator: its output depends on how many times
/// it has been called. Shard pinning (evaluator `i` always runs job `i`)
/// is what keeps such evaluators deterministic under any worker count.
struct CountingEvaluator {
    shard: usize,
    calls: usize,
}

impl ArchEvaluator for CountingEvaluator {
    fn evaluate(&mut self, sample: &ArchSample) -> EvalResult {
        self.calls += 1;
        EvalResult {
            quality: (self.shard * 1000 + self.calls) as f64 + sample[0] as f64,
            perf_values: vec![1.0 + sample[1] as f64],
        }
    }
}

#[test]
fn stateful_evaluators_stay_pinned_to_their_shard() {
    let run = |workers: usize| {
        let cfg = SearchConfig {
            steps: 40,
            shards: 5,
            seed: 77,
            workers,
            ..Default::default()
        };
        let outcome = SearchDriver::new(&space(), &reward(), cfg)
            .run(
                &mut ParallelStage::new(|shard| CountingEvaluator { shard, calls: 0 }, &cfg),
                None,
                None,
            )
            .expect("sinkless run");
        normalized_csvs(outcome)
    };
    let a = run(1);
    let b = run(4);
    let c = run(8);
    assert_eq!(a, b, "stateful evaluator leaked schedule at 4 workers");
    assert_eq!(a, c, "stateful evaluator leaked schedule at 8 workers");
}

#[test]
fn serialized_executor_mode_matches_parallel() {
    // H2O_EXEC_SERIAL=1 forces in-order inline execution; per-process env
    // mutation is unsafe under parallel tests, so exercise the same path
    // via workers=1 (which the executor treats identically) against a wide
    // pool.
    let narrow = run_with(1, false);
    let wide = run_with(6, false);
    assert_eq!(narrow, wide);
}

#[test]
fn cli_binary_is_deterministic_across_worker_counts() {
    // End-to-end through the `h2o` binary: the same tiny search at
    // --workers 1 and --workers 4 must write identical candidate CSVs (the
    // history CSV's wall-clock column is stripped before comparison).
    let dir = std::env::temp_dir().join(format!("h2o_determinism_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let run = |workers: &str, stem: &str| {
        let stem_path = dir.join(stem);
        let status = std::process::Command::new(env!("CARGO_BIN_EXE_h2o"))
            .args([
                "search",
                "--domain",
                "dlrm",
                "--steps",
                "4",
                "--shards",
                "4",
                "--workers",
                workers,
                "--csv",
            ])
            .arg(&stem_path)
            .status()
            .expect("h2o binary runs");
        assert!(status.success(), "h2o search failed at workers={workers}");
        let read = |suffix: &str| {
            std::fs::read_to_string(dir.join(format!("{stem}{suffix}"))).expect("csv written")
        };
        let history: String = read("_history.csv")
            .lines()
            .map(|line| {
                let (rest, _timing) = line.rsplit_once(',').expect("timing column");
                format!("{rest}\n")
            })
            .collect();
        (history, read("_candidates.csv"))
    };
    let w1 = run("1", "w1");
    let w4 = run("4", "w4");
    assert_eq!(w1, w4, "CLI telemetry must not depend on --workers");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shard_seed_streams_are_pairwise_distinct() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;
    // Every (seed, step, shard) cell in a realistic grid must open a
    // distinct RNG stream: compare the first 8 draws bit-for-bit.
    let mut seen: BTreeMap<Vec<u64>, (u64, u64, u64)> = BTreeMap::new();
    for seed in 0..4u64 {
        for step in 0..3u64 {
            for shard in 0..6u64 {
                let mut rng = StdRng::seed_from_u64(shard_seed(seed, step, shard));
                let draws: Vec<u64> = (0..8).map(|_| rng.gen::<f64>().to_bits()).collect();
                if let Some(prev) = seen.insert(draws, (seed, step, shard)) {
                    panic!("stream of ({seed},{step},{shard}) collides with {prev:?}");
                }
            }
        }
    }
    // Regression: the old `seed ^ step << 20 ^ shard` mix collided whenever
    // the XOR of the parts matched — e.g. seed 3/shard 0 vs seed 2/shard 1.
    assert_ne!(shard_seed(3, 5, 0), shard_seed(2, 5, 1));
    assert_ne!(shard_seed(0, 0, 1), shard_seed(1, 0, 0));
}

#[test]
fn interrupted_search_resumes_byte_identically() {
    // The tentpole guarantee: a search killed after a checkpoint and
    // resumed from disk produces telemetry byte-identical to the
    // uninterrupted run — at every worker count, cache on or off.
    for workers in [1usize, 4] {
        for cache_on in [false, true] {
            let full = run_with(workers, cache_on);

            let dir = std::env::temp_dir().join(format!(
                "h2o_resume_{}_{workers}_{cache_on}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let cfg_full = det_cfg(workers);
            let cfg_cut = SearchConfig {
                steps: 12,
                ..cfg_full
            };
            let fingerprint = cfg_full.fingerprint(&space());
            assert_eq!(
                fingerprint,
                cfg_cut.fingerprint(&space()),
                "changing the horizon must not change the fingerprint"
            );

            // The "interrupted" run: 12 of 30 steps, snapshot every 4.
            let store = CheckpointStore::new(&dir, fingerprint).expect("store opens");
            let mut sink = FileCheckpointSink::new(store, 4);
            det_search(&cfg_cut, &det_backend(cache_on), None, Some(&mut sink));
            // The crash tore a log append that never got its snapshot.
            let mut log = std::fs::OpenOptions::new()
                .append(true)
                .open(sink.store().log_path())
                .expect("log opens");
            std::io::Write::write_all(&mut log, b"\x2a torn frame").expect("tail appends");

            // Crash. A fresh process re-opens the store and resumes; the
            // eval cache starts cold again, which must be value-invisible.
            let store = CheckpointStore::new(&dir, fingerprint).expect("store reopens");
            let state = store
                .load_latest()
                .expect("latest loads")
                .expect("a snapshot exists");
            assert_eq!(state.steps_done, 12);
            let resumed = normalized_csvs(det_search(
                &cfg_full,
                &det_backend(cache_on),
                Some(state),
                None,
            ));

            assert_eq!(
                full, resumed,
                "resume diverged at workers={workers} cache={cache_on}"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Captures the snapshot taken after exactly `at` completed steps.
struct CaptureAt {
    at: usize,
    state: Option<ResumeState>,
}

impl CheckpointSink for CaptureAt {
    fn should_checkpoint(&self, steps_done: usize) -> bool {
        steps_done == self.at
    }
    fn on_checkpoint(&mut self, snapshot: &SearchSnapshot<'_>) -> Result<(), String> {
        self.state = Some(ResumeState::from_snapshot(snapshot));
        Ok(())
    }
}

#[test]
fn oneshot_resume_restores_supernet_weights_bit_exactly() {
    use h2o_nas::core::{OneShotConfig, UnifiedStage};
    use h2o_nas::data::{CtrTraffic, CtrTrafficConfig, InMemoryPipeline};
    use h2o_nas::space::{DlrmSpaceConfig, DlrmSupernet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let make = || {
        let mut rng = StdRng::seed_from_u64(3);
        let supernet = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut rng);
        let pipeline = InMemoryPipeline::new(CtrTraffic::new(CtrTrafficConfig::tiny(), 1));
        (supernet, pipeline)
    };
    let cfg = OneShotConfig {
        steps: 8,
        shards: 2,
        batch_size: 16,
        ..Default::default()
    };
    let (mut supernet, pipeline) = make();
    let space = supernet.space().clone();
    let baseline_size = space.decode(&space.baseline()).model_size_bytes();
    let oneshot_reward = RewardFn::new(
        RewardKind::Relu,
        vec![PerfObjective::new("size", baseline_size, -2.0)],
    );
    let perf_space = space.clone();
    let perf = move |sample: &ArchSample| vec![perf_space.decode(sample).model_size_bytes()];

    let mut capture = CaptureAt { at: 5, state: None };
    let full = SearchDriver::new(space.space(), &oneshot_reward, cfg.controller())
        .run(
            &mut UnifiedStage::new(&mut supernet, &pipeline, &perf, &cfg),
            None,
            Some(&mut capture),
        )
        .expect("capturing sink never fails");
    let state = capture.state.expect("snapshot captured after step 5");
    assert!(
        state.supernet_state.is_some(),
        "one-shot snapshots must carry the shared weights"
    );

    // Crash. Resume on a *freshly constructed* supernet and pipeline — the
    // shared weights come back from the snapshot, the pipeline is
    // fast-forwarded to the same stream position.
    let (mut supernet2, pipeline2) = make();
    let resumed = SearchDriver::new(space.space(), &oneshot_reward, cfg.controller())
        .run(
            &mut UnifiedStage::new(&mut supernet2, &pipeline2, &perf, &cfg),
            Some(state),
            None,
        )
        .expect("the snapshot fits the search");
    assert_eq!(normalized_csvs(full), normalized_csvs(resumed));
    let stats = pipeline2.stats();
    assert_eq!(stats.fast_forwarded, 5 * 2, "5 steps x 2 shards replayed");
    assert_eq!(pipeline2.in_flight(), 0);
}

#[test]
fn cli_binary_resumes_byte_identically() {
    // End-to-end kill-and-resume through the `h2o` binary: full run vs
    // (truncated run + --resume), and vs (truncated run + a fresh shorter
    // run into the same directory + --resume), must write identical
    // candidate CSVs and history CSVs modulo the wall-clock column.
    let dir = std::env::temp_dir().join(format!("h2o_cli_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let run = |steps: &str, stem: Option<&str>, extra: &[&str]| {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_h2o"));
        cmd.args([
            "search", "--domain", "dlrm", "--steps", steps, "--shards", "4",
        ]);
        cmd.args(extra);
        if let Some(stem) = stem {
            cmd.arg("--csv").arg(dir.join(stem));
        }
        let status = cmd.status().expect("h2o binary runs");
        assert!(status.success(), "h2o search failed (steps={steps})");
    };
    let read = |stem: &str| {
        let text = |suffix: &str| {
            std::fs::read_to_string(dir.join(format!("{stem}{suffix}"))).expect("csv written")
        };
        let history: String = text("_history.csv")
            .lines()
            .map(|line| {
                let (rest, _timing) = line.rsplit_once(',').expect("timing column");
                format!("{rest}\n")
            })
            .collect();
        (history, text("_candidates.csv"))
    };
    run("6", Some("full"), &[]);
    // A run without --resume into a used directory starts over: the
    // 4-step run's snapshots must not outlive the log they point into.
    for (case, earlier) in [("cut", &["4"][..]), ("fresh_into_used", &["4", "2"][..])] {
        let ckpt_dir = dir.join(format!("{case}_ckpt"));
        let ckpt = ckpt_dir.to_str().expect("utf-8 path");
        let flags = ["--checkpoint-dir", ckpt, "--checkpoint-every", "2"];
        for steps in earlier {
            run(steps, None, &flags);
        }
        run("6", Some(case), &[&flags[..], &["--resume"]].concat());
        assert_eq!(
            read("full"),
            read(case),
            "CLI resume must reproduce the uninterrupted run ({case})"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
