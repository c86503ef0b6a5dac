//! Observation-only contract for the perf-trajectory instrumentation:
//! the phase/step/executor/simulator metrics added for the perf
//! observatory must never influence search *output*. A run against a
//! freshly reset registry and a run against a registry already warm with
//! prior measurements must produce byte-identical telemetry CSVs.
//!
//! Also pins the instrument names, so a rename in
//! `h2o-core`/`h2o-exec`/`h2o-hwsim` or in the `h2o` CLI fails here instead
//! of silently dropping a series from `--metrics-out` exports.

use h2o_nas::core::telemetry::{candidates_csv, history_csv};
use h2o_nas::core::{
    ArchEvaluator, EvalResult, ParallelStage, PerfObjective, RewardFn, RewardKind, SearchConfig,
    SearchDriver, SearchOutcome, PHASES,
};
use h2o_nas::eval::{BackendSpec, Domain, EvalBackend};
use h2o_nas::graph::{DType, Graph, OpKind};
use h2o_nas::hwsim::{arch_key, SystemConfig};
use h2o_nas::space::{ArchSample, Decision, SearchSpace};

fn space() -> SearchSpace {
    let mut s = SearchSpace::new("obs");
    s.push(Decision::new("m", 5));
    s.push(Decision::new("k", 4));
    s
}

fn sample_graph(sample: &ArchSample) -> Graph {
    let mut g = Graph::new("obs", DType::Bf16);
    g.add(
        OpKind::MatMul {
            m: 32 * (sample[0] + 1),
            k: 32 * (sample[1] + 1),
            n: 64,
        },
        &[],
    );
    g
}

fn evaluator(backend: &EvalBackend) -> impl ArchEvaluator + Send {
    let backend = backend.clone();
    move |sample: &ArchSample| {
        let cost = backend.training_cost(
            sample,
            arch_key("obs", sample),
            &SystemConfig::training_pod(),
            || sample_graph(sample),
        );
        EvalResult {
            quality: (cost.params / 1e6).ln_1p(),
            perf_values: vec![cost.latency],
        }
    }
}

fn run(workers: usize, cached: bool) -> SearchOutcome {
    let spec = if cached {
        BackendSpec::Cached { capacity: 256 }
    } else {
        BackendSpec::Simulator
    };
    let backend = EvalBackend::build(&spec, Domain::Dlrm).expect("backend builds");
    let cfg = SearchConfig {
        steps: 20,
        shards: 4,
        seed: 99,
        workers,
        ..Default::default()
    };
    SearchDriver::new(&space(), &reward(), cfg)
        .run(
            &mut ParallelStage::new(|_| evaluator(&backend), &cfg),
            None,
            None,
        )
        .expect("sinkless run")
}

fn reward() -> RewardFn {
    RewardFn::new(
        RewardKind::Relu,
        vec![PerfObjective::new("time", 1e-4, -6.0)],
    )
}

fn normalized_csvs(mut outcome: SearchOutcome) -> (String, String) {
    for record in &mut outcome.history {
        record.step_time_ms = 0.0;
    }
    (history_csv(&outcome), candidates_csv(&outcome))
}

#[test]
fn instrumentation_is_observation_only() {
    // Cold registry.
    h2o_nas::obs::reset();
    let cold = normalized_csvs(run(2, false));

    // Warm registry: histograms and counters already hold data from a
    // previous differently-shaped run (different worker count + cache).
    let _ = run(4, true);
    let warm = normalized_csvs(run(2, false));

    assert_eq!(
        cold.0, warm.0,
        "history CSV must not depend on registry state"
    );
    assert_eq!(
        cold.1, warm.1,
        "candidate CSV must not depend on registry state"
    );
}

#[test]
fn run_populates_the_observatory_instruments() {
    h2o_nas::obs::reset();
    let _ = run(2, true);
    let snap = h2o_nas::obs::snapshot();

    // Driver: one histogram per phase (checkpoint absent — no sink here)
    // plus the whole-step histogram.
    for phase in PHASES {
        let key = format!("h2o_core_phase_seconds{{phase=\"{phase}\"}}");
        if phase == "checkpoint" {
            assert!(
                !snap.histograms.contains_key(&key),
                "checkpoint histogram must only exist when a sink writes"
            );
        } else {
            assert!(snap.histograms.contains_key(&key), "missing {key}");
        }
    }
    assert!(snap.histograms.contains_key("h2o_core_step_seconds"));

    // Executor utilization (worker-labelled).
    assert!(snap
        .counters
        .keys()
        .any(|k| k.starts_with("h2o_exec_worker_jobs_total")));
    assert!(snap
        .histograms
        .keys()
        .any(|k| k.starts_with("h2o_exec_worker_busy_seconds")));

    // Simulator eval timing split by cache outcome.
    let evals = snap.counters.get("h2o_hwsim_evals_total").copied();
    assert!(evals.is_some_and(|n| n > 0), "evals_total missing or zero");
    assert!(snap
        .histograms
        .contains_key("h2o_hwsim_eval_seconds{result=\"miss\"}"));
    // 20 steps x 4 shards over a 20-point space guarantees repeats.
    assert!(snap
        .histograms
        .contains_key("h2o_hwsim_eval_seconds{result=\"hit\"}"));

    // No exporter turned span buffering on, so the spans above fed their
    // histograms (the path depends on which thread ran the job) but left
    // no events behind.
    assert!(snap
        .histograms
        .keys()
        .any(|k| k.starts_with("span_seconds{path=") && k.contains("shard_evaluate")));
    assert!(h2o_nas::obs::drain_spans().is_empty());
}

/// `h2o search --csv` times its CSV write as the `write_csvs` span, and
/// `--metrics-out`, written after the CSVs, exports that span's series.
#[test]
fn cli_exports_the_csv_write_span() {
    let dir = std::env::temp_dir().join(format!("h2o_perf_observatory_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the temp dir");
    let metrics = dir.join("run.prom");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_h2o"))
        .args([
            "search", "--domain", "dlrm", "--steps", "2", "--shards", "2",
        ])
        .arg("--csv")
        .arg(dir.join("run"))
        .arg("--metrics-out")
        .arg(&metrics)
        .output()
        .expect("h2o binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&metrics).expect("metrics written");
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        text.contains("span_seconds_count{path=\"write_csvs\"} 1\n"),
        "{text}"
    );
}
