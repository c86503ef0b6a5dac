//! `searchbench-trace` — the traced run of one search benchmark workload.
//!
//! Rebuilds, from the library's public API, the search that `h2o search`
//! runs for a workload, with timing wrappers at each layer boundary:
//! the candidate stage, the checkpoint sink, the one-shot super-network
//! and its data source, and an evaluator composed from the same calls
//! `EvalScenario::shard_evaluator` makes. It writes the same telemetry
//! CSVs as the CLI (the benchmark checks they are byte-identical), then
//! replays the policy trajectory to time `Policy::sample`,
//! `reinforce_update` and `mean_entropy`, and prints one JSON object:
//! `{"wall_s", "candidates", "check", "metrics"}`.
//!
//! ```text
//! searchbench-trace --mode sim|model|oneshot --steps N --shards N --workers N
//!                   --seed N --csv STEM
//! searchbench-trace --mode durable --steps N --shards N --seed N --csv STEM
//!                   --h2o BIN --nodes N --checkpoint-dir DIR --checkpoint-every K
//!                   --resume-at STEP --socket-dir DIR
//! ```
//!
//! `node-worker` processes of the durable mode are the real `h2o` binary
//! (`--h2o`); their own layers are out of reach, so that mode reports the
//! controller side plus the pool's `h2o_exec_node_roundtrip_seconds`.

mod record;
mod replay;

use h2o_nas::ckpt::{CheckpointStore, FileCheckpointSink};
use h2o_nas::core::{
    telemetry, ControllerConfig, DistributedStage, OneShotConfig, ParallelStage, PerfObjective,
    ResumeState, RewardFn, RewardKind, SearchConfig, SearchDriver, SearchOutcome, UnifiedStage,
};
use h2o_nas::data::{CtrTraffic, CtrTrafficConfig, InMemoryPipeline};
use h2o_nas::eval::{BackendSpec, EvalBackend, EvalScenario, ModelSpec};
use h2o_nas::exec::{DistributedPool, NodeAddr, PoolOptions};
use h2o_nas::hwsim::{arch_key, HardwareConfig, Simulator, SystemConfig};
use h2o_nas::models::quality::DlrmQualityModel;
use h2o_nas::perfmodel::{Featurizer, PerfModel, PerfTargets, TrainConfig};
use h2o_nas::space::{ArchSample, DlrmSpace, DlrmSpaceConfig, DlrmSupernet, SearchSpace};
use h2o_nas::tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use record::{
    elapsed_ns, step_table, CkptWrite, Layer, Log, SampleSite, StepMarks, StepTable, TimedSink,
    TimedSource, TimedStage, TimedSupernet,
};
use replay::{replay, same, Replay, Streams};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The `--budget-ms` default of `h2o search`, which the workloads keep.
const BUDGET_MS: f64 = 100.0;
/// The `--eval-cache-capacity` default of `h2o search`.
const CACHE_CAPACITY: usize = 4096;

struct Args {
    mode: String,
    steps: usize,
    shards: usize,
    workers: usize,
    seed: u64,
    csv: PathBuf,
    h2o: Option<PathBuf>,
    nodes: usize,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: usize,
    resume_at: usize,
    socket_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: HashMap<String, String> = HashMap::new();
    for pair in raw.chunks(2) {
        let key = pair[0]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got '{}'", pair[0]))?;
        let value = pair
            .get(1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
    }
    let num = |key: &str, default: Option<usize>| -> Result<usize, String> {
        match flags.get(key) {
            Some(v) => v.parse().map_err(|_| format!("bad --{key} '{v}'")),
            None => default.ok_or_else(|| format!("missing --{key}")),
        }
    };
    let path = |key: &str| flags.get(key).map(PathBuf::from);
    Ok(Args {
        mode: flags.get("mode").cloned().ok_or("missing --mode")?,
        steps: num("steps", None)?,
        shards: num("shards", None)?,
        workers: num("workers", Some(0))?,
        seed: num("seed", Some(0))? as u64,
        csv: path("csv").ok_or("missing --csv")?,
        h2o: path("h2o"),
        nodes: num("nodes", Some(0))?,
        checkpoint_dir: path("checkpoint-dir"),
        checkpoint_every: num("checkpoint-every", Some(10))?,
        resume_at: num("resume-at", Some(0))?,
        socket_dir: path("socket-dir").unwrap_or_else(|| PathBuf::from("sockets")),
    })
}

fn search_config(args: &Args, steps: usize) -> SearchConfig {
    // The controller knobs `h2o search` hard-codes.
    SearchConfig {
        steps,
        shards: args.shards,
        policy_lr: 0.06,
        baseline_momentum: 0.9,
        seed: args.seed,
        workers: args.workers,
    }
}

fn step_time_reward() -> RewardFn {
    RewardFn::new(
        RewardKind::Relu,
        vec![PerfObjective::new("step_time", BUDGET_MS / 1e3, -8.0)],
    )
}

/// The production DLRM space `h2o search --domain dlrm` searches.
fn dlrm_space() -> DlrmSpace {
    let mut config = DlrmSpaceConfig::production();
    config.tables.truncate(40);
    DlrmSpace::new(config)
}

/// The DLRM shard evaluator of `EvalScenario::shard_evaluator`, with each
/// call timed: decode, graph build, the backend's cost path, quality.
fn timed_evaluator(
    backend: &EvalBackend,
    log: Arc<Log>,
) -> impl FnMut(&ArchSample) -> h2o_nas::core::EvalResult + Send {
    let space = dlrm_space();
    let base = space.decode(&space.baseline());
    let quality_model = DlrmQualityModel::new(&base, 85.0);
    let backend = backend.clone();
    let served = backend.model_served().is_some();
    move |sample: &ArchSample| {
        let t = Instant::now();
        let arch = space.decode(sample);
        let decode_ns = elapsed_ns(t);
        let mut built: Option<(u64, usize)> = None;
        let t = Instant::now();
        let cost = backend.training_cost(
            sample,
            arch_key("dlrm", sample),
            &SystemConfig::training_pod(),
            || {
                let t = Instant::now();
                let graph = arch.build_graph(64, 128);
                built = Some((elapsed_ns(t), graph.len()));
                graph
            },
        );
        let cost_ns = elapsed_ns(t);
        let t = Instant::now();
        let quality = quality_model.quality(&arch);
        let quality_ns = elapsed_ns(t);
        match built {
            Some((build_ns, ops)) => {
                log.push(
                    true,
                    &[
                        (Layer::Decode, decode_ns),
                        (Layer::GraphBuild, build_ns),
                        (Layer::HwsimWalk, cost_ns.saturating_sub(build_ns)),
                        (Layer::Quality, quality_ns),
                    ],
                );
                log.push_graph_ops(ops);
            }
            None => {
                // Without a build the model answered (model backend) or the
                // cache did (cached backend).
                let layer = if served {
                    Layer::EvalPredict
                } else {
                    Layer::EvalLookup
                };
                log.push(
                    true,
                    &[
                        (Layer::Decode, decode_ns),
                        (layer, cost_ns),
                        (Layer::Quality, quality_ns),
                    ],
                );
            }
        }
        h2o_nas::core::EvalResult {
            quality,
            perf_values: vec![cost.latency],
        }
    }
}

/// Re-checks the quality and perf columns against the program's own
/// evaluation; `Some(message)` on the first difference.
type Recheck = Box<dyn FnOnce(&SearchOutcome) -> Result<Option<String>, String>>;

/// Everything a mode hands back for the layer table.
struct Traced {
    outcome: SearchOutcome,
    space: SearchSpace,
    reward: RewardFn,
    config: ControllerConfig,
    streams: Streams,
    site: SampleSite,
    marks: Vec<StepMarks>,
    ckpt: Vec<CkptWrite>,
    /// Search wall time: process start to CSVs written.
    wall_s: f64,
    /// Mode-specific metrics (backend statistics, set-up timings).
    extra: BTreeMap<&'static str, f64>,
    recheck: Recheck,
}

fn write_csvs(outcome: &SearchOutcome, stem: &Path) -> Result<(), String> {
    telemetry::write_csvs(outcome, stem).map_err(|e| format!("writing telemetry: {e}"))
}

/// Re-evaluates every candidate with `EvalScenario::shard_evaluator` over a
/// fresh backend and compares the quality and perf columns.
fn recheck_with_scenario(scenario: EvalScenario) -> Recheck {
    Box::new(move |outcome: &SearchOutcome| {
        let backend = scenario.backend()?;
        let mut evaluate = scenario.shard_evaluator(&backend);
        for (i, c) in outcome.evaluated.iter().enumerate() {
            let r = evaluate(&c.sample);
            let perf_same = r.perf_values.len() == c.result.perf_values.len()
                && r.perf_values
                    .iter()
                    .zip(&c.result.perf_values)
                    .all(|(&a, &b)| same(a, b));
            if !same(r.quality, c.result.quality) || !perf_same {
                return Ok(Some(format!(
                    "candidate {i}: quality/perf differ from the program's evaluator"
                )));
            }
        }
        Ok(None)
    })
}

fn run_parallel(args: &Args, log: &Arc<Log>, started: Instant) -> Result<Traced, String> {
    let spec = match args.mode.as_str() {
        "sim" => BackendSpec::Simulator,
        _ => BackendSpec::ModelServed {
            fallback_capacity: Some(CACHE_CAPACITY),
            model: ModelSpec::default(),
        },
    };
    let scenario = EvalScenario::new("dlrm", spec)?;
    let space = scenario.space();
    let config = search_config(args, args.steps);
    let reward = step_time_reward();
    let t = Instant::now();
    let backend = scenario.backend()?;
    let backend_s = t.elapsed().as_secs_f64();
    let stage = ParallelStage::new(|_| timed_evaluator(&backend, Arc::clone(log)), &config);
    let mut stage = TimedStage::new(stage, Arc::clone(log));
    let outcome = SearchDriver::new(&space, &reward, config)
        .run(&mut stage, None, None)
        .map_err(|e| e.to_string())?;
    stage.finish_leg(Instant::now());
    write_csvs(&outcome, &args.csv)?;
    let wall_s = started.elapsed().as_secs_f64();

    let mut extra = BTreeMap::new();
    let candidates = outcome.evaluated.len() as f64;
    if let Some(served) = backend.model_served() {
        extra.insert(
            "eval.served_ratio",
            served.stats().served as f64 / candidates,
        );
        extra.insert("perfmodel.pretrain_s", backend_s);
    }
    if let Some(cache) = backend.cache() {
        let s = cache.stats();
        let lookups = (s.hits + s.misses).max(1) as f64;
        extra.insert("hwsim.cache_hit_ratio", s.hits as f64 / lookups);
        extra.insert("hwsim.cache_evictions", s.evictions as f64);
    }
    Ok(Traced {
        outcome,
        space,
        reward,
        config,
        streams: Streams::PerShard,
        site: SampleSite::Parallel,
        marks: stage.marks,
        ckpt: Vec::new(),
        wall_s,
        extra,
        recheck: recheck_with_scenario(scenario),
    })
}

/// Waits briefly for workers that were sent Shutdown, then kills any
/// straggler, and reaps every process.
fn reap(workers: Vec<Child>) {
    for mut child in workers {
        let deadline = Instant::now() + Duration::from_secs(2);
        while matches!(child.try_wait(), Ok(None)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        if matches!(child.try_wait(), Ok(None)) {
            let _ = child.kill();
        }
        let _ = child.wait();
    }
}

/// One `h2o search --nodes N` process's worth of the durable workload:
/// spawn the `h2o node-worker`s, connect, run `SearchDriver`, shut down.
#[allow(clippy::too_many_arguments)]
fn durable_leg(
    args: &Args,
    leg: usize,
    scenario: &EvalScenario,
    space: &SearchSpace,
    reward: &RewardFn,
    config: SearchConfig,
    resume: Option<ResumeState>,
    sink: &mut TimedSink,
    log: &Arc<Log>,
) -> Result<(SearchOutcome, Vec<StepMarks>), String> {
    let h2o = args.h2o.as_ref().ok_or("--mode durable needs --h2o")?;
    std::fs::create_dir_all(&args.socket_dir)
        .map_err(|e| format!("creating {}: {e}", args.socket_dir.display()))?;
    let mut workers = Vec::with_capacity(args.nodes);
    let mut addrs = Vec::with_capacity(args.nodes);
    for node in 0..args.nodes {
        let sock = args.socket_dir.join(format!("leg{leg}-node{node}.sock"));
        let _ = std::fs::remove_file(&sock);
        let spawned = Command::new(h2o)
            .arg("node-worker")
            .arg("--addr")
            .arg(format!("unix:{}", sock.display()))
            .args(scenario.worker_args())
            .stdout(Stdio::null())
            .spawn();
        match spawned {
            Ok(child) => workers.push(child),
            Err(e) => {
                reap(workers);
                return Err(format!("spawning node {node}: {e}"));
            }
        }
        addrs.push(NodeAddr::Unix(sock));
    }
    let result = DistributedPool::connect(&addrs, scenario.fingerprint(), PoolOptions::default())
        .map_err(|e| e.to_string())
        .and_then(|pool| {
            let mut stage = TimedStage::new(DistributedStage::new(pool, &config), Arc::clone(log));
            let outcome =
                SearchDriver::new(space, reward, config).run(&mut stage, resume, Some(sink));
            stage.finish_leg(Instant::now());
            let marks = std::mem::take(&mut stage.marks);
            stage.inner.shutdown();
            Ok((outcome.map_err(|e| e.to_string())?, marks))
        });
    reap(workers);
    result
}

fn run_durable(args: &Args, log: &Arc<Log>, started: Instant) -> Result<Traced, String> {
    let scenario = EvalScenario::new(
        "dlrm",
        BackendSpec::Cached {
            capacity: CACHE_CAPACITY,
        },
    )?;
    let space = scenario.space();
    let reward = step_time_reward();
    let config = search_config(args, args.steps);
    if args.resume_at == 0 || args.resume_at >= args.steps {
        return Err("--resume-at must lie strictly inside the run".into());
    }
    let dir = args
        .checkpoint_dir
        .clone()
        .ok_or("--mode durable needs --checkpoint-dir")?;
    let fingerprint = config.fingerprint(&space) ^ scenario.value_fingerprint();
    let store = CheckpointStore::new(&dir, fingerprint).map_err(|e| e.to_string())?;
    let mut sink = TimedSink {
        inner: FileCheckpointSink::new(store, args.checkpoint_every),
        writes: Vec::new(),
    };
    let first = SearchConfig {
        steps: args.resume_at,
        ..config
    };
    let (_, mut marks) = durable_leg(
        args, 0, &scenario, &space, &reward, first, None, &mut sink, log,
    )?;

    let store = CheckpointStore::new(&dir, fingerprint).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let state = store
        .load_latest()
        .map_err(|e| format!("resuming from {}: {e}", dir.display()))?
        .ok_or("no checkpoint to resume from")?;
    let restore_ns = elapsed_ns(t);
    let (outcome, more) = durable_leg(
        args,
        1,
        &scenario,
        &space,
        &reward,
        config,
        Some(state),
        &mut sink,
        log,
    )?;
    marks.extend(more);
    write_csvs(&outcome, &args.csv)?;
    let wall_s = started.elapsed().as_secs_f64();

    let mut roundtrip = (0.0, 0u64);
    for node in 0..args.nodes {
        let h = h2o_nas::obs::histogram(&format!(
            "h2o_exec_node_roundtrip_seconds{{node=\"{node}\"}}"
        ));
        roundtrip.0 += h.sum();
        roundtrip.1 += h.count();
    }
    let mut extra = BTreeMap::new();
    extra.insert(
        "exec.node_roundtrip_us",
        roundtrip.0 / roundtrip.1.max(1) as f64 * 1e6,
    );
    extra.insert("ckpt.restore_us", restore_ns as f64 / 1e3);
    extra.insert("ckpt_mb", dir_bytes(&dir) as f64 / 1e6);
    Ok(Traced {
        outcome,
        space,
        reward,
        config,
        streams: Streams::PerShard,
        site: SampleSite::Serial,
        marks,
        ckpt: sink.writes,
        wall_s,
        extra,
        recheck: recheck_with_scenario(scenario),
    })
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Multiplies random matrices at the tiny DLRM super-network's widest MLP
/// layer shapes (batch 32) for about 50 ms; returns GFLOP/s.
fn matmul_gflops() -> f64 {
    const SHAPES: [(usize, usize, usize); 6] = [
        (32, 8, 36),
        (32, 36, 36),
        (32, 92, 52),
        (32, 52, 52),
        (32, 52, 36),
        (32, 36, 36),
    ];
    let pairs: Vec<(Matrix, Matrix)> = SHAPES
        .iter()
        .map(|&(m, k, n)| {
            let a = Matrix::from_fn(m, k, |i, j| ((i * 7 + j * 3) % 11) as f32 * 0.1);
            let b = Matrix::from_fn(k, n, |i, j| ((i * 5 + j) % 13) as f32 * 0.1);
            (a, b)
        })
        .collect();
    let flops_per_round: f64 = SHAPES
        .iter()
        .map(|&(m, k, n)| 2.0 * (m * k * n) as f64)
        .sum();
    let t = Instant::now();
    let mut rounds = 0u64;
    while t.elapsed() < Duration::from_millis(50) {
        for (a, b) in &pairs {
            std::hint::black_box(std::hint::black_box(a).matmul(b));
        }
        rounds += 1;
    }
    flops_per_round * rounds as f64 / t.elapsed().as_secs_f64() / 1e9
}

fn run_oneshot(args: &Args, log: &Arc<Log>, started: Instant) -> Result<Traced, String> {
    // The `h2o search --domain dlrm-oneshot` recipe, step for step: the
    // set-up RNG (seed 0) builds the supernet, then draws the perf-model
    // pretraining pool.
    let mut rng = StdRng::seed_from_u64(0);
    let supernet = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut rng);
    let dlrm = supernet.space().clone();
    let featurizer = Featurizer::from_space(dlrm.space());
    let t = Instant::now();
    let sim = Simulator::new(HardwareConfig::tpu_v4());
    let pool = 256;
    let mut xs = Vec::with_capacity(pool);
    let mut ys = Vec::with_capacity(pool);
    for _ in 0..pool {
        let sample = dlrm.space().sample_uniform(&mut rng);
        let graph = dlrm.decode(&sample).build_graph(64, 128);
        let training = sim
            .simulate_training(&graph, &SystemConfig::training_pod())
            .time;
        let serving = sim.simulate(&graph).time;
        xs.push(featurizer.featurize(&sample));
        ys.push(PerfTargets { training, serving });
    }
    let mut model = PerfModel::new(featurizer.dim(), &[32, 32], 0);
    model.pretrain(
        &xs,
        &ys,
        TrainConfig {
            epochs: 20,
            batch_size: 32,
            lr: 1e-3,
        },
    );
    let pretrain_s = t.elapsed().as_secs_f64();
    let mut times: Vec<f64> = ys.iter().map(|y| y.training).collect();
    times.sort_by(|a, b| a.total_cmp(b));
    let reward = RewardFn::new(
        RewardKind::Relu,
        vec![PerfObjective::new("train_step_time", times[pool / 2], -8.0)],
    );
    let pipeline = InMemoryPipeline::new(TimedSource {
        inner: CtrTraffic::new(CtrTrafficConfig::tiny(), 1),
        log: Arc::clone(log),
    });
    let oneshot = OneShotConfig {
        steps: args.steps,
        shards: args.shards,
        batch_size: 32,
        workers: args.workers,
        seed: args.seed,
        ..Default::default()
    };
    let perf_log = Arc::clone(log);
    let (model, featurizer) = (&model, &featurizer);
    let perf = move |sample: &ArchSample| {
        let t = Instant::now();
        let v = vec![model.predict(&featurizer.featurize(sample)).training];
        perf_log.push(true, &[(Layer::EvalPredict, elapsed_ns(t))]);
        v
    };
    let space = dlrm.space().clone();
    let config = oneshot.controller();
    let mut net = TimedSupernet::new(supernet, Arc::clone(log));
    let stage = UnifiedStage::new(&mut net, &pipeline, perf, &oneshot);
    let mut stage = TimedStage::new(stage, Arc::clone(log));
    let outcome = SearchDriver::new(&space, &reward, config)
        .run(&mut stage, None, None)
        .map_err(|e| e.to_string())?;
    stage.finish_leg(Instant::now());
    let marks = std::mem::take(&mut stage.marks);
    drop(stage);
    write_csvs(&outcome, &args.csv)?;
    let wall_s = started.elapsed().as_secs_f64();

    let mut extra = BTreeMap::new();
    extra.insert("perfmodel.pretrain_s", pretrain_s);
    extra.insert("eval.served_ratio", 1.0);
    extra.insert("tensor.matmul_gflops", matmul_gflops());
    // Performance values come from the pure perf model, so they can be
    // recomputed; quality came from supernet weights mid-training and is
    // checked through the CSV digest only.
    let mut perf_mismatch = None;
    for (i, c) in outcome.evaluated.iter().enumerate() {
        let p = model.predict(&featurizer.featurize(&c.sample)).training;
        if c.result.perf_values.len() != 1 || !same(p, c.result.perf_values[0]) {
            perf_mismatch = Some(format!("candidate {i}: perf_0 differs from the model"));
            break;
        }
    }
    Ok(Traced {
        outcome,
        space,
        reward,
        config,
        streams: Streams::PerStep,
        site: SampleSite::Serial,
        marks,
        ckpt: Vec::new(),
        wall_s,
        extra,
        recheck: Box::new(move |_| Ok(perf_mismatch)),
    })
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The per-layer metrics, named as in `BENCHMARK.json`'s `per_layer`.
fn layer_metrics(
    traced: &Traced,
    table: &StepTable,
    replayed: &Replay,
    graph_ops: &[usize],
) -> BTreeMap<&'static str, f64> {
    let candidates = traced.outcome.evaluated.len().max(1) as f64;
    let steps = replayed.times.len().max(1) as f64;
    let total = |layer| table.totals.get(&layer).copied().unwrap_or_default();
    let sum_ns =
        |f: fn(&record::PolicyTimes) -> u64| replayed.times.iter().map(f).sum::<u64>() as f64;
    let walks = total(Layer::HwsimWalk);
    let measured_ns = (total(Layer::GraphBuild).ns + walks.ns) as f64;
    let writes = &traced.ckpt;
    let ops: Vec<f64> = graph_ops.iter().map(|&n| n as f64).collect();
    let mut m = BTreeMap::new();
    m.insert(
        "policy.sample_us",
        sum_ns(|t| t.sample_ns) / candidates / 1e3,
    );
    m.insert(
        "policy.update_us",
        sum_ns(|t| t.update_ns) / candidates / 1e3,
    );
    m.insert("policy.entropy_us", sum_ns(|t| t.entropy_ns) / steps / 1e3);
    m.insert(
        "policy.share",
        table.policy_us / table.wall_us.max(f64::MIN_POSITIVE),
    );
    m.insert("space.decode_us", total(Layer::Decode).mean_us());
    m.insert("quality.us", total(Layer::Quality).mean_us());
    m.insert("graph.build_us", total(Layer::GraphBuild).mean_us());
    m.insert("graph.ops", mean(&ops));
    m.insert("hwsim.walk_us", walks.mean_us());
    m.insert("hwsim.walks", walks.calls as f64);
    m.insert("hwsim.cache_hit_ratio", 0.0);
    m.insert("hwsim.cache_evictions", 0.0);
    m.insert(
        "eval.measured_us",
        measured_ns / walks.calls.max(1) as f64 / 1e3,
    );
    m.insert("eval.lookedup_us", total(Layer::EvalLookup).mean_us());
    m.insert("eval.predicted_us", total(Layer::EvalPredict).mean_us());
    m.insert("eval.served_ratio", 0.0);
    m.insert("perfmodel.pretrain_s", 0.0);
    m.insert("exec.collect_overhead_us", table.collect_overhead_us);
    m.insert("exec.node_roundtrip_us", 0.0);
    m.insert(
        "ckpt.write_us",
        mean(&writes.iter().map(|w| w.ns as f64 / 1e3).collect::<Vec<_>>()),
    );
    m.insert(
        "ckpt.snapshot_kb",
        writes.last().map_or(0.0, |w| w.bytes as f64 / 1e3),
    );
    m.insert(
        "ckpt.growth",
        match (writes.first(), writes.last()) {
            (Some(first), Some(last)) => last.bytes as f64 / first.bytes as f64,
            _ => 0.0,
        },
    );
    m.insert("ckpt.restore_us", 0.0);
    m.insert("ckpt_mb", 0.0);
    m.insert(
        "supernet.train_us",
        total(Layer::SupernetTrain).ns as f64 / steps / 1e3,
    );
    m.insert("supernet.eval_us", total(Layer::SupernetEval).mean_us());
    m.insert("data.batch_us", total(Layer::DataBatch).mean_us());
    m.insert("tensor.matmul_gflops", 0.0);
    m.insert("step.wall_us", table.wall_us);
    m.insert("step.unattributed_us", table.unattributed_us);
    m.extend(traced.extra.iter().map(|(&k, &v)| (k, v)));
    m
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn run() -> Result<String, String> {
    let started = Instant::now();
    let args = parse_args()?;
    let log = Arc::new(Log::default());
    let traced = match args.mode.as_str() {
        "sim" | "model" => run_parallel(&args, &log, started)?,
        "durable" => run_durable(&args, &log, started)?,
        "oneshot" => run_oneshot(&args, &log, started)?,
        other => {
            return Err(format!(
                "unknown --mode '{other}' (sim|model|durable|oneshot)"
            ))
        }
    };
    let replayed = replay(
        &traced.outcome,
        &traced.space,
        &traced.reward,
        &traced.config,
        traced.streams,
    );
    let table = step_table(
        &traced.marks,
        &log.records(),
        &replayed.times,
        &traced.ckpt,
        traced.site,
    );
    let metrics = layer_metrics(&traced, &table, &replayed, &log.graph_ops());
    let Traced {
        outcome,
        wall_s,
        recheck,
        ..
    } = traced;
    let check = match replayed.mismatch {
        Some(message) => message,
        None => recheck(&outcome)?.unwrap_or_else(|| "ok".to_string()),
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, &v)| format!("{}:{}", json_string(k), json_number(v)))
        .collect();
    Ok(format!(
        "{{\"wall_s\":{},\"candidates\":{},\"check\":{},\"metrics\":{{{}}}}}",
        json_number(wall_s),
        outcome.evaluated.len(),
        json_string(&check),
        body.join(",")
    ))
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
