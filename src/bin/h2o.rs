//! `h2o` — command-line interface to the H2O-NAS reproduction.
//!
//! ```text
//! h2o spaces                                        list search spaces and sizes
//! h2o simulate --model coatnet-5 --hw tpuv4         simulate a named model
//! h2o roofline --hw tpuv4i                          platform roofline + fusion crossover
//! h2o search --domain cnn --budget-ms 100           run a hardware-aware search
//! ```
//!
//! Argument parsing is hand-rolled (the workspace's dependency set is
//! intentionally small); every subcommand prints plain text.

#![warn(clippy::todo, clippy::unreachable)]

use h2o_nas::ckpt::{CheckpointStore, FileCheckpointSink};
use h2o_nas::core::{
    CheckpointSink, DistributedStage, ParallelStage, PerfObjective, ResumeState, RewardFn,
    RewardKind, SearchConfig, SearchDriver, SearchOutcome,
};
use h2o_nas::distributed::NodeCluster;
use h2o_nas::eval::{EvalBackend, EvalScenario};
use h2o_nas::exec::{DistributedPool, NodeAddr, PoolOptions};
use h2o_nas::graph::Graph;
use h2o_nas::hwsim::{HardwareConfig, Simulator, SystemConfig};
use h2o_nas::models::coatnet::CoAtNet;
use h2o_nas::models::efficientnet::EfficientNet;
use h2o_nas::space::{
    ArchSample, CnnSpace, CnnSpaceConfig, DlrmSpace, DlrmSpaceConfig, VitSpace, VitSpaceConfig,
};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write as _};
use std::process::ExitCode;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

const USAGE: &str = "\
h2o — Hyperscale Hardware Optimized NAS (ASPLOS'23 reproduction)

USAGE:
  h2o spaces
  h2o simulate --model <NAME> [--hw <tpuv3|tpuv4|tpuv4i|v100|a100|h100>] [--batch N] [--serving]
  h2o simulate --hlo <FILE> --batch N [--hw ...] [--serving]  simulate a textual HLO graph
  h2o dump --model <NAME> [--batch N]                     print a model as textual HLO
  h2o roofline [--hw <tpuv3|tpuv4|tpuv4i|v100|a100|h100>]
  h2o sweep --model <NAME> [--hw ...] [--batches 1,8,64,256] [--load 0.7]
  h2o search --domain <cnn|dlrm|vit|dlrm-oneshot> [--budget-ms X] [--steps N] [--shards N]
             [--workers N] [--eval-backend sim|cached|model]
             [--gate-threshold X] [--finetune-cadence N]
             [--csv STEM] [--metrics-out FILE] [--trace-out FILE]
             [--checkpoint-dir DIR] [--checkpoint-every K] [--resume]
             [--nodes N | --nodes addr,addr,...] [--node-timeout-ms X]
             [--node-retries N] [--min-live-nodes N]
  h2o node-worker --addr <unix:PATH|tcp:HOST:PORT> --domain <cnn|dlrm|vit>
             [--eval-backend sim|cached|model] [--gate-threshold X]
             [--finetune-cadence N] [--chaos-exit-after N]

  --eval-backend selects how candidate costs are produced: 'sim' walks
  the roofline simulator per candidate, 'cached' (the default) memoizes
  those walks in a 4096-entry cache, and 'model' (dlrm only) serves
  in-distribution candidates from the pretrained MLP performance model,
  falling back to the cached simulator when the novelty gate exceeds
  --gate-threshold and fine-tuning a refined model every
  --finetune-cadence distinct fallback measurements.

  --nodes N spawns N local node-worker subprocesses on Unix sockets;
  --nodes with addresses connects to already-running workers. Search
  outcomes are byte-identical for any node count — node deaths are
  absorbed by redispatching unfinished jobs to survivors (spawn-managed
  workers are also respawned, up to --node-retries times per death). The
  run only fails once fewer than --min-live-nodes workers remain.

  A flag that its subcommand does not list above is an error, and so is
  one the run would never read: --checkpoint-every or --resume without
  --checkpoint-dir, --node-timeout-ms, --node-retries or --min-live-nodes
  without --nodes, and any backend flag on dlrm-oneshot.

MODELS:
  coatnet-0..coatnet-5, coatnet-h0..coatnet-h5,
  efficientnet-x-b0..b7, efficientnet-h-b0..b7, dlrm, dlrm-h
";

/// The error that stopped standard output, once one has.
static STDOUT_FAILED: OnceLock<io::Error> = OnceLock::new();

/// Writes to standard output. `print!` panics when a write fails, as it
/// does once the reader of a pipe has exited (`h2o dump ... | head`); after
/// a failed write this drops all further output instead, and the command
/// runs to completion, so a search still writes its CSV and metrics files.
/// [`main`] reports any failure other than a closed pipe.
fn write_stdout(args: fmt::Arguments) {
    if STDOUT_FAILED.get().is_none() {
        if let Err(e) = io::stdout().lock().write_fmt(args) {
            let _ = STDOUT_FAILED.set(e);
        }
    }
}

/// Writes to standard error. `eprint!` panics when a write fails, as it
/// does once stderr is a closed pipe; there is nowhere left to report that,
/// so the failure is dropped and the exit code alone tells it.
fn write_stderr(args: fmt::Arguments) {
    let _ = io::stderr().lock().write_fmt(args);
}

/// `println!` through [`write_stdout`].
macro_rules! say {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got '{}'", args[i]))?;
        if i + 1 < args.len() && !args[i + 1].starts_with("--") {
            flags.insert(key.to_string(), args[i + 1].clone());
            i += 2;
        } else {
            flags.insert(key.to_string(), "true".to_string());
            i += 1;
        }
    }
    Ok(flags)
}

/// The value of `--name` parsed as a `T`, or `None` when the flag is absent.
fn parse_flag<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    name: &str,
) -> Result<Option<T>, String> {
    flags
        .get(name)
        .map(|s| s.parse().map_err(|_| format!("bad --{name}")))
        .transpose()
}

/// The `--batch` of `simulate` and `dump`: 64 when absent, never 0 (an
/// empty batch simulates no work, and its HLO would not parse back).
fn batch_flag(flags: &BTreeMap<String, String>) -> Result<usize, String> {
    match parse_flag(flags, "batch")?.unwrap_or(64) {
        0 => Err("--batch must be at least 1".into()),
        batch => Ok(batch),
    }
}

fn hardware(flags: &BTreeMap<String, String>) -> Result<HardwareConfig, String> {
    let name = flags.get("hw").map(String::as_str).unwrap_or("tpuv4");
    HardwareConfig::by_name(name).ok_or_else(|| format!("unknown hardware '{name}'"))
}

/// Looks a named model up; the returned closure builds its graph at a
/// batch size.
fn find_model(name: &str) -> Option<Box<dyn Fn(usize) -> Graph>> {
    let lname = name.to_ascii_lowercase();
    let named = |model: &str| model.to_ascii_lowercase() == lname;
    if let Some(m) = CoAtNet::family()
        .into_iter()
        .chain(CoAtNet::h_family())
        .find(|m| named(&m.name))
    {
        return Some(Box::new(move |batch| m.build_graph(batch)));
    }
    if let Some(m) = EfficientNet::x_family()
        .into_iter()
        .chain(EfficientNet::h_family())
        .find(|m| named(&m.name))
    {
        return Some(Box::new(move |batch| m.build_graph(batch)));
    }
    let dlrm = match lname.as_str() {
        "dlrm" => h2o_nas::models::dlrm::baseline(),
        "dlrm-h" => h2o_nas::models::dlrm::h_variant(),
        _ => return None,
    };
    Some(Box::new(move |batch| dlrm.build_graph(batch, 128)))
}

fn cmd_spaces() {
    say!("search spaces (Table 5):");
    let rows = [
        (
            "cnn",
            CnnSpace::new(CnnSpaceConfig::default()).space().clone(),
        ),
        (
            "dlrm",
            DlrmSpace::new(DlrmSpaceConfig::production())
                .space()
                .clone(),
        ),
        (
            "transformer",
            VitSpace::new(VitSpaceConfig::pure()).space().clone(),
        ),
        (
            "hybrid-vit",
            VitSpace::new(VitSpaceConfig::hybrid()).space().clone(),
        ),
    ];
    for (name, space) in rows {
        say!(
            "  {name:12} {:>4} decisions   O(10^{:.1}) candidates",
            space.num_decisions(),
            space.log10_size()
        );
    }
}

fn load_graph(flags: &BTreeMap<String, String>, batch: usize) -> Result<Graph, String> {
    if let Some(path) = flags.get("hlo") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        return h2o_nas::graph::text::parse(&text).map_err(|e| format!("parsing {path}: {e}"));
    }
    let model = flags.get("model").ok_or("missing --model or --hlo")?;
    let build = find_model(model).ok_or_else(|| format!("unknown model '{model}'"))?;
    Ok(build(batch))
}

fn cmd_dump(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let batch = batch_flag(flags)?;
    let graph = load_graph(flags, batch)?;
    write_stdout(format_args!("{}", h2o_nas::graph::text::to_text(&graph)));
    Ok(())
}

fn cmd_simulate(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let batch = batch_flag(flags)?;
    let graph = load_graph(flags, batch)?;
    // The HLO text records no batch size, and the throughput line divides
    // by it, so a graph read from a file needs the one it was dumped at.
    if flags.contains_key("hlo") && !flags.contains_key("batch") {
        return Err("--hlo needs --batch: the HLO text does not record the batch size".into());
    }
    let hw = hardware(flags)?;
    let sim = Simulator::new(hw.clone());
    let serving = flags.contains_key("serving");
    let pod = SystemConfig::training_pod();
    let system = (!serving).then_some(&pod);
    let report = match system {
        None => sim.simulate(&graph),
        Some(system) => sim.simulate_training(&graph, system),
    };
    say!(
        "{} on {} (batch {batch}, {}):",
        graph.name(),
        hw.name,
        if serving {
            "serving"
        } else {
            "training step, 128-chip pod"
        }
    );
    say!("  time            : {:.3} ms", report.time * 1e3);
    say!(
        "  throughput      : {:.0} examples/s/chip",
        batch as f64 / report.time
    );
    say!(
        "  compute         : {:.1} TFLOPs at {:.1} TFLOPS achieved",
        report.flops / 1e12,
        report.achieved_flops_rate / 1e12
    );
    say!(
        "  MXU utilization : {:.0}%",
        report.mxu_utilization() * 100.0
    );
    say!(
        "  HBM traffic     : {:.2} GB ({:.0} GB/s)",
        report.hbm_bytes / 1e9,
        report.hbm_bw_used / 1e9
    );
    say!(
        "  CMEM traffic    : {:.2} GB ({:.0} GB/s)",
        report.cmem_bytes / 1e9,
        report.cmem_bw_used / 1e9
    );
    say!("  ICI traffic     : {:.2} GB", report.ici_bytes / 1e9);
    say!(
        "  power           : {:.0} W  energy {:.2} J",
        report.avg_power,
        report.energy
    );
    say!("  params          : {:.1} M", report.params / 1e6);
    let breakdown = sim.breakdown(&graph, system);
    let mut slowest: Vec<(&String, &f64)> = breakdown.iter().collect();
    slowest.sort_by(|a, b| b.1.total_cmp(a.1));
    say!("  top op classes  :");
    for (label, t) in slowest.iter().take(4) {
        say!("    {label:20} {:.3} ms", **t * 1e3);
    }
    Ok(())
}

fn cmd_sweep(flags: &BTreeMap<String, String>) -> Result<(), String> {
    use h2o_nas::hwsim::sweep::{batch_sweep, ServingLoadModel};
    let hw = hardware(flags)?;
    let model = flags.get("model").ok_or("missing --model")?;
    let build = find_model(model).ok_or_else(|| format!("unknown model '{model}'"))?;
    let batches: Vec<usize> = flags
        .get("batches")
        .map(String::as_str)
        .unwrap_or("1,4,16,64,256")
        .split(',')
        .map(|s| match s.trim().parse() {
            Ok(0) | Err(_) => Err(format!("bad batch '{s}' (must be a positive integer)")),
            Ok(batch) => Ok(batch),
        })
        .collect::<Result<_, _>>()?;
    let load: f64 = parse_flag(flags, "load")?.unwrap_or(0.7);
    if !(0.0..1.0).contains(&load) {
        return Err(format!("--load must be in [0, 1), got {load}"));
    }
    let queue = ServingLoadModel::new(load);
    let sim = Simulator::new(hw.clone());
    let points = batch_sweep(&sim, build, &batches);
    say!(
        "{model} serving sweep on {} (queueing load {:.0}%):",
        hw.name,
        load * 100.0
    );
    say!("  batch | latency (ms) | P99@load (ms) | qps      | MXU util | J/example");
    for p in points {
        say!(
            "  {:>5} | {:>12.3} | {:>13.3} | {:>8.0} | {:>7.0}% | {:.4}",
            p.batch,
            p.latency * 1e3,
            queue.p99_sojourn(p.latency) * 1e3,
            p.throughput,
            p.mxu_utilization * 100.0,
            p.energy_per_example
        );
    }
    Ok(())
}

fn cmd_roofline(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let hw = hardware(flags)?;
    say!(
        "{}: peak {:.0} TFLOPS, HBM {:.0} GB/s, CMEM {:.0} MB @ {:.1} TB/s, ridge {:.0} FLOPs/B",
        hw.name,
        hw.peak_flops / 1e12,
        hw.hbm_bw / 1e9,
        hw.cmem_capacity / 1e6,
        hw.cmem_bw / 1e12,
        hw.ridge_intensity()
    );
    let sim = Simulator::new(hw);
    say!("\nMBConv dynamic-fusion crossover (56x56 feature map, batch 8):");
    for depth in [16usize, 32, 64, 128, 256] {
        use h2o_nas::graph::blocks::{fused_mbconv, mbconv, MbConvConfig};
        use h2o_nas::graph::{DType, OpKind};
        let time_of = |fused: bool| {
            let cfg = MbConvConfig::square(56, depth, 8);
            let mut g = Graph::new("b", DType::Bf16);
            let input = g.add(OpKind::Reshape { elems: 1 }, &[]);
            if fused {
                fused_mbconv(&mut g, &cfg, input);
            } else {
                mbconv(&mut g, &cfg, input);
            }
            g.fuse_elementwise();
            sim.simulate(&g).time
        };
        let (t_mbc, t_fused) = (time_of(false), time_of(true));
        say!(
            "  depth {depth:>3}: MBC {:>8.1} us  F-MBC {:>8.1} us  -> {}",
            t_mbc * 1e6,
            t_fused * 1e6,
            if t_fused < t_mbc {
                "fuse"
            } else {
                "don't fuse"
            }
        );
    }
    Ok(())
}

/// Writes the global metrics snapshot (Prometheus text) and the buffered
/// span trace (Chrome trace-event JSON) if the flags ask for them.
fn export_observability(flags: &BTreeMap<String, String>) -> Result<(), String> {
    if let Some(path) = flags.get("metrics-out") {
        let text = h2o_nas::obs::export::to_prometheus(&h2o_nas::obs::snapshot());
        std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
        say!("metrics written to {path}");
    }
    if let Some(path) = flags.get("trace-out") {
        let events = h2o_nas::obs::drain_spans();
        let json = h2o_nas::obs::export::to_chrome_trace(&events);
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        say!(
            "trace written to {path} ({} spans; open in Perfetto)",
            events.len()
        );
    }
    Ok(())
}

/// Builds the checkpoint sink and resume state requested by the
/// `--checkpoint-dir` / `--checkpoint-every` / `--resume` flags, for a
/// search whose config fingerprints to `fingerprint`. Returns
/// `(None, None)` when checkpointing is off. Whether the resume state fits
/// the run's `--steps` is checked by `SearchDriver::run`.
fn checkpoint_setup(
    flags: &BTreeMap<String, String>,
    fingerprint: u64,
) -> Result<(Option<FileCheckpointSink>, Option<ResumeState>), String> {
    let every: usize = parse_flag(flags, "checkpoint-every")?.unwrap_or(10);
    if every == 0 {
        return Err("--checkpoint-every must be at least 1".into());
    }
    let Some(dir) = flags.get("checkpoint-dir") else {
        return Ok((None, None));
    };
    let store =
        CheckpointStore::new(dir, fingerprint).map_err(|e| format!("opening {dir}: {e}"))?;
    let state = if flags.contains_key("resume") {
        let state = store
            .load_latest()
            .map_err(|e| format!("resuming from {dir}: {e}"))?
            .ok_or_else(|| format!("--resume: no checkpoint found in {dir}"))?;
        say!("resuming from {dir} at step {}", state.steps_done);
        Some(state)
    } else {
        None
    };
    say!("checkpointing to {dir} every {every} steps");
    Ok((Some(FileCheckpointSink::new(store, every)), state))
}

/// Runs the search over a pool of worker processes instead of in-process
/// threads: spawn or connect the nodes, handshake on the scenario
/// fingerprint, then drive the same `SearchDriver` loop through a
/// `DistributedStage`. The outcome is byte-identical to the in-process
/// path for any node count — including runs where nodes die and their
/// jobs are redispatched. Spawn-managed clusters additionally get a
/// respawner hook so the pool can revive dead workers
/// (bounded by `--node-retries`).
#[allow(clippy::too_many_arguments)]
fn run_distributed(
    scenario: &EvalScenario,
    space: &h2o_nas::space::SearchSpace,
    reward: &RewardFn,
    cfg: SearchConfig,
    nodes_spec: &str,
    pool_options: PoolOptions,
    resume_state: Option<ResumeState>,
    sink: Option<&mut dyn CheckpointSink>,
) -> Result<SearchOutcome, String> {
    let (cluster, addrs) = if let Ok(count) = nodes_spec.parse::<usize>() {
        let cluster = NodeCluster::spawn(count, scenario)?;
        let addrs = cluster.addrs().to_vec();
        (Some(Arc::new(Mutex::new(cluster))), addrs)
    } else {
        let addrs = nodes_spec
            .split(',')
            .map(|s| NodeAddr::parse(s.trim()).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        (None, addrs)
    };
    say!(
        "distributed: {} node process(es), io timeout {:?}, node retries {}, min live nodes {}",
        addrs.len(),
        pool_options.io_timeout,
        pool_options.max_node_retries,
        pool_options.min_live_nodes,
    );
    let mut pool = DistributedPool::connect(&addrs, scenario.fingerprint(), pool_options)
        .map_err(|e| e.to_string())?;
    if let Some(cluster) = &cluster {
        // Spawn-managed workers are revivable: hand the pool a hook that
        // respawns a dead worker and reports where to reconnect.
        // Externally managed workers (address-list mode) have no such
        // hook; the pool degrades to the survivors instead.
        let respawner = Arc::clone(cluster);
        pool.set_respawner(Box::new(move |node| {
            respawner
                .lock()
                .map_err(|_| "node cluster lock poisoned".to_string())?
                .respawn(node)
        }));
    }
    let mut stage = DistributedStage::new(pool, &cfg);
    let result = SearchDriver::new(space, reward, cfg).run(&mut stage, resume_state, sink);
    stage.shutdown();
    if let Some(cluster) = cluster {
        if let Ok(mut cluster) = cluster.lock() {
            cluster.shutdown();
        }
    }
    result.map_err(|e| e.to_string())
}

/// Prints the end-of-run evaluation report for an in-process backend:
/// model serving statistics (when model-served) and fallback/eval cache
/// statistics (when memoizing).
fn report_backend(backend: &EvalBackend) {
    if let Some(served) = backend.model_served() {
        let stats = served.stats();
        say!(
            "model served: {} served / {} fallback ({:.0}% served), {} finetune rounds, \
             {} measurements buffered",
            stats.served,
            stats.fallback,
            stats.served_share() * 100.0,
            stats.finetune_rounds,
            stats.buffered
        );
        if let Some((frozen, refined)) = served.buffer_nrmse() {
            say!(
                "model refinement: training-head NRMSE on fallback ground truth \
                 {frozen:.3} frozen -> {refined:.3} refined"
            );
        }
    }
    if let Some(cache) = backend.cache() {
        let s = cache.stats();
        say!(
            "eval cache: {} hits / {} misses ({:.0}% hit rate), {} evictions, {} entries resident",
            s.hits,
            s.misses,
            s.hit_rate() * 100.0,
            s.evictions,
            s.entries
        );
    }
}

fn cmd_node_worker(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let addr = flags.get("addr").ok_or("missing --addr")?;
    let domain = flags.get("domain").ok_or("missing --domain")?;
    let backend = EvalScenario::parse_backend_flags(|name| flags.get(name).map(String::as_str))?;
    let chaos_exit_after: Option<usize> = parse_flag(flags, "chaos-exit-after")?;
    let scenario = EvalScenario::new(domain, backend)?;
    h2o_nas::distributed::run_worker(addr, scenario, chaos_exit_after, |resolved| {
        say!("node-worker listening {resolved}")
    })
}

fn cmd_search(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let domain = flags.get("domain").ok_or("missing --domain")?.as_str();
    // Flags that only a checkpointing or a multi-process run reads are an
    // error without the flag that turns that mode on.
    for (flag, mode) in [
        ("checkpoint-every", "checkpoint-dir"),
        ("resume", "checkpoint-dir"),
        ("node-timeout-ms", "nodes"),
        ("node-retries", "nodes"),
        ("min-live-nodes", "nodes"),
    ] {
        if flags.contains_key(flag) && !flags.contains_key(mode) {
            return Err(format!("--{flag} requires --{mode}"));
        }
    }
    // The global tracer keeps span events only for a trace export.
    if flags.contains_key("trace-out") {
        h2o_nas::obs::span::global().set_buffering(true);
    }
    let steps: usize = parse_flag(flags, "steps")?.unwrap_or(120);
    let shards: usize = parse_flag(flags, "shards")?.unwrap_or(8);
    let budget_ms: f64 = parse_flag(flags, "budget-ms")?.unwrap_or(100.0);
    if !budget_ms.is_finite() || budget_ms <= 0.0 {
        return Err(format!("--budget-ms must be positive, got {budget_ms}"));
    }
    let budget = budget_ms / 1e3;
    let workers: usize = parse_flag(flags, "workers")?.unwrap_or(0);
    let backend_spec =
        EvalScenario::parse_backend_flags(|name| flags.get(name).map(String::as_str))?;
    // --nodes switches candidate evaluation from in-process threads to
    // worker subprocesses; either an integer (auto-spawn that many local
    // Unix-socket workers) or a comma-separated address list.
    let nodes_spec = flags.get("nodes").cloned();
    let node_timeout_ms: u64 = parse_flag(flags, "node-timeout-ms")?.unwrap_or(30_000);
    if node_timeout_ms == 0 {
        return Err("--node-timeout-ms must be at least 1".into());
    }
    let node_timeout = Duration::from_millis(node_timeout_ms);
    let pool_defaults = PoolOptions::default();
    let node_retries: usize =
        parse_flag(flags, "node-retries")?.unwrap_or(pool_defaults.max_node_retries);
    let min_live_nodes: usize =
        parse_flag(flags, "min-live-nodes")?.unwrap_or(pool_defaults.min_live_nodes);
    let pool_options = PoolOptions {
        io_timeout: node_timeout,
        max_node_retries: node_retries,
        min_live_nodes,
        ..pool_defaults
    };
    let cfg = SearchConfig {
        steps,
        shards,
        policy_lr: 0.06,
        baseline_momentum: 0.9,
        seed: 0,
        workers,
    };
    let reward = RewardFn::new(
        RewardKind::Relu,
        vec![PerfObjective::new("step_time", budget, -8.0)],
    );
    say!("searching {domain} space: {steps} steps x {shards} shards, step budget {budget_ms} ms");
    let csv_stem = flags.get("csv").cloned();
    let maybe_export = |outcome: &h2o_nas::core::SearchOutcome| -> Result<(), String> {
        if let Some(stem) = &csv_stem {
            h2o_nas::obs::time("write_csvs", || {
                h2o_nas::core::telemetry::write_csvs(outcome, std::path::Path::new(stem))
            })
            .map_err(|e| format!("writing telemetry: {e}"))?;
            say!("telemetry written to {stem}_history.csv / {stem}_candidates.csv");
        }
        Ok(())
    };

    match domain {
        // The stateless-evaluator domains share one code path: the same
        // EvalScenario builds the evaluator for in-process shards and for
        // worker subprocesses, so the two modes cannot drift apart.
        "cnn" | "dlrm" | "vit" => {
            let scenario = EvalScenario::new(domain, backend_spec)?;
            let space = scenario.space();
            // The backend's value-affecting parameters (model gate, seed,
            // cadence — never cache capacity) are part of checkpoint
            // identity: a model-served run must not resume a sim run.
            let (mut sink, resume_state) = checkpoint_setup(
                flags,
                cfg.fingerprint(&space) ^ scenario.value_fingerprint(),
            )?;
            let outcome = match &nodes_spec {
                Some(spec) => run_distributed(
                    &scenario,
                    &space,
                    &reward,
                    cfg,
                    spec,
                    pool_options,
                    resume_state,
                    sink.as_mut().map(|s| s as &mut dyn CheckpointSink),
                )?,
                None => {
                    // One backend per process, cloned into every shard:
                    // clones share cache storage and fine-tuning state.
                    let backend = scenario.backend()?;
                    let outcome = SearchDriver::new(&space, &reward, cfg)
                        .run(
                            &mut ParallelStage::new(|_| scenario.shard_evaluator(&backend), &cfg),
                            resume_state,
                            sink.as_mut().map(|s| s as &mut dyn CheckpointSink),
                        )
                        .map_err(|e| e.to_string())?;
                    report_backend(&backend);
                    outcome
                }
            };
            maybe_export(&outcome)?;
            say!("{}", scenario.describe_best(&outcome.best));
        }
        "dlrm-oneshot" if nodes_spec.is_some() => {
            return Err(
                "--nodes does not support dlrm-oneshot: the one-shot search trains a shared \
                 supernet, which cannot be sharded across stateless worker processes"
                    .into(),
            );
        }
        "dlrm-oneshot" => {
            if let Some(flag) = EvalScenario::BACKEND_FLAGS
                .into_iter()
                .find(|name| flags.contains_key(*name))
            {
                return Err(format!(
                    "--{flag} does not apply to dlrm-oneshot: the one-shot search scores \
                     candidates with its own supernet-trained performance model"
                ));
            }
            // The full §4 loop on a small scale: DLRM super-network +
            // use-once pipeline + simulator-pretrained performance model,
            // exercising core, data, hwsim and perfmodel in one run.
            use h2o_nas::core::{OneShotConfig, UnifiedStage};
            use h2o_nas::data::{CtrTraffic, CtrTrafficConfig, InMemoryPipeline};
            use h2o_nas::perfmodel::{Featurizer, PerfModel, PerfTargets, TrainConfig};
            use h2o_nas::space::{DlrmSpaceConfig, DlrmSupernet};
            use rand::rngs::StdRng;
            use rand::SeedableRng;

            let mut rng = StdRng::seed_from_u64(0);
            let mut supernet = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut rng);
            let space = supernet.space().clone();
            let featurizer = Featurizer::from_space(space.space());

            // Pretrain the performance model on simulator-labelled samples
            // (§6.2: the paper uses ~1M; a few hundred suffice here).
            let sim = Simulator::new(HardwareConfig::tpu_v4());
            let pool = 256;
            let mut xs = Vec::with_capacity(pool);
            let mut ys = Vec::with_capacity(pool);
            for _ in 0..pool {
                let sample = space.space().sample_uniform(&mut rng);
                let graph = space.decode(&sample).build_graph(64, 128);
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
            say!("perf model pretrained on {pool} simulator-labelled candidates");

            // Search with model predictions as the performance signal.
            // Without --budget-ms the CTR budget is the median simulated
            // step time of the pretraining pool.
            let mut times: Vec<f64> = ys.iter().map(|y| y.training).collect();
            times.sort_by(|a, b| a.total_cmp(b));
            let target = if flags.contains_key("budget-ms") {
                budget
            } else {
                times[pool / 2]
            };
            let oneshot_reward = RewardFn::new(
                RewardKind::Relu,
                vec![PerfObjective::new("train_step_time", target, -8.0)],
            );
            let pipeline = InMemoryPipeline::new(CtrTraffic::new(CtrTrafficConfig::tiny(), 1));
            let oneshot_cfg = OneShotConfig {
                steps,
                shards,
                batch_size: 32,
                workers,
                ..Default::default()
            };
            let perf =
                |sample: &ArchSample| vec![model.predict(&featurizer.featurize(sample)).training];
            // The perf-model pretrain above is deterministic (fixed seed 0),
            // so a resumed run reconstructs the identical model and only the
            // supernet weights + controller state come from the checkpoint.
            let (mut sink, resume_state) =
                checkpoint_setup(flags, oneshot_cfg.fingerprint(space.space()))?;
            let outcome =
                SearchDriver::new(space.space(), &oneshot_reward, oneshot_cfg.controller())
                    .run(
                        &mut UnifiedStage::new(&mut supernet, &pipeline, perf, &oneshot_cfg),
                        resume_state,
                        sink.as_mut().map(|s| s as &mut dyn CheckpointSink),
                    )
                    .map_err(|e| e.to_string())?;
            maybe_export(&outcome)?;
            let stats = pipeline.stats();
            let best = space.decode(&outcome.best);
            say!(
                "pipeline: {} batches served, {} policy-used, {} weights-used, {} in flight",
                stats.produced,
                stats.policy_used,
                stats.weights_used,
                pipeline.in_flight()
            );
            say!(
                "best: {} tables totalling {:.2}M embedding params, size {:.2} MB, predicted step {:.3} ms",
                best.tables.len(),
                best.embedding_params() / 1e6,
                best.model_size_bytes() / 1e6,
                model.predict(&featurizer.featurize(&outcome.best)).training * 1e3,
            );
        }
        other => {
            return Err(format!(
                "unknown domain '{other}' (cnn|dlrm|vit|dlrm-oneshot)"
            ))
        }
    }
    export_observability(flags)?;
    Ok(())
}

/// Runs one subcommand. Each subcommand lists the flags it reads; any
/// other flag is an error before the command does any work, so a typo or a
/// retired flag never runs with defaults.
fn run(cmd: &str, args: &[String]) -> Result<(), String> {
    type Command = fn(&BTreeMap<String, String>) -> Result<(), String>;
    let backend = EvalScenario::BACKEND_FLAGS;
    let (known, command): (Vec<&str>, Command) = match cmd {
        "spaces" => (vec![], |_| {
            cmd_spaces();
            Ok(())
        }),
        "simulate" => (vec!["hlo", "model", "batch", "hw", "serving"], cmd_simulate),
        "dump" => (vec!["hlo", "model", "batch"], cmd_dump),
        "roofline" => (vec!["hw"], cmd_roofline),
        "sweep" => (vec!["model", "hw", "batches", "load"], cmd_sweep),
        "search" => {
            let own = [
                "domain",
                "steps",
                "shards",
                "budget-ms",
                "workers",
                "csv",
                "metrics-out",
                "trace-out",
                "checkpoint-dir",
                "checkpoint-every",
                "resume",
                "nodes",
                "node-timeout-ms",
                "node-retries",
                "min-live-nodes",
            ];
            ([&own[..], &backend].concat(), cmd_search)
        }
        "node-worker" => (
            [&["addr", "domain", "chaos-exit-after"][..], &backend].concat(),
            cmd_node_worker,
        ),
        "help" | "--help" | "-h" => (vec![], |_| {
            write_stdout(format_args!("{USAGE}"));
            Ok(())
        }),
        other => return Err(format!("unknown command '{other}'")),
    };
    let flags = parse_flags(args)?;
    if let Some(name) = flags.keys().find(|name| !known.contains(&name.as_str())) {
        return Err(format!("unknown flag --{name}"));
    }
    command(&flags)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        write_stderr(format_args!("{USAGE}"));
        return ExitCode::FAILURE;
    };
    if let Err(e) = run(cmd, rest) {
        write_stderr(format_args!("error: {e}\n\n{USAGE}"));
        return ExitCode::FAILURE;
    }
    match STDOUT_FAILED.get() {
        Some(e) if e.kind() != io::ErrorKind::BrokenPipe => {
            write_stderr(format_args!("error: writing to stdout: {e}\n"));
            ExitCode::FAILURE
        }
        _ => ExitCode::SUCCESS,
    }
}
