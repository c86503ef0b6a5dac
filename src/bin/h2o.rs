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
use h2o_nas::eval::{BackendKind, BackendSpec, EvalBackend, EvalScenario, ModelSpec};
use h2o_nas::exec::{DistributedPool, NodeAddr, PoolOptions};
use h2o_nas::graph::Graph;
use h2o_nas::hwsim::{HardwareConfig, Simulator, SystemConfig};
use h2o_nas::models::coatnet::CoAtNet;
use h2o_nas::models::efficientnet::EfficientNet;
use h2o_nas::space::{
    ArchSample, CnnSpace, CnnSpaceConfig, DlrmSpace, DlrmSpaceConfig, VitSpace, VitSpaceConfig,
};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const USAGE: &str = "\
h2o — Hyperscale Hardware Optimized NAS (ASPLOS'23 reproduction)

USAGE:
  h2o spaces
  h2o simulate --model <NAME> [--hw <tpuv3|tpuv4|tpuv4i|v100|a100|h100>] [--batch N] [--serving]
  h2o simulate --hlo <FILE>   [--hw ...] [--serving]      simulate a textual HLO graph
  h2o dump --model <NAME> [--batch N]                     print a model as textual HLO
  h2o roofline [--hw <tpuv3|tpuv4|tpuv4i|v100|a100|h100>]
  h2o sweep --model <NAME> [--hw ...] [--batches 1,8,64,256] [--load 0.7]
  h2o search --domain <cnn|dlrm|vit|dlrm-oneshot> [--budget-ms X] [--steps N] [--shards N]
             [--workers N] [--eval-backend sim|cached|model]
             [--eval-cache on|off] [--eval-cache-capacity N]
             [--gate-threshold X] [--finetune-cadence N]
             [--csv STEM] [--metrics-out FILE] [--trace-out FILE]
             [--checkpoint-dir DIR] [--checkpoint-every K] [--resume]
             [--nodes N | --nodes addr,addr,...] [--node-timeout-ms X]
             [--node-retries N] [--min-live-nodes N]
  h2o node-worker --addr <unix:PATH|tcp:HOST:PORT> --domain <cnn|dlrm|vit>
             [--eval-backend sim|cached|model] [--eval-cache on|off]
             [--eval-cache-capacity N] [--gate-threshold X]
             [--finetune-cadence N] [--chaos-exit-after N]

  --eval-backend selects how candidate costs are produced: 'sim' walks
  the roofline simulator per candidate, 'cached' (the default when
  --eval-cache is on) memoizes those walks, and 'model' (dlrm only)
  serves in-distribution candidates from the pretrained MLP performance
  model, falling back to the cached simulator when the novelty gate
  exceeds --gate-threshold and fine-tuning a refined model every
  --finetune-cadence distinct fallback measurements.

  --nodes N spawns N local node-worker subprocesses on Unix sockets;
  --nodes with addresses connects to already-running workers. Search
  outcomes are byte-identical for any node count — node deaths are
  absorbed by redispatching unfinished jobs to survivors (spawn-managed
  workers are also respawned, up to --node-retries times per death). The
  run only fails once fewer than --min-live-nodes workers remain.

MODELS:
  coatnet-0..coatnet-5, coatnet-h0..coatnet-h5,
  efficientnet-x-b0..b7, efficientnet-h-b0..b7, dlrm, dlrm-h
";

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
    println!("search spaces (Table 5):");
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
        println!(
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
    let batch: usize = parse_flag(flags, "batch")?.unwrap_or(64);
    let graph = load_graph(flags, batch)?;
    print!("{}", h2o_nas::graph::text::to_text(&graph));
    Ok(())
}

fn cmd_simulate(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let batch: usize = parse_flag(flags, "batch")?.unwrap_or(64);
    let graph = load_graph(flags, batch)?;
    let hw = hardware(flags)?;
    let sim = Simulator::new(hw.clone());
    let serving = flags.contains_key("serving");
    let report = if serving {
        sim.simulate(&graph)
    } else {
        sim.simulate_training(&graph, &SystemConfig::training_pod())
    };
    println!(
        "{} on {} (batch {batch}, {}):",
        graph.name(),
        hw.name,
        if serving {
            "serving"
        } else {
            "training step, 128-chip pod"
        }
    );
    println!("  time            : {:.3} ms", report.time * 1e3);
    println!(
        "  throughput      : {:.0} examples/s/chip",
        batch as f64 / report.time
    );
    println!(
        "  compute         : {:.1} TFLOPs at {:.1} TFLOPS achieved",
        report.flops / 1e12,
        report.achieved_flops_rate / 1e12
    );
    println!(
        "  MXU utilization : {:.0}%",
        report.mxu_utilization() * 100.0
    );
    println!(
        "  HBM traffic     : {:.2} GB ({:.0} GB/s)",
        report.hbm_bytes / 1e9,
        report.hbm_bw_used / 1e9
    );
    println!(
        "  CMEM traffic    : {:.2} GB ({:.0} GB/s)",
        report.cmem_bytes / 1e9,
        report.cmem_bw_used / 1e9
    );
    println!("  ICI traffic     : {:.2} GB", report.ici_bytes / 1e9);
    println!(
        "  power           : {:.0} W  energy {:.2} J",
        report.avg_power, report.energy
    );
    println!("  params          : {:.1} M", report.params / 1e6);
    let mut slowest: Vec<(&String, &f64)> = report.breakdown.iter().collect();
    slowest.sort_by(|a, b| b.1.total_cmp(a.1));
    println!("  top op classes  :");
    for (label, t) in slowest.iter().take(4) {
        println!("    {label:20} {:.3} ms", **t * 1e3);
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
        .map(|s| s.trim().parse().map_err(|_| format!("bad batch '{s}'")))
        .collect::<Result<_, _>>()?;
    let load: f64 = parse_flag(flags, "load")?.unwrap_or(0.7);
    if !(0.0..1.0).contains(&load) {
        return Err(format!("--load must be in [0, 1), got {load}"));
    }
    let queue = ServingLoadModel::new(load);
    let sim = Simulator::new(hw.clone());
    let points = batch_sweep(&sim, build, &batches);
    println!(
        "{model} serving sweep on {} (queueing load {:.0}%):",
        hw.name,
        load * 100.0
    );
    println!("  batch | latency (ms) | P99@load (ms) | qps      | MXU util | J/example");
    for p in points {
        println!(
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
    println!(
        "{}: peak {:.0} TFLOPS, HBM {:.0} GB/s, CMEM {:.0} MB @ {:.1} TB/s, ridge {:.0} FLOPs/B",
        hw.name,
        hw.peak_flops / 1e12,
        hw.hbm_bw / 1e9,
        hw.cmem_capacity / 1e6,
        hw.cmem_bw / 1e12,
        hw.ridge_intensity()
    );
    let sim = Simulator::new(hw);
    println!("\nMBConv dynamic-fusion crossover (56x56 feature map, batch 8):");
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
        println!(
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
        println!("metrics written to {path}");
    }
    if let Some(path) = flags.get("trace-out") {
        let events = h2o_nas::obs::drain_spans();
        let json = h2o_nas::obs::export::to_chrome_trace(&events);
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        println!(
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
    let resume = flags.contains_key("resume");
    let Some(dir) = flags.get("checkpoint-dir") else {
        if resume {
            return Err("--resume requires --checkpoint-dir".into());
        }
        return Ok((None, None));
    };
    let store =
        CheckpointStore::new(dir, fingerprint).map_err(|e| format!("opening {dir}: {e}"))?;
    let state = if resume {
        let state = store
            .load_latest()
            .map_err(|e| format!("resuming from {dir}: {e}"))?
            .ok_or_else(|| format!("--resume: no checkpoint found in {dir}"))?;
        println!("resuming from {dir} at step {}", state.steps_done);
        Some(state)
    } else {
        None
    };
    println!("checkpointing to {dir} every {every} steps");
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
    println!(
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

/// Resolves the `--eval-backend` / `--eval-cache` / `--gate-threshold` /
/// `--finetune-cadence` flag group into one [`BackendSpec`] — the single
/// translation both `h2o search` and `h2o node-worker` use, so a
/// controller and its workers can never parse the same flags into
/// different backends.
///
/// Legacy mapping: with `--eval-backend` unset, `--eval-cache on` (the
/// default) is the cached backend and `--eval-cache off` the plain
/// simulator. Contradictory combinations (`sim` with an explicit
/// `--eval-cache on`, `cached` with `--eval-cache off`, model-gate flags
/// without the model backend) are rejected rather than guessed at.
fn backend_spec_from_flags(flags: &BTreeMap<String, String>) -> Result<BackendSpec, String> {
    let cache_on = match flags.get("eval-cache").map(String::as_str) {
        None => None,
        Some("on") | Some("true") => Some(true),
        Some("off") | Some("false") => Some(false),
        Some(other) => return Err(format!("bad --eval-cache '{other}' (on|off)")),
    };
    let cache_capacity: usize = parse_flag(flags, "eval-cache-capacity")?.unwrap_or(4096);
    let gate_threshold: Option<f64> = parse_flag(flags, "gate-threshold")?;
    let finetune_cadence: Option<usize> = parse_flag(flags, "finetune-cadence")?;
    let kind = match flags.get("eval-backend").map(String::as_str) {
        None => match cache_on {
            Some(false) => BackendKind::Simulator,
            _ => BackendKind::Cached,
        },
        Some(name) => BackendKind::parse(name)
            .ok_or_else(|| format!("bad --eval-backend '{name}' (sim|cached|model)"))?,
    };
    if kind != BackendKind::ModelServed {
        if gate_threshold.is_some() {
            return Err("--gate-threshold requires --eval-backend model".into());
        }
        if finetune_cadence.is_some() {
            return Err("--finetune-cadence requires --eval-backend model".into());
        }
    }
    let spec = match kind {
        BackendKind::Simulator => {
            if cache_on == Some(true) {
                return Err("--eval-backend sim contradicts --eval-cache on \
                            (use --eval-backend cached)"
                    .into());
            }
            BackendSpec::Simulator
        }
        BackendKind::Cached => {
            if cache_on == Some(false) {
                return Err("--eval-backend cached contradicts --eval-cache off \
                            (use --eval-backend sim)"
                    .into());
            }
            BackendSpec::Cached {
                capacity: cache_capacity,
            }
        }
        BackendKind::ModelServed => {
            let defaults = ModelSpec::default();
            BackendSpec::ModelServed {
                // For the model backend the cache flags govern the
                // fallback simulator's memoization.
                fallback_capacity: match cache_on {
                    Some(false) => None,
                    _ => Some(cache_capacity),
                },
                model: ModelSpec {
                    gate_threshold: gate_threshold.unwrap_or(defaults.gate_threshold),
                    finetune_cadence: finetune_cadence.unwrap_or(defaults.finetune_cadence),
                    ..defaults
                },
            }
        }
    };
    spec.validate()?;
    Ok(spec)
}

/// Prints the end-of-run evaluation report for an in-process backend:
/// model serving statistics (when model-served) and fallback/eval cache
/// statistics (when memoizing).
fn report_backend(backend: &EvalBackend) {
    if let Some(served) = backend.model_served() {
        let stats = served.stats();
        println!(
            "model served: {} served / {} fallback ({:.0}% served), {} finetune rounds, \
             {} measurements buffered",
            stats.served,
            stats.fallback,
            stats.served_share() * 100.0,
            stats.finetune_rounds,
            stats.buffered
        );
        if let Some((frozen, refined)) = served.buffer_nrmse() {
            println!(
                "model refinement: training-head NRMSE on fallback ground truth \
                 {frozen:.3} frozen -> {refined:.3} refined"
            );
        }
    }
    if let Some(cache) = backend.cache() {
        let s = cache.stats();
        println!(
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
    let backend = backend_spec_from_flags(flags)?;
    let chaos_exit_after: Option<usize> = parse_flag(flags, "chaos-exit-after")?;
    let scenario = EvalScenario::new(domain, backend)?;
    h2o_nas::distributed::run_worker(addr, scenario, chaos_exit_after)
}

fn cmd_search(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let domain = flags.get("domain").ok_or("missing --domain")?.as_str();
    let steps: usize = parse_flag(flags, "steps")?.unwrap_or(120);
    let shards: usize = parse_flag(flags, "shards")?.unwrap_or(8);
    let budget_ms: f64 = parse_flag(flags, "budget-ms")?.unwrap_or(100.0);
    if !budget_ms.is_finite() || budget_ms <= 0.0 {
        return Err(format!("--budget-ms must be positive, got {budget_ms}"));
    }
    let budget = budget_ms / 1e3;
    let workers: usize = parse_flag(flags, "workers")?.unwrap_or(0);
    let backend_spec = backend_spec_from_flags(flags)?;
    // --nodes switches candidate evaluation from in-process threads to
    // worker subprocesses; either an integer (auto-spawn that many local
    // Unix-socket workers) or a comma-separated address list.
    let nodes_spec = flags.get("nodes").cloned();
    let node_timeout =
        Duration::from_millis(parse_flag(flags, "node-timeout-ms")?.unwrap_or(30_000u64));
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
    println!(
        "searching {domain} space: {steps} steps x {shards} shards, step budget {budget_ms} ms"
    );
    let csv_stem = flags.get("csv").cloned();
    let maybe_export = |outcome: &h2o_nas::core::SearchOutcome| -> Result<(), String> {
        if let Some(stem) = &csv_stem {
            h2o_nas::core::telemetry::write_csvs(outcome, std::path::Path::new(stem))
                .map_err(|e| format!("writing telemetry: {e}"))?;
            println!("telemetry written to {stem}_history.csv / {stem}_candidates.csv");
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
            println!("{}", scenario.describe_best(&outcome.best));
        }
        "dlrm-oneshot" if nodes_spec.is_some() => {
            return Err(
                "--nodes does not support dlrm-oneshot: the one-shot search trains a shared \
                 supernet, which cannot be sharded across stateless worker processes"
                    .into(),
            );
        }
        "dlrm-oneshot" if backend_spec.kind() == BackendKind::ModelServed => {
            return Err(
                "--eval-backend model does not support dlrm-oneshot: the one-shot search \
                 already scores candidates with its own supernet-trained performance model"
                    .into(),
            );
        }
        "dlrm-oneshot" => {
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
            println!("perf model pretrained on {pool} simulator-labelled candidates");

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
            println!(
                "pipeline: {} batches served, {} policy-used, {} weights-used, {} in flight",
                stats.produced,
                stats.policy_used,
                stats.weights_used,
                pipeline.in_flight()
            );
            println!(
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match parse_flags(rest) {
        Err(e) => Err(e),
        Ok(flags) => match cmd.as_str() {
            "spaces" => {
                cmd_spaces();
                Ok(())
            }
            "simulate" => cmd_simulate(&flags),
            "dump" => cmd_dump(&flags),
            "roofline" => cmd_roofline(&flags),
            "sweep" => cmd_sweep(&flags),
            "search" => cmd_search(&flags),
            "node-worker" => cmd_node_worker(&flags),
            "help" | "--help" | "-h" => {
                print!("{USAGE}");
                Ok(())
            }
            other => Err(format!("unknown command '{other}'")),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}
