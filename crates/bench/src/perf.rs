//! Perf-trajectory observatory: the pinned benchmark scenario matrix, the
//! versioned `BENCH_<tag>.json` report it produces, and the regression
//! diff that gates CI on a committed baseline.
//!
//! The repository's performance story is only as durable as its memory of
//! past performance. This module gives every PR a cheap, committed record:
//! the `perf_baseline` binary runs a fixed matrix of scenarios (parallel
//! search across worker counts and cache states, one-shot unified search,
//! the TuNAS baseline, raw simulator throughput, a Zipf-replayed
//! cached-eval trace that pins the cache-hit path, a tensor matmul
//! microbench) under pinned seeds and writes the resulting metrics —
//! candidates/sec, step latency quantiles, per-phase time shares, cache
//! hit rate, simulator ops/sec — as dependency-free JSON. The companion
//! `bench_diff` binary re-runs the matrix and compares against the
//! committed baseline, failing CI (or warning, under `H2O_BENCH_STRICT=0`)
//! when a guarded metric regresses beyond a threshold.
//!
//! Counts and rates in the report (candidate totals, cache hit rate) are
//! deterministic under the pinned seeds; timing fields vary run to run,
//! which is exactly why comparisons are threshold-gated rather than exact.
//!
//! The JSON encoder/decoder here is deliberately hand-rolled (objects,
//! strings, numbers — the subset the schema needs): the report format must
//! not grow a serialization dependency just to be diffable.

use crate::experiments::run_search;
use crate::report::{env_usize, seconds, Table};
use h2o_core::{
    CheckpointSink, OneShotConfig, ParallelStage, PerfObjective, RewardFn, RewardKind,
    SearchConfig, SearchDriver, TunasStage, UnifiedStage, PHASES,
};
use h2o_data::{CtrTraffic, CtrTrafficConfig, InMemoryPipeline};
use h2o_eval::{BackendSpec, Domain, EvalBackend, EvalScenario, ModelSpec};
use h2o_hwsim::{arch_key, HardwareConfig, Simulator, SystemConfig};
use h2o_obs::HistogramSnapshot;
use h2o_space::{ArchSample, DlrmSpace, DlrmSpaceConfig, DlrmSupernet};
use h2o_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Version of the `BENCH_*.json` schema; bump on any breaking change to
/// the report shape so `bench_diff` refuses cross-version comparisons.
pub const SCHEMA_VERSION: u32 = 1;

/// Default relative-change threshold beyond which a guarded metric counts
/// as regressed (or improved). Overridden by `H2O_BENCH_THRESHOLD`.
pub const DEFAULT_THRESHOLD: f64 = 0.25;

// ---------------------------------------------------------------------------
// Report model
// ---------------------------------------------------------------------------

/// One benchmark run: environment block plus `scenario → metric → value`.
///
/// Both maps are ordered, so `to_json` output is byte-stable for a given
/// set of measurements — committed baselines diff cleanly.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema version ([`SCHEMA_VERSION`] at write time).
    pub schema_version: u32,
    /// Human-chosen tag naming the baseline (`pr6`, `local`, …).
    pub tag: String,
    /// Environment context: git revision, cpu count, scale knobs.
    pub env: BTreeMap<String, String>,
    /// Measured metrics per scenario.
    pub scenarios: BTreeMap<String, BTreeMap<String, f64>>,
}

impl BenchReport {
    /// An empty report with the current schema version.
    pub fn new(tag: impl Into<String>) -> Self {
        Self {
            schema_version: SCHEMA_VERSION,
            tag: tag.into(),
            env: BTreeMap::new(),
            scenarios: BTreeMap::new(),
        }
    }

    /// Serializes to the committed-baseline JSON format (stable key order,
    /// two-space indent, trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"schema_version\": {},\n  \"tag\": \"{}\",\n",
            self.schema_version,
            escape(&self.tag)
        ));
        out.push_str("  \"env\": {\n");
        push_entries(&mut out, self.env.iter(), |v| format!("\"{}\"", escape(v)));
        out.push_str("  },\n  \"scenarios\": {\n");
        let n = self.scenarios.len();
        for (i, (name, metrics)) in self.scenarios.iter().enumerate() {
            out.push_str(&format!("    \"{}\": {{\n", escape(name)));
            let m = metrics.len();
            for (j, (metric, value)) in metrics.iter().enumerate() {
                out.push_str(&format!(
                    "      \"{}\": {}{}\n",
                    escape(metric),
                    number(*value),
                    if j + 1 < m { "," } else { "" }
                ));
            }
            out.push_str(&format!("    }}{}\n", if i + 1 < n { "," } else { "" }));
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parses a report previously written by [`BenchReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON, a missing/ill-typed field, or
    /// a schema version other than [`SCHEMA_VERSION`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = Parser::new(text).parse()?;
        let top = value.as_object("top level")?;
        let version = get(top, "schema_version")?.as_number("schema_version")?;
        if version != SCHEMA_VERSION as f64 {
            return Err(format!(
                "schema version {version} unsupported (this build reads {SCHEMA_VERSION})"
            ));
        }
        let tag = get(top, "tag")?.as_string("tag")?.to_string();
        let mut env = BTreeMap::new();
        for (k, v) in get(top, "env")?.as_object("env")? {
            env.insert(k.clone(), v.as_string(k)?.to_string());
        }
        let mut scenarios = BTreeMap::new();
        for (name, metrics) in get(top, "scenarios")?.as_object("scenarios")? {
            let mut parsed = BTreeMap::new();
            for (metric, value) in metrics.as_object(name)? {
                parsed.insert(metric.clone(), value.as_number(metric)?);
            }
            scenarios.insert(name.clone(), parsed);
        }
        Ok(Self {
            schema_version: SCHEMA_VERSION,
            tag,
            env,
            scenarios,
        })
    }
}

fn push_entries<'a>(
    out: &mut String,
    entries: impl ExactSizeIterator<Item = (&'a String, &'a String)>,
    render: impl Fn(&str) -> String,
) {
    let n = entries.len();
    for (i, (k, v)) in entries.enumerate() {
        out.push_str(&format!(
            "    \"{}\": {}{}\n",
            escape(k),
            render(v),
            if i + 1 < n { "," } else { "" }
        ));
    }
}

// JSON string escape (RFC 8259 rules for the characters the schema can
// contain).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders an f64 as a JSON number: Rust's shortest round-trip form, with
/// non-finite values (which no metric should produce) clamped to 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON parser (objects / strings / numbers — the report subset)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Num(f64),
    Str(String),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn as_object(&self, what: &str) -> Result<&BTreeMap<String, Json>, String> {
        match self {
            Json::Obj(map) => Ok(map),
            _ => Err(format!("{what}: expected an object")),
        }
    }

    fn as_number(&self, what: &str) -> Result<f64, String> {
        match self {
            Json::Num(n) => Ok(*n),
            _ => Err(format!("{what}: expected a number")),
        }
    }

    fn as_string(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(format!("{what}: expected a string")),
        }
    }
}

fn get<'a>(map: &'a BTreeMap<String, Json>, key: &str) -> Result<&'a Json, String> {
    map.get(key).ok_or_else(|| format!("missing key '{key}'"))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn parse(mut self) -> Result<Json, String> {
        let value = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing content at byte {}", self.pos));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(c) if c.is_ascii_digit() || *c == b'-' || *c == b'+' => self.number(),
            Some(c) => Err(format!(
                "unexpected byte '{}' at {} (arrays/bools/null are outside the schema)",
                *c as char, self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.pos += 1; // consume '{'
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b':') {
                return Err(format!("expected ':' at byte {}", self.pos));
            }
            self.pos += 1;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected '\"' at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            out.push(hex);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through unmodified.
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xC0 == 0x80 {
                        self.pos += 1;
                    }
                    if let Ok(chunk) = std::str::from_utf8(&self.bytes[start..self.pos]) {
                        out.push_str(chunk);
                    } else {
                        return Err(format!("invalid UTF-8 at byte {start}"));
                    }
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

// ---------------------------------------------------------------------------
// Metric direction + regression diff
// ---------------------------------------------------------------------------

/// How a metric's value maps to "better".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Throughput-like: bigger is better (rates, hit rates, GFLOP/s).
    HigherIsBetter,
    /// Latency-like: smaller is better (millisecond quantiles).
    LowerIsBetter,
    /// Informational only (time shares, raw counts, total wall time):
    /// never gates the diff.
    Unguarded,
}

/// Classifies a metric by name. The mapping is deliberately explicit and
/// name-suffix based so a new metric is unguarded until someone decides
/// which way it points.
pub fn direction_of(metric: &str) -> Direction {
    if metric.ends_with("_share") || metric.ends_with("_count") || metric == "wall_seconds" {
        Direction::Unguarded
    } else if metric.ends_with("_per_sec")
        || metric.ends_with("gflops")
        || metric.ends_with("hit_rate")
    {
        Direction::HigherIsBetter
    } else if metric.ends_with("_ms") {
        Direction::LowerIsBetter
    } else {
        Direction::Unguarded
    }
}

/// Outcome of comparing one guarded metric against the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaStatus {
    /// Moved in the good direction by more than the threshold.
    Improved,
    /// Within the threshold either way.
    Within,
    /// Moved in the bad direction by more than the threshold.
    Regressed,
    /// Present in the baseline, absent from the current run — treated as
    /// a regression (a scenario or instrument silently disappeared).
    Missing,
}

/// One guarded metric's comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Scenario the metric belongs to.
    pub scenario: String,
    /// Metric name.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value (`None` when [`DeltaStatus::Missing`]).
    pub current: Option<f64>,
    /// Signed relative change where positive means *better*, regardless
    /// of the metric's direction.
    pub goodness: f64,
    /// Classification under the diff threshold.
    pub status: DeltaStatus,
}

/// The full comparison of a current run against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Per-metric rows, in (scenario, metric) order.
    pub deltas: Vec<MetricDelta>,
    /// The relative threshold the rows were classified under.
    pub threshold: f64,
}

impl DiffReport {
    /// Number of gate-failing rows (regressed or missing).
    pub fn regressions(&self) -> usize {
        self.deltas
            .iter()
            .filter(|d| matches!(d.status, DeltaStatus::Regressed | DeltaStatus::Missing))
            .count()
    }

    /// Renders the delta table plus a one-line verdict.
    pub fn render(&self) -> String {
        let mut table = Table::new(
            format!(
                "bench_diff: current vs baseline (threshold {:.0}%)",
                self.threshold * 100.0
            ),
            &[
                "scenario", "metric", "baseline", "current", "change", "status",
            ],
        );
        for d in &self.deltas {
            table.row(&[
                d.scenario.clone(),
                d.metric.clone(),
                format!("{:.4}", d.baseline),
                d.current.map_or("-".to_string(), |c| format!("{c:.4}")),
                format!("{:+.1}%", d.goodness * 100.0),
                match d.status {
                    DeltaStatus::Improved => "improved".to_string(),
                    DeltaStatus::Within => "ok".to_string(),
                    DeltaStatus::Regressed => "REGRESSED".to_string(),
                    DeltaStatus::Missing => "MISSING".to_string(),
                },
            ]);
        }
        let mut out = table.render();
        let regressions = self.regressions();
        if regressions == 0 {
            out.push_str("\nbench_diff: no guarded metric regressed\n");
        } else {
            out.push_str(&format!(
                "\nbench_diff: {regressions} guarded metric(s) regressed or went missing\n"
            ));
        }
        out
    }
}

/// Compares every guarded baseline metric against the current run.
///
/// Metrics that exist only in the current run are ignored (nothing to
/// compare against); unguarded metrics never produce rows.
pub fn diff_reports(baseline: &BenchReport, current: &BenchReport, threshold: f64) -> DiffReport {
    let mut deltas = Vec::new();
    for (scenario, metrics) in &baseline.scenarios {
        for (metric, &base_value) in metrics {
            let direction = direction_of(metric);
            if direction == Direction::Unguarded {
                continue;
            }
            let current_value = current
                .scenarios
                .get(scenario)
                .and_then(|m| m.get(metric))
                .copied();
            let delta = match current_value {
                None => MetricDelta {
                    scenario: scenario.clone(),
                    metric: metric.clone(),
                    baseline: base_value,
                    current: None,
                    goodness: -1.0,
                    status: DeltaStatus::Missing,
                },
                Some(cur) => {
                    let goodness = goodness_of(base_value, cur, direction);
                    let status = if goodness < -threshold {
                        DeltaStatus::Regressed
                    } else if goodness > threshold {
                        DeltaStatus::Improved
                    } else {
                        DeltaStatus::Within
                    };
                    MetricDelta {
                        scenario: scenario.clone(),
                        metric: metric.clone(),
                        baseline: base_value,
                        current: Some(cur),
                        goodness,
                        status,
                    }
                }
            };
            deltas.push(delta);
        }
    }
    DiffReport { deltas, threshold }
}

/// Signed relative change with positive = better. A zero baseline with a
/// zero current value is "no change"; a zero baseline with a nonzero
/// current value counts as a full-scale move in the value's direction.
fn goodness_of(baseline: f64, current: f64, direction: Direction) -> f64 {
    let raw = if baseline.abs() > f64::EPSILON {
        (current - baseline) / baseline.abs()
    } else if current.abs() <= f64::EPSILON {
        0.0
    } else {
        current.signum()
    };
    match direction {
        Direction::LowerIsBetter => -raw,
        _ => raw,
    }
}

/// Exit-code policy shared by `bench_diff` and its tests: non-zero only
/// when the gate is strict **and** a guarded metric regressed.
pub fn diff_exit_code(regressions: usize, strict: bool) -> u8 {
    if strict && regressions > 0 {
        1
    } else {
        0
    }
}

// ---------------------------------------------------------------------------
// Scenario matrix
// ---------------------------------------------------------------------------

/// Scale knobs for the matrix, each overridable via environment so the CI
/// smoke stage can run a reduced matrix with the same code path.
#[derive(Debug, Clone, Copy)]
pub struct BenchScale {
    /// Steps per parallel/one-shot search scenario (`H2O_BENCH_STEPS`).
    pub search_steps: usize,
    /// Evaluations in the raw simulator scenario (`H2O_BENCH_SIM_EVALS`).
    pub sim_evals: usize,
    /// Iterations in the matmul microbench (`H2O_BENCH_MATMUL_ITERS`).
    pub matmul_iters: usize,
}

impl BenchScale {
    /// Reads the scale from the environment with laptop-friendly defaults.
    pub fn from_env() -> Self {
        Self {
            search_steps: env_usize("H2O_BENCH_STEPS", 40),
            sim_evals: env_usize("H2O_BENCH_SIM_EVALS", 150),
            matmul_iters: env_usize("H2O_BENCH_MATMUL_ITERS", 40),
        }
    }
}

const SHARDS: usize = 8;
const SEARCH_SEED: u64 = 0;

/// Runs the full scenario matrix and assembles the report. Each scenario
/// resets the global metrics registry first, so its snapshot reflects that
/// scenario alone.
pub fn run_matrix(tag: &str, scale: BenchScale) -> BenchReport {
    let mut report = BenchReport::new(tag);
    report.env = env_block(scale);
    for workers in [1usize, 4, 8] {
        for cached in [false, true] {
            let name = format!(
                "parallel_w{workers}_cache_{}",
                if cached { "on" } else { "off" }
            );
            let metrics = scenario_parallel(workers, cached, scale.search_steps);
            report.scenarios.insert(name, metrics);
        }
    }
    report.scenarios.insert(
        "unified_oneshot".to_string(),
        scenario_unified(scale.search_steps),
    );
    report
        .scenarios
        .insert("tunas".to_string(), scenario_tunas(scale.search_steps));
    report
        .scenarios
        .insert("hwsim_raw".to_string(), scenario_hwsim(scale.sim_evals));
    report.scenarios.insert(
        "hwsim_zipf_replay".to_string(),
        scenario_zipf_replay(scale.sim_evals),
    );
    report.scenarios.insert(
        "eval_backend_ab".to_string(),
        scenario_eval_backend_ab(scale.search_steps),
    );
    report.scenarios.insert(
        "convergence_cache_saturation".to_string(),
        scenario_convergence(scale.search_steps),
    );
    report.scenarios.insert(
        "tensor_matmul".to_string(),
        scenario_matmul(scale.matmul_iters),
    );
    report
}

fn env_block(scale: BenchScale) -> BTreeMap<String, String> {
    let mut env = BTreeMap::new();
    env.insert("git_rev".to_string(), git_rev());
    env.insert(
        "cpu_count".to_string(),
        std::thread::available_parallelism()
            .map(|n| n.get().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
    );
    env.insert("os".to_string(), std::env::consts::OS.to_string());
    env.insert("arch".to_string(), std::env::consts::ARCH.to_string());
    env.insert("search_steps".to_string(), scale.search_steps.to_string());
    env.insert("sim_evals".to_string(), scale.sim_evals.to_string());
    env.insert("matmul_iters".to_string(), scale.matmul_iters.to_string());
    env.insert("shards".to_string(), SHARDS.to_string());
    env
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The DLRM production space truncated to 40 tables — the same workload
/// `h2o search --domain dlrm` runs, so baseline numbers track the real
/// search path.
fn dlrm_space_config() -> DlrmSpaceConfig {
    let mut config = DlrmSpaceConfig::production();
    config.tables.truncate(40);
    config
}

fn scenario_parallel(workers: usize, cached: bool, steps: usize) -> BTreeMap<String, f64> {
    h2o_obs::reset();
    let watch = h2o_obs::Stopwatch::start();

    let spec = if cached {
        BackendSpec::Cached { capacity: 4096 }
    } else {
        BackendSpec::Simulator
    };
    // h2o-lint: allow(panic-hygiene) -- literal domain + validated spec, infallible by construction
    let scenario = EvalScenario::new("dlrm", spec).expect("dlrm scenario");
    let space = scenario.space();
    let reward = RewardFn::new(
        RewardKind::Relu,
        vec![PerfObjective::new("step_time", 0.1, -8.0)],
    );
    let cfg = SearchConfig {
        steps,
        shards: SHARDS,
        policy_lr: 0.06,
        baseline_momentum: 0.9,
        seed: SEARCH_SEED,
        workers,
    };

    // A real on-disk checkpoint sink (under target/) so the checkpoint
    // phase quantiles measure actual serialization + write latency.
    let ckpt_dir = std::path::Path::new("target")
        .join("perf_baseline_ckpt")
        .join(format!("w{workers}_{}", if cached { "on" } else { "off" }));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let mut sink = h2o_ckpt::CheckpointStore::new(&ckpt_dir, cfg.fingerprint(&space))
        .ok()
        .map(|store| h2o_ckpt::FileCheckpointSink::new(store, (steps / 4).max(1)));

    // h2o-lint: allow(panic-hygiene) -- sim/cached backends cannot fail to build
    let backend = scenario.backend().expect("backend");
    let mut stage = ParallelStage::new(|_| scenario.shard_evaluator(&backend), &cfg);
    let sink = sink.as_mut().map(|s| s as &mut dyn CheckpointSink);
    let outcome = SearchDriver::new(&space, &reward, cfg)
        .run(&mut stage, None, sink)
        // h2o-lint: allow(panic-hygiene) -- a checkpoint write that fails under target/ loses the
        // phase timings this scenario exists to record: abort the baseline instead
        .expect("perf scenario search");

    let wall = watch.elapsed_secs();
    let mut metrics = search_metrics(outcome.evaluated.len(), wall);
    if cached {
        // Over the production-scale space the policy rarely re-samples an
        // exact architecture within the pinned step budget, so the hit
        // rate sits near zero and the cache-on scenarios chiefly track
        // memoization *overhead* — which must stay negligible. Hit-path
        // latency is pinned separately by the hwsim crate's own tests.
        let snap = h2o_obs::snapshot();
        let hits = *snap
            .counters
            .get("h2o_hwsim_cache_hits_total")
            .unwrap_or(&0);
        let misses = *snap
            .counters
            .get("h2o_hwsim_cache_misses_total")
            .unwrap_or(&0);
        if hits + misses > 0 {
            metrics.insert(
                "cache_hit_rate".to_string(),
                hits as f64 / (hits + misses) as f64,
            );
        }
    }
    metrics
}

fn scenario_unified(steps: usize) -> BTreeMap<String, f64> {
    h2o_obs::reset();
    let watch = h2o_obs::Stopwatch::start();

    let mut rng = StdRng::seed_from_u64(SEARCH_SEED);
    let mut supernet = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut rng);
    let space = supernet.space().clone();
    let pipeline = InMemoryPipeline::new(CtrTraffic::new(CtrTrafficConfig::tiny(), 1));
    let cfg = OneShotConfig {
        steps,
        shards: SHARDS,
        batch_size: 32,
        workers: 4,
        ..Default::default()
    };
    let reward = RewardFn::new(
        RewardKind::Relu,
        vec![PerfObjective::new("model_mb", 2.0, -8.0)],
    );
    let perf = |sample: &ArchSample| vec![space.decode(sample).model_size_bytes() / 1e6];
    let outcome = run_search(
        space.space(),
        &reward,
        cfg.controller(),
        &mut UnifiedStage::new(&mut supernet, &pipeline, perf, &cfg),
    );

    search_metrics(outcome.evaluated.len(), watch.elapsed_secs())
}

fn scenario_tunas(steps: usize) -> BTreeMap<String, f64> {
    h2o_obs::reset();
    let watch = h2o_obs::Stopwatch::start();

    let mut rng = StdRng::seed_from_u64(SEARCH_SEED);
    let mut supernet = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut rng);
    let space = supernet.space().clone();
    let mut train = CtrTraffic::new(CtrTrafficConfig::tiny(), 1);
    let mut valid = CtrTraffic::new(CtrTrafficConfig::tiny(), 2);
    let cfg = OneShotConfig {
        steps,
        shards: SHARDS,
        batch_size: 32,
        workers: 4,
        ..Default::default()
    };
    let reward = RewardFn::new(
        RewardKind::Absolute,
        vec![PerfObjective::new("model_mb", 2.0, -8.0)],
    );
    let perf = |sample: &ArchSample| vec![space.decode(sample).model_size_bytes() / 1e6];
    let outcome = run_search(
        space.space(),
        &reward,
        cfg.controller(),
        &mut TunasStage::new(&mut supernet, &mut train, &mut valid, perf, &cfg),
    );

    search_metrics(outcome.evaluated.len(), watch.elapsed_secs())
}

fn scenario_hwsim(evals: usize) -> BTreeMap<String, f64> {
    h2o_obs::reset();
    let watch = h2o_obs::Stopwatch::start();

    let sim = Simulator::new(HardwareConfig::tpu_v4());
    let space = DlrmSpace::new(dlrm_space_config());
    let mut rng = StdRng::seed_from_u64(7);
    let hist = h2o_obs::histogram("bench_sim_eval_seconds");
    for _ in 0..evals {
        let sample = space.space().sample_uniform(&mut rng);
        let graph = space.decode(&sample).build_graph(64, 128);
        let _ = hist.time(|| sim.simulate_training(&graph, &SystemConfig::training_pod()));
    }
    let wall = watch.elapsed_secs();

    let mut metrics = BTreeMap::new();
    metrics.insert("wall_seconds".to_string(), wall);
    metrics.insert("evals_count".to_string(), evals as f64);
    metrics.insert("sim_ops_per_sec".to_string(), evals as f64 / wall.max(1e-9));
    let snap = h2o_obs::snapshot();
    if let Some(h) = snap.histograms.get("bench_sim_eval_seconds") {
        metrics.insert("sim_eval_p50_ms".to_string(), h.p50 * 1e3);
        metrics.insert("sim_eval_p99_ms".to_string(), h.p99 * 1e3);
    }
    metrics
}

/// Replays a Zipf-popularity eval trace through the shared eval cache.
///
/// Over the production-scale space the search policy almost never
/// re-samples an exact architecture, so the `parallel_*_cache_on`
/// scenarios report a near-zero hit rate and chiefly track memoization
/// *overhead*. Production eval traffic looks different: a few hot
/// architectures dominate (warm restarts, repeated promotion candidates,
/// shared subnets). This scenario models that with a fixed 64-candidate
/// pool drawn with Zipf(1.1) popularity, so the baseline pins the
/// cache-*hit* path: a high deterministic hit rate plus hit-dominated
/// latency quantiles.
fn scenario_zipf_replay(evals: usize) -> BTreeMap<String, f64> {
    zipf_replay_over(dlrm_space_config(), 64, evals)
}

/// The Zipf-replay measurement core, parameterized over space and pool
/// size so the unit tests can run it on the tiny space.
fn zipf_replay_over(
    config: DlrmSpaceConfig,
    pool_size: usize,
    evals: usize,
) -> BTreeMap<String, f64> {
    h2o_obs::reset();
    let watch = h2o_obs::Stopwatch::start();

    let space = DlrmSpace::new(config);
    let mut rng = StdRng::seed_from_u64(11);
    let pool: Vec<ArchSample> = (0..pool_size)
        .map(|_| space.space().sample_uniform(&mut rng))
        .collect();
    // Rank r is drawn with weight 1/r^1.1; selection walks the CDF.
    let weights: Vec<f64> = (1..=pool_size)
        .map(|r| 1.0 / (r as f64).powf(1.1))
        .collect();
    let total: f64 = weights.iter().sum();

    let backend = EvalBackend::build(
        &BackendSpec::Cached {
            capacity: pool_size * 2,
        },
        Domain::Dlrm,
    )
    // h2o-lint: allow(panic-hygiene) -- cached backend over a literal spec, infallible
    .expect("cached backend");
    let hist = h2o_obs::histogram("bench_zipf_eval_seconds");
    for _ in 0..evals {
        let mut point = rng.gen::<f64>() * total;
        let mut rank = pool_size - 1;
        for (i, w) in weights.iter().enumerate() {
            point -= w;
            if point <= 0.0 {
                rank = i;
                break;
            }
        }
        let sample = &pool[rank];
        let _ = hist.time(|| {
            backend.training_cost(
                sample,
                arch_key("dlrm", sample),
                &SystemConfig::training_pod(),
                || space.decode(sample).build_graph(64, 128),
            )
        });
    }
    let wall = watch.elapsed_secs();

    let mut metrics = BTreeMap::new();
    metrics.insert("wall_seconds".to_string(), wall);
    metrics.insert("evals_count".to_string(), evals as f64);
    metrics.insert("evals_per_sec".to_string(), evals as f64 / wall.max(1e-9));
    let snap = h2o_obs::snapshot();
    let hits = *snap
        .counters
        .get("h2o_hwsim_cache_hits_total")
        .unwrap_or(&0);
    let misses = *snap
        .counters
        .get("h2o_hwsim_cache_misses_total")
        .unwrap_or(&0);
    if hits + misses > 0 {
        metrics.insert(
            "cache_hit_rate".to_string(),
            hits as f64 / (hits + misses) as f64,
        );
    }
    if let Some(h) = snap.histograms.get("bench_zipf_eval_seconds") {
        metrics.insert("zipf_eval_p50_ms".to_string(), h.p50 * 1e3);
        metrics.insert("zipf_eval_p99_ms".to_string(), h.p99 * 1e3);
    }
    metrics
}

/// Runs one pinned DLRM search through the given backend spec and
/// returns `(candidates, wall_seconds, backend)` — the shared arm of the
/// A/B and convergence scenarios. The backend is built *before* the
/// stopwatch starts: model pretraining is a once-per-deployment cost the
/// paper amortizes across searches, so candidates/sec measures serving
/// throughput, not setup.
fn search_through(spec: BackendSpec, steps: usize, workers: usize) -> (usize, f64, EvalBackend) {
    // h2o-lint: allow(panic-hygiene) -- literal domain + validated spec, infallible by construction
    let scenario = EvalScenario::new("dlrm", spec).expect("dlrm scenario");
    let space = scenario.space();
    let reward = RewardFn::new(
        RewardKind::Relu,
        vec![PerfObjective::new("step_time", 0.1, -8.0)],
    );
    let cfg = SearchConfig {
        steps,
        shards: SHARDS,
        policy_lr: 0.06,
        baseline_momentum: 0.9,
        seed: SEARCH_SEED,
        workers,
    };
    // h2o-lint: allow(panic-hygiene) -- sim/cached backends cannot fail to build
    let backend = scenario.backend().expect("backend");
    let watch = h2o_obs::Stopwatch::start();
    let mut stage = ParallelStage::new(|_| scenario.shard_evaluator(&backend), &cfg);
    let outcome = run_search(&space, &reward, cfg, &mut stage);
    (outcome.evaluated.len(), watch.elapsed_secs(), backend)
}

/// The model-served A/B: the same pinned search at equal eval budget
/// (steps × shards), once through the plain simulator and once through
/// the model-served backend. The headline pair is
/// `sim_candidates_per_sec` vs `model_candidates_per_sec`; the served
/// share and fine-tune rounds are deterministic under the pinned seeds
/// and recorded as unguarded counts. `model_batch_infer_per_sec` pins
/// the vectorized `infer_batch` hot path itself.
fn scenario_eval_backend_ab(steps: usize) -> BTreeMap<String, f64> {
    h2o_obs::reset();
    let watch = h2o_obs::Stopwatch::start();

    let (sim_candidates, sim_wall, sim_backend) = search_through(BackendSpec::Simulator, steps, 4);
    let (model_candidates, model_wall, backend) = search_through(
        BackendSpec::ModelServed {
            fallback_capacity: Some(4096),
            model: ModelSpec::default(),
        },
        steps,
        4,
    );

    let mut metrics = BTreeMap::new();
    metrics.insert("wall_seconds".to_string(), watch.elapsed_secs());
    metrics.insert("sim_candidates_count".to_string(), sim_candidates as f64);
    metrics.insert(
        "sim_candidates_per_sec".to_string(),
        sim_candidates as f64 / sim_wall.max(1e-9),
    );
    metrics.insert(
        "model_candidates_count".to_string(),
        model_candidates as f64,
    );
    metrics.insert(
        "model_candidates_per_sec".to_string(),
        model_candidates as f64 / model_wall.max(1e-9),
    );
    // Search-arm stats, read before the eval-stream A/B below reuses the
    // backend (its counters keep accruing there).
    // h2o-lint: allow(panic-hygiene) -- this arm was built with the model spec two lines up
    let served = backend.model_served().expect("model backend");
    let stats = served.stats();
    metrics.insert("served_count".to_string(), stats.served as f64);
    metrics.insert("fallback_count".to_string(), stats.fallback as f64);
    metrics.insert("served_share".to_string(), stats.served_share());
    metrics.insert(
        "finetune_rounds_count".to_string(),
        stats.finetune_rounds as f64,
    );

    // Equal-eval-budget A/B: the same pinned candidate stream through each
    // backend's shard evaluator, no search machinery in the timed window.
    // This isolates the per-candidate eval cost (decode + quality + cost
    // backend) that the search-level candidates/sec above dilutes with
    // policy sampling and REINFORCE updates.
    // h2o-lint: allow(panic-hygiene) -- literal domain + simulator spec, infallible
    let eval_scenario = EvalScenario::new("dlrm", BackendSpec::Simulator).expect("dlrm scenario");
    let space = eval_scenario.space();
    let mut rng = StdRng::seed_from_u64(11);
    let stream: Vec<_> = (0..2000).map(|_| space.sample_uniform(&mut rng)).collect();
    let mut eval_rates = Vec::new();
    for arm in [&sim_backend, &backend] {
        let mut evaluate = eval_scenario.shard_evaluator(arm);
        let arm_watch = h2o_obs::Stopwatch::start();
        for sample in &stream {
            let _ = evaluate(sample);
        }
        eval_rates.push(stream.len() as f64 / arm_watch.elapsed_secs().max(1e-9));
    }
    metrics.insert("sim_eval_candidates_per_sec".to_string(), eval_rates[0]);
    metrics.insert("model_eval_candidates_per_sec".to_string(), eval_rates[1]);
    // The ratio is what the acceptance gate reads; it is informational
    // (no direction suffix) because both arms are timing-based.
    metrics.insert(
        "model_speedup_ratio".to_string(),
        eval_rates[1] / eval_rates[0].max(1e-9),
    );

    // Batched inference microbench: one multi-row forward over a fixed
    // candidate pool, the shape the serving hot path is vectorized for.
    // h2o-lint: allow(panic-hygiene) -- literal domain + simulator spec, infallible
    let scenario = EvalScenario::new("dlrm", BackendSpec::Simulator).expect("dlrm scenario");
    let space = scenario.space();
    let mut rng = StdRng::seed_from_u64(5);
    let rows: Vec<Vec<f32>> = (0..256)
        .map(|_| served.featurize(&space.sample_uniform(&mut rng)))
        .collect();
    let iters = 20;
    let batch_watch = h2o_obs::Stopwatch::start();
    for _ in 0..iters {
        let _ = served.frozen_model().infer_batch(&rows);
    }
    metrics.insert(
        "model_batch_infer_per_sec".to_string(),
        (rows.len() * iters) as f64 / batch_watch.elapsed_secs().max(1e-9),
    );
    metrics
}

/// The convergence-scale scenario: a 3×-longer pinned search against a
/// deliberately tiny eval cache, so the cache spends the whole late
/// phase saturated — entries pinned at capacity, every insert paying an
/// eviction. The baseline pins that eviction-path overhead (evictions ≈
/// candidates − capacity) alongside step latency at convergence scale.
/// Intra-run hit rate stays ~0 by construction: with ~330 decisions per
/// candidate the policy essentially never resamples an exact
/// architecture, so cache hits are a resume/replay phenomenon (see
/// `hwsim_zipf_replay`), not a search-loop one.
fn scenario_convergence(steps: usize) -> BTreeMap<String, f64> {
    h2o_obs::reset();
    let watch = h2o_obs::Stopwatch::start();

    let (candidates, _, backend) =
        search_through(BackendSpec::Cached { capacity: 64 }, steps * 3, 4);
    let wall = watch.elapsed_secs();

    let mut metrics = search_metrics(candidates, wall);
    // h2o-lint: allow(panic-hygiene) -- the spec above is Cached, so a cache exists
    let stats = backend.cache().expect("cached backend").stats();
    metrics.insert("cache_hit_rate".to_string(), stats.hit_rate());
    metrics.insert("cache_evictions_count".to_string(), stats.evictions as f64);
    metrics.insert("cache_entries_count".to_string(), stats.entries as f64);
    metrics
}

fn scenario_matmul(iters: usize) -> BTreeMap<String, f64> {
    h2o_obs::reset();
    let watch = h2o_obs::Stopwatch::start();

    const N: usize = 192;
    let a = Matrix::from_fn(N, N, |i, j| ((i * 31 + j * 17) % 97) as f32 * 0.01);
    let b = Matrix::from_fn(N, N, |i, j| ((i * 13 + j * 29) % 89) as f32 * 0.01);
    let hist = h2o_obs::histogram("bench_matmul_seconds");
    let mut checksum = 0.0f32;
    for _ in 0..iters {
        let c = hist.time(|| a.matmul(&b));
        checksum += c.get(0, 0);
    }
    let wall = watch.elapsed_secs();

    let mut metrics = BTreeMap::new();
    metrics.insert("wall_seconds".to_string(), wall);
    metrics.insert("iters_count".to_string(), iters as f64);
    metrics.insert("checksum_count".to_string(), checksum as f64);
    let flops = 2.0 * (N * N * N * iters) as f64;
    metrics.insert("matmul_gflops".to_string(), flops / wall.max(1e-9) / 1e9);
    let snap = h2o_obs::snapshot();
    if let Some(h) = snap.histograms.get("bench_matmul_seconds") {
        metrics.insert("matmul_p50_ms".to_string(), h.p50 * 1e3);
        metrics.insert("matmul_p99_ms".to_string(), h.p99 * 1e3);
    }
    metrics
}

/// Extracts the shared search-scenario metric set from the global
/// registry: throughput, step quantiles, per-phase quantiles and shares.
fn search_metrics(candidates: usize, wall: f64) -> BTreeMap<String, f64> {
    let snap = h2o_obs::snapshot();
    let mut metrics = BTreeMap::new();
    metrics.insert("wall_seconds".to_string(), wall);
    metrics.insert("candidates_count".to_string(), candidates as f64);
    metrics.insert(
        "candidates_per_sec".to_string(),
        candidates as f64 / wall.max(1e-9),
    );
    if let Some(h) = snap.histograms.get("h2o_core_step_seconds") {
        metrics.insert("step_p50_ms".to_string(), h.p50 * 1e3);
        metrics.insert("step_p95_ms".to_string(), h.p95 * 1e3);
        metrics.insert("step_p99_ms".to_string(), h.p99 * 1e3);
    }
    let phase_sums: Vec<(&str, Option<&HistogramSnapshot>)> = PHASES
        .iter()
        .map(|phase| {
            let key = format!("h2o_core_phase_seconds{{phase=\"{phase}\"}}");
            (*phase, snap.histograms.get(&key))
        })
        .collect();
    let total: f64 = phase_sums
        .iter()
        .filter_map(|(_, h)| h.map(|h| h.sum))
        .sum();
    for (phase, h) in phase_sums {
        let Some(h) = h else { continue };
        if h.count == 0 {
            continue;
        }
        metrics.insert(format!("phase_{phase}_p50_ms"), h.p50 * 1e3);
        metrics.insert(format!("phase_{phase}_p99_ms"), h.p99 * 1e3);
        if total > 0.0 {
            metrics.insert(format!("phase_{phase}_share"), h.sum / total);
        }
    }
    metrics
}

/// One-line human summary of a scenario's headline numbers, used by the
/// `perf_baseline` progress output.
pub fn scenario_summary(name: &str, metrics: &BTreeMap<String, f64>) -> String {
    let mut parts = vec![format!("{name}:")];
    if let Some(v) = metrics.get("candidates_per_sec") {
        parts.push(format!("{v:.1} cand/s"));
    }
    if let Some(v) = metrics.get("sim_ops_per_sec") {
        parts.push(format!("{v:.1} sims/s"));
    }
    if let Some(v) = metrics.get("evals_per_sec") {
        parts.push(format!("{v:.1} evals/s"));
    }
    if let Some(v) = metrics.get("matmul_gflops") {
        parts.push(format!("{v:.2} GFLOP/s"));
    }
    if let Some(v) = metrics.get("step_p50_ms") {
        parts.push(format!("step p50 {v:.2} ms"));
    }
    if let Some(v) = metrics.get("cache_hit_rate") {
        parts.push(format!("hit rate {:.1}%", v * 100.0));
    }
    if let Some(v) = metrics.get("wall_seconds") {
        parts.push(format!("({})", seconds(*v)));
    }
    parts.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        let mut report = BenchReport::new("test");
        report.env.insert("git_rev".into(), "abc123".into());
        report
            .env
            .insert("note".into(), "quote \" and \\ back".into());
        let mut metrics = BTreeMap::new();
        metrics.insert("candidates_per_sec".to_string(), 123.456);
        metrics.insert("step_p50_ms".to_string(), 0.875);
        metrics.insert("phase_collect_share".to_string(), 0.7);
        report
            .scenarios
            .insert("parallel_w4_cache_on".to_string(), metrics);
        report
    }

    #[test]
    fn json_round_trips() {
        let report = sample_report();
        let json = report.to_json();
        let parsed = match BenchReport::from_json(&json) {
            Ok(r) => r,
            Err(e) => panic!("round trip failed: {e}"),
        };
        assert_eq!(parsed, report);
    }

    #[test]
    fn json_is_byte_stable() {
        let report = sample_report();
        assert_eq!(report.to_json(), report.to_json());
    }

    #[test]
    fn from_json_rejects_garbage_and_wrong_version() {
        assert!(BenchReport::from_json("not json").is_err());
        assert!(BenchReport::from_json("{\"schema_version\": 999}").is_err());
        assert!(BenchReport::from_json("{}").is_err(), "missing keys");
        // Arrays are outside the schema.
        assert!(BenchReport::from_json("[1, 2]").is_err());
    }

    #[test]
    fn direction_mapping() {
        assert_eq!(
            direction_of("candidates_per_sec"),
            Direction::HigherIsBetter
        );
        assert_eq!(direction_of("cache_hit_rate"), Direction::HigherIsBetter);
        assert_eq!(direction_of("matmul_gflops"), Direction::HigherIsBetter);
        assert_eq!(direction_of("step_p99_ms"), Direction::LowerIsBetter);
        assert_eq!(
            direction_of("phase_collect_p50_ms"),
            Direction::LowerIsBetter
        );
        assert_eq!(direction_of("phase_collect_share"), Direction::Unguarded);
        assert_eq!(direction_of("wall_seconds"), Direction::Unguarded);
        assert_eq!(direction_of("candidates_count"), Direction::Unguarded);
        assert_eq!(direction_of("something_else"), Direction::Unguarded);
    }

    fn report_with(metric: &str, value: f64) -> BenchReport {
        let mut report = BenchReport::new("t");
        let mut metrics = BTreeMap::new();
        metrics.insert(metric.to_string(), value);
        report.scenarios.insert("s".to_string(), metrics);
        report
    }

    #[test]
    fn diff_classifies_improvement_within_and_regression() {
        let baseline = report_with("candidates_per_sec", 100.0);
        for (current, expected) in [
            (140.0, DeltaStatus::Improved),
            (110.0, DeltaStatus::Within),
            (90.0, DeltaStatus::Within),
            (60.0, DeltaStatus::Regressed),
        ] {
            let diff = diff_reports(&baseline, &report_with("candidates_per_sec", current), 0.25);
            assert_eq!(diff.deltas.len(), 1);
            assert_eq!(diff.deltas[0].status, expected, "current = {current}");
        }
    }

    #[test]
    fn lower_is_better_flips_the_sign() {
        let baseline = report_with("step_p50_ms", 10.0);
        let faster = diff_reports(&baseline, &report_with("step_p50_ms", 5.0), 0.25);
        assert_eq!(faster.deltas[0].status, DeltaStatus::Improved);
        let slower = diff_reports(&baseline, &report_with("step_p50_ms", 20.0), 0.25);
        assert_eq!(slower.deltas[0].status, DeltaStatus::Regressed);
        assert_eq!(slower.regressions(), 1);
    }

    #[test]
    fn missing_guarded_metric_is_a_regression() {
        let baseline = report_with("candidates_per_sec", 100.0);
        let current = report_with("unrelated_per_sec", 1.0);
        let diff = diff_reports(&baseline, &current, 0.25);
        assert_eq!(diff.deltas.len(), 1);
        assert_eq!(diff.deltas[0].status, DeltaStatus::Missing);
        assert_eq!(diff.regressions(), 1);
    }

    #[test]
    fn unguarded_metrics_never_gate() {
        let baseline = report_with("wall_seconds", 1.0);
        let diff = diff_reports(&baseline, &report_with("wall_seconds", 100.0), 0.25);
        assert!(diff.deltas.is_empty());
        assert_eq!(diff.regressions(), 0);
    }

    #[test]
    fn new_metrics_in_current_are_ignored() {
        let baseline = report_with("candidates_per_sec", 100.0);
        let mut current = report_with("candidates_per_sec", 100.0);
        if let Some(m) = current.scenarios.get_mut("s") {
            m.insert("brand_new_per_sec".to_string(), 5.0);
        }
        let diff = diff_reports(&baseline, &current, 0.25);
        assert_eq!(diff.deltas.len(), 1, "only the shared metric is compared");
    }

    #[test]
    fn zipf_replay_is_hit_dominated_and_deterministic() {
        // The whole point of the scenario: under Zipf(1.1) popularity the
        // cached simulator serves most evals from the cache, and the hit
        // rate is a pure function of the pinned seed — so the committed
        // baseline gates it exactly like any other guarded metric.
        // Tiny space + small pool keep this fast in debug builds; the
        // committed baseline runs the production-truncated space.
        let first = zipf_replay_over(DlrmSpaceConfig::tiny(), 8, 64);
        let hit_rate = *first
            .get("cache_hit_rate")
            .expect("zipf replay reports a hit rate");
        assert!(
            hit_rate > 0.5,
            "expected a hit-dominated trace, got hit rate {hit_rate}"
        );
        let second = zipf_replay_over(DlrmSpaceConfig::tiny(), 8, 64);
        assert_eq!(
            first.get("cache_hit_rate"),
            second.get("cache_hit_rate"),
            "hit rate must be deterministic under the pinned seed"
        );
        assert!(first.contains_key("zipf_eval_p50_ms"));
        assert!(first.contains_key("zipf_eval_p99_ms"));
    }

    #[test]
    fn injected_regression_fails_the_strict_gate() {
        // The acceptance scenario end to end: take a baseline, synthetically
        // regress one guarded metric, and check the gate's exit code.
        let baseline = sample_report();
        let mut current = baseline.clone();
        if let Some(m) = current.scenarios.get_mut("parallel_w4_cache_on") {
            m.insert("candidates_per_sec".to_string(), 123.456 * 0.5);
        }
        let diff = diff_reports(&baseline, &current, DEFAULT_THRESHOLD);
        assert_eq!(diff.regressions(), 1);
        assert_eq!(diff_exit_code(diff.regressions(), true), 1);
        assert_eq!(diff_exit_code(diff.regressions(), false), 0, "warn-only");
    }

    #[test]
    fn exit_code_semantics() {
        assert_eq!(diff_exit_code(0, true), 0);
        assert_eq!(diff_exit_code(0, false), 0);
        assert_eq!(diff_exit_code(3, true), 1, "strict gate fails");
        assert_eq!(diff_exit_code(3, false), 0, "warn-only never fails");
    }

    #[test]
    fn zero_baseline_edge_cases() {
        assert_eq!(goodness_of(0.0, 0.0, Direction::HigherIsBetter), 0.0);
        assert_eq!(goodness_of(0.0, 5.0, Direction::HigherIsBetter), 1.0);
        assert_eq!(goodness_of(0.0, 5.0, Direction::LowerIsBetter), -1.0);
    }

    #[test]
    fn diff_render_mentions_regressions() {
        let baseline = report_with("candidates_per_sec", 100.0);
        let diff = diff_reports(&baseline, &report_with("candidates_per_sec", 10.0), 0.25);
        let rendered = diff.render();
        assert!(rendered.contains("REGRESSED"));
        assert!(rendered.contains("1 guarded metric(s)"));
    }
}
