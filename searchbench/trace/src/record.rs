//! Timing wrappers around the public layer boundaries, and the per-step
//! accounting that turns their records into the layer table.
//!
//! Every wrapper only observes: it forwards each call unchanged and
//! appends `(step, thread, layer, ns)` to a shared [`Log`].

use h2o_nas::ckpt::FileCheckpointSink;
use h2o_nas::core::{
    CandidateStage, CheckpointSink, EvalResult, OneShotSupernet, Policy, ResumeState,
    SearchSnapshot,
};
use h2o_nas::data::TrafficSource;
use h2o_nas::space::{ArchSample, SearchSpace};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// A layer whose calls the traced run times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// `DlrmSpace::decode`.
    Decode,
    /// The graph-build closure handed to `EvalBackend::training_cost`.
    GraphBuild,
    /// A simulator walk: a `training_cost` call that built a graph, minus
    /// the build.
    HwsimWalk,
    /// A `training_cost` call answered from the eval cache.
    EvalLookup,
    /// A `training_cost` call (or one-shot perf oracle call) answered by
    /// the performance model.
    EvalPredict,
    /// The DLRM quality model.
    Quality,
    /// `TrafficSource::next_batch`.
    DataBatch,
    /// `OneShotSupernet::apply_sample` + `quality` inside collect.
    SupernetEval,
    /// `OneShotSupernet::apply_sample` + `train_step_on` after the update.
    SupernetTrain,
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Rec {
    pub step: usize,
    pub thread: ThreadId,
    pub layer: Layer,
    pub ns: u64,
    /// Ran on an executor worker, concurrently with other shards.
    pub parallel: bool,
}

/// Shared sink for timing records, plus the step `SearchDriver` is on.
#[derive(Debug, Default)]
pub struct Log {
    recs: Mutex<Vec<Rec>>,
    graph_ops: Mutex<Vec<usize>>,
    step: AtomicUsize,
}

pub fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Log {
    /// Appends several records of the current step from this thread.
    pub fn push(&self, parallel: bool, items: &[(Layer, u64)]) {
        let step = self.step.load(Ordering::Relaxed);
        let thread = std::thread::current().id();
        let mut recs = self.recs.lock().expect("trace log poisoned");
        recs.extend(items.iter().map(|&(layer, ns)| Rec {
            step,
            thread,
            layer,
            ns,
            parallel,
        }));
    }

    pub fn push_graph_ops(&self, ops: usize) {
        self.graph_ops.lock().expect("trace log poisoned").push(ops);
    }

    pub fn records(&self) -> Vec<Rec> {
        self.recs.lock().expect("trace log poisoned").clone()
    }

    pub fn graph_ops(&self) -> Vec<usize> {
        self.graph_ops.lock().expect("trace log poisoned").clone()
    }
}

/// Wall-clock marks of one `SearchDriver` step, taken at the stage boundary.
#[derive(Debug, Clone, Copy)]
pub struct StepMarks {
    pub step: usize,
    pub start: Instant,
    pub collect_end: Instant,
    pub stage_ns: u64,
    pub stage_state_ns: u64,
    /// Start of the next step, or `SearchDriver::run` returning for a
    /// leg's last step.
    pub end: Option<Instant>,
}

/// Times a [`CandidateStage`]'s collect and post-update hooks.
pub struct TimedStage<S> {
    pub inner: S,
    log: Arc<Log>,
    pub marks: Vec<StepMarks>,
}

impl<S> TimedStage<S> {
    pub fn new(inner: S, log: Arc<Log>) -> Self {
        Self {
            inner,
            log,
            marks: Vec::new(),
        }
    }

    /// Closes the last step of a `SearchDriver::run` call.
    pub fn finish_leg(&mut self, at: Instant) {
        if let Some(last) = self.marks.last_mut() {
            last.end.get_or_insert(at);
        }
    }
}

impl<S: CandidateStage> CandidateStage for TimedStage<S> {
    fn step_span_name(&self) -> &'static str {
        self.inner.step_span_name()
    }

    fn steps_counter_name(&self) -> &'static str {
        self.inner.steps_counter_name()
    }

    fn collect(
        &mut self,
        step: usize,
        policy: &Policy,
    ) -> Result<Vec<(ArchSample, EvalResult)>, String> {
        let start = Instant::now();
        self.finish_leg(start);
        self.log.step.store(step, Ordering::Relaxed);
        let out = self.inner.collect(step, policy);
        self.marks.push(StepMarks {
            step,
            start,
            collect_end: Instant::now(),
            stage_ns: 0,
            stage_state_ns: 0,
            end: None,
        });
        out
    }

    fn after_policy_update(&mut self, candidates: &[(ArchSample, EvalResult)], rewards: &[f64]) {
        let t = Instant::now();
        self.inner.after_policy_update(candidates, rewards);
        if let Some(last) = self.marks.last_mut() {
            last.stage_ns = elapsed_ns(t);
        }
    }

    fn restore(&mut self, state: &ResumeState) {
        self.inner.restore(state);
    }

    fn checkpoint_state(&mut self) -> Option<Vec<u8>> {
        let t = Instant::now();
        let out = self.inner.checkpoint_state();
        if let Some(last) = self.marks.last_mut() {
            last.stage_state_ns = elapsed_ns(t);
        }
        out
    }
}

/// One checkpoint write seen by [`TimedSink`].
#[derive(Debug, Clone, Copy)]
pub struct CkptWrite {
    pub steps_done: usize,
    pub ns: u64,
    pub bytes: u64,
}

/// Times the file sink's writes and records each snapshot's size.
pub struct TimedSink {
    pub inner: FileCheckpointSink,
    pub writes: Vec<CkptWrite>,
}

impl CheckpointSink for TimedSink {
    fn should_checkpoint(&self, steps_done: usize) -> bool {
        self.inner.should_checkpoint(steps_done)
    }

    fn on_checkpoint(&mut self, snapshot: &SearchSnapshot<'_>) -> Result<(), String> {
        let t = Instant::now();
        self.inner.on_checkpoint(snapshot)?;
        let ns = elapsed_ns(t);
        let path = self.inner.store().path_for(snapshot.steps_done);
        let bytes = std::fs::metadata(&path)
            .map_err(|e| format!("sizing {}: {e}", path.display()))?
            .len();
        self.writes.push(CkptWrite {
            steps_done: snapshot.steps_done,
            ns,
            bytes,
        });
        Ok(())
    }
}

/// Times a one-shot super-network's quality and training calls.
pub struct TimedSupernet<S> {
    pub inner: S,
    log: Arc<Log>,
    /// Time of the latest `apply_sample`, charged to the call it precedes.
    pending_apply_ns: u64,
}

impl<S> TimedSupernet<S> {
    pub fn new(inner: S, log: Arc<Log>) -> Self {
        Self {
            inner,
            log,
            pending_apply_ns: 0,
        }
    }
}

impl<S: OneShotSupernet> OneShotSupernet for TimedSupernet<S> {
    type Batch = S::Batch;

    fn search_space(&self) -> &SearchSpace {
        self.inner.search_space()
    }

    fn apply_sample(&mut self, sample: &ArchSample) {
        let t = Instant::now();
        self.inner.apply_sample(sample);
        self.pending_apply_ns = elapsed_ns(t);
    }

    fn quality(&mut self, batch: &Self::Batch) -> f64 {
        let t = Instant::now();
        let q = self.inner.quality(batch);
        let ns = self.pending_apply_ns + elapsed_ns(t);
        self.log.push(false, &[(Layer::SupernetEval, ns)]);
        q
    }

    fn train_step_on(&mut self, batch: &Self::Batch) {
        let t = Instant::now();
        self.inner.train_step_on(batch);
        let ns = self.pending_apply_ns + elapsed_ns(t);
        self.log.push(false, &[(Layer::SupernetTrain, ns)]);
    }

    fn save_state(&self) -> Vec<u8> {
        self.inner.save_state()
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.inner.load_state(bytes)
    }
}

/// Times a traffic source's batch generation.
pub struct TimedSource<T> {
    pub inner: T,
    pub log: Arc<Log>,
}

impl<T: TrafficSource> TrafficSource for TimedSource<T> {
    type Batch = T::Batch;

    fn next_batch(&mut self, n: usize) -> T::Batch {
        let t = Instant::now();
        let batch = self.inner.next_batch(n);
        self.log.push(false, &[(Layer::DataBatch, elapsed_ns(t))]);
        batch
    }
}

/// Per-step policy timings from the replay, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct PolicyTimes {
    pub sample_ns: u64,
    pub update_ns: u64,
    pub entropy_ns: u64,
}

/// How the stage ran policy sampling: on the executor next to the shard
/// evaluations, or serially on the controller thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleSite {
    Parallel,
    Serial,
}

/// Sum and count of one layer's records.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotal {
    pub ns: u64,
    pub calls: u64,
}

impl LayerTotal {
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64 / 1e3
        }
    }
}

/// The whole-run layer table, as step means unless noted.
#[derive(Debug, Default)]
pub struct StepTable {
    pub steps: usize,
    pub wall_us: f64,
    pub collect_overhead_us: f64,
    pub policy_us: f64,
    pub unattributed_us: f64,
    pub totals: HashMap<Layer, LayerTotal>,
}

/// Builds the layer table from the stage marks, timing records, replayed
/// policy timings and checkpoint writes.
///
/// Inside `collect`, parallel shard work is scaled to the critical path:
/// each layer keeps its share of the busiest thread's work. Whatever of
/// `collect` that path and the serial records do not cover is executor
/// overhead. Outside `collect`, the step minus the policy update, entropy,
/// stage hook and checkpoint is unattributed.
pub fn step_table(
    marks: &[StepMarks],
    recs: &[Rec],
    policy: &[PolicyTimes],
    ckpt: &[CkptWrite],
    site: SampleSite,
) -> StepTable {
    let mut by_step: HashMap<usize, Vec<&Rec>> = HashMap::new();
    let mut totals: HashMap<Layer, LayerTotal> = HashMap::new();
    for rec in recs {
        by_step.entry(rec.step).or_default().push(rec);
        let total = totals.entry(rec.layer).or_default();
        total.ns += rec.ns;
        total.calls += 1;
    }
    let ckpt_by_step: HashMap<usize, u64> = ckpt.iter().map(|w| (w.steps_done - 1, w.ns)).collect();
    let mut table = StepTable {
        totals,
        ..Default::default()
    };
    for mark in marks {
        let Some(end) = mark.end else { continue };
        let wall = end.duration_since(mark.start).as_nanos() as f64;
        let collect = mark.collect_end.duration_since(mark.start).as_nanos() as f64;
        let step_recs = by_step.get(&mark.step).map(Vec::as_slice).unwrap_or(&[]);
        let mut per_thread: HashMap<ThreadId, f64> = HashMap::new();
        let mut serial = 0.0;
        for rec in step_recs.iter().filter(|r| r.layer != Layer::SupernetTrain) {
            if rec.parallel {
                *per_thread.entry(rec.thread).or_default() += rec.ns as f64;
            } else {
                serial += rec.ns as f64;
            }
        }
        let work: f64 = per_thread.values().sum();
        let critical = per_thread.values().cloned().fold(0.0, f64::max);
        let scale = if work > 0.0 { critical / work } else { 1.0 };
        let times = policy.get(mark.step).copied().unwrap_or_default();
        let sample = match site {
            SampleSite::Parallel => times.sample_ns as f64 * scale,
            SampleSite::Serial => times.sample_ns as f64,
        };
        let overhead = collect - critical - serial - sample;
        let ckpt_ns = ckpt_by_step.get(&mark.step).copied().unwrap_or(0) as f64;
        let attributed = collect
            + times.update_ns as f64
            + times.entropy_ns as f64
            + mark.stage_ns as f64
            + mark.stage_state_ns as f64
            + ckpt_ns;
        table.steps += 1;
        table.wall_us += wall / 1e3;
        table.collect_overhead_us += overhead / 1e3;
        table.policy_us += (sample + times.update_ns as f64 + times.entropy_ns as f64) / 1e3;
        table.unattributed_us += (wall - attributed) / 1e3;
    }
    let n = table.steps.max(1) as f64;
    table.wall_us /= n;
    table.collect_overhead_us /= n;
    table.policy_us /= n;
    table.unattributed_us /= n;
    table
}
