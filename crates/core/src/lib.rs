//! # h2o-core — the H2O-NAS search algorithm
//!
//! The paper's first pillar: a massively parallel one-shot RL search that
//! learns the architecture policy `π` and the shared weights `W` in a
//! **unified single step** per batch (§4, Fig. 2), plus the third pillar's
//! multi-objective rewards (§6.1):
//!
//! * [`Policy`] — independent multinomials over categorical decisions,
//!   trained with cross-shard REINFORCE; the final architecture is the
//!   per-decision argmax.
//! * [`RewardFn`] — the single-sided **ReLU reward** (Eq. 1) and the TuNAS
//!   absolute-value baseline (Eq. 2), over any number of performance
//!   objectives ([`PerfObjective`]).
//! * [`SearchDriver`] — the one search entry point: the single-step
//!   controller loop (reward → baseline EMA → cross-shard REINFORCE →
//!   telemetry → checkpoint) over a [`CandidateStage`] that produces each
//!   step's candidates. [`SearchDriver::run`] returns a typed
//!   [`DriverError`] for bad input (zero shards or steps, a resume state
//!   that does not fit) and for mid-run failures, never a panic.
//! * [`ParallelStage`] — the sharded search: every virtual accelerator
//!   samples and evaluates its own candidate (threads stand in for TPU
//!   cores).
//! * [`UnifiedStage`] / [`TunasStage`] — one-shot search over a *real
//!   trainable* super-network ([`OneShotSupernet`]), with the in-memory
//!   pipeline's α-before-W ordering enforced per batch; the TuNAS variant
//!   is the alternating two-stream baseline the paper improves upon.
//! * [`DistributedStage`] — the parallel fan-out stretched across worker
//!   *processes* over a [`h2o_exec::DistributedPool`]; sampling stays
//!   local and replies merge in submission order, so the outcome is
//!   byte-identical to the in-process loop for any node count.
//! * [`CheckpointSink`] / [`ResumeState`] — crash-safe checkpoint/resume
//!   for every stage; the `h2o-ckpt` crate provides the durable on-disk
//!   sink.
//! * [`pareto`] — Pareto fronts and the bucketised comparisons of Fig. 5.
//!
//! Custom stages plug into the same engine — see [`SearchDriver`] for an
//! example.
//!
//! # Examples
//!
//! ```
//! use h2o_core::{EvalResult, ParallelStage, PerfObjective, RewardFn, RewardKind, SearchConfig,
//!                SearchDriver};
//! use h2o_space::{SearchSpace, Decision, ArchSample};
//!
//! let mut space = SearchSpace::new("toy");
//! space.push(Decision::new("width", 8));
//! let reward = RewardFn::new(RewardKind::Relu,
//!     vec![PerfObjective::new("cost", 4.0, -20.0)]);
//! let config = SearchConfig { steps: 100, shards: 4, ..Default::default() };
//! let mut stage = ParallelStage::new(
//!     |_shard| |s: &ArchSample| EvalResult {
//!         quality: s[0] as f64,           // bigger is more accurate...
//!         perf_values: vec![s[0] as f64], // ...and slower
//!     },
//!     &config,
//! );
//! let outcome = SearchDriver::new(&space, &reward, config).run(&mut stage, None, None)?;
//! assert_eq!(outcome.best[0], 4, "the target-width candidate wins");
//! # Ok::<(), h2o_core::DriverError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod baselines;
mod distributed;
mod driver;
mod oneshot;
mod oneshot_generic;
pub mod pareto;
mod policy;
mod resume;
mod reward;
mod search;
pub mod telemetry;

pub use baselines::{evolution_search, random_search, BaselineOutcome, EvolutionConfig};
pub use distributed::{
    decode_eval_job, decode_eval_result, encode_eval_job, encode_eval_result, DistributedStage,
};
pub use driver::{
    CandidateStage, ControllerConfig, DriverError, SearchDriver, NON_FINITE_REWARD_PENALTY, PHASES,
};
pub use oneshot::{OneShotConfig, TunasStage};
pub use oneshot_generic::{OneShotSupernet, UnifiedStage};
pub use policy::{Policy, RewardBaseline};
pub use resume::{CheckpointSink, ResumeState, SearchSnapshot};
pub use reward::{PerfObjective, RewardFn, RewardKind};
pub use search::{
    shard_seed, ArchEvaluator, EvalResult, EvaluatedCandidate, ParallelStage, SearchConfig,
    SearchOutcome, StepRecord,
};
