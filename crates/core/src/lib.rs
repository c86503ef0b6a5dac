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
//! * [`parallel_search`] — the sharded search loop: every virtual
//!   accelerator samples its own candidate, rewards drive one cross-shard
//!   policy update (threads stand in for TPU cores).
//! * [`unified_search`] / [`tunas_search`] — one-shot search over the
//!   *real trainable* DLRM super-network, with the in-memory pipeline's
//!   α-before-W ordering enforced per batch; the TuNAS variant is the
//!   alternating two-stream baseline the paper improves upon.
//! * [`pareto`] — Pareto fronts and the bucketised comparisons of Fig. 5.
//! * [`parallel_search_with`] / [`unified_search_with`] /
//!   [`tunas_search_with`] — the same loops with crash-safe
//!   checkpoint/resume hooks ([`CheckpointSink`]); the `h2o-ckpt` crate
//!   provides the durable on-disk sink.
//! * [`DistributedStage`] — the parallel fan-out stretched across worker
//!   *processes* over a [`h2o_exec::DistributedPool`]; sampling stays
//!   local and replies merge in submission order, so the outcome is
//!   byte-identical to the in-process loop for any node count.
//!
//! All three search flavors are thin wrappers over one controller engine:
//! [`SearchDriver`] owns the invariant per-step loop (reward → baseline
//! EMA → cross-shard REINFORCE → telemetry → checkpoint) and a
//! [`CandidateStage`] supplies the flavor-specific candidate production
//! ([`ParallelStage`], [`UnifiedStage`], [`TunasStage`]). Custom stages
//! plug into the same engine — see [`SearchDriver`] for an example.
//!
//! # Examples
//!
//! ```
//! use h2o_core::{parallel_search, RewardFn, RewardKind, PerfObjective, SearchConfig,
//!                EvalResult};
//! use h2o_space::{SearchSpace, Decision, ArchSample};
//!
//! let mut space = SearchSpace::new("toy");
//! space.push(Decision::new("width", 8));
//! let reward = RewardFn::new(RewardKind::Relu,
//!     vec![PerfObjective::new("cost", 4.0, -20.0)]);
//! let outcome = parallel_search(
//!     &space,
//!     &reward,
//!     |_shard| |s: &ArchSample| EvalResult {
//!         quality: s[0] as f64,           // bigger is more accurate...
//!         perf_values: vec![s[0] as f64], // ...and slower
//!     },
//!     &SearchConfig { steps: 100, shards: 4, ..Default::default() },
//! );
//! assert_eq!(outcome.best[0], 4, "the target-width candidate wins");
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
pub use oneshot::{
    tunas_search, tunas_search_with, unified_search, unified_search_with, OneShotConfig, TunasStage,
};
pub use oneshot_generic::{
    unified_search_over, unified_search_over_with, OneShotSupernet, UnifiedStage,
};
pub use policy::{Policy, RewardBaseline};
pub use resume::{CheckpointSink, ResumeState, SearchSnapshot};
pub use reward::{PerfObjective, RewardFn, RewardKind};
pub use search::{
    parallel_search, parallel_search_with, shard_seed, ArchEvaluator, EvalResult,
    EvaluatedCandidate, ParallelStage, SearchConfig, SearchOutcome, StepRecord,
};
