//! # h2o-nas — Hyperscale Hardware Optimized Neural Architecture Search
//!
//! A full-system Rust reproduction of **"Hyperscale Hardware Optimized
//! Neural Architecture Search"** (Li et al., ASPLOS 2023): a production
//! NAS system that Pareto-optimizes ML models for datacenter accelerators.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`core`] (`h2o-core`) — the massively parallel one-shot RL search
//!   algorithm, ReLU multi-objective rewards, Pareto utilities.
//! * [`space`] (`h2o-space`) — hardware-optimized CNN / ViT / DLRM search
//!   spaces and the weight-sharing DLRM super-network.
//! * [`hwsim`] (`h2o-hwsim`) — the TPUv4 / TPUv4i / V100 roofline
//!   performance, power and energy simulator.
//! * [`perfmodel`] (`h2o-perfmodel`) — the two-phase (pretrain + finetune)
//!   MLP performance model.
//! * [`data`] (`h2o-data`) — the in-memory use-once data pipeline and
//!   synthetic production traffic.
//! * [`exec`] (`h2o-exec`) — the work-stealing parallel evaluation
//!   executor with deterministic submission-order reduction.
//! * [`ckpt`] (`h2o-ckpt`) — crash-safe, versioned checkpoint files with
//!   atomic writes, checksums, and config fingerprints for resumable
//!   searches.
//! * [`obs`] (`h2o-obs`) — the observability layer: metrics registry, span
//!   timers and Prometheus / JSON / Chrome-trace exporters.
//! * [`eval`] (`h2o-eval`) — the unified evaluation-backend layer: the
//!   `BackendSpec → EvalBackend` factory behind every evaluator
//!   (simulator / cached / model-served) and the [`eval::EvalScenario`]
//!   recipe all execution paths share.
//! * [`distributed`] — multi-process search plumbing shared by the CLI's
//!   `--nodes` controller side and its `node-worker` subprocess mode:
//!   the worker serve loop and local cluster spawning.
//! * [`graph`] (`h2o-graph`) — the HLO-like operator IR.
//! * [`tensor`] (`h2o-tensor`) — the minimal dense NN training substrate.
//! * [`models`] (`h2o-models`) — CoAtNet(-H), EfficientNet-X/H, DLRM(-H)
//!   and the calibrated quality surrogates.
//!
//! See `README.md` for a quickstart, `DESIGN.md` for the system inventory
//! and substitution rationale, and `EXPERIMENTS.md` for paper-vs-measured
//! results for every table and figure.
//!
//! # Examples
//!
//! Search a toy space against a hardware-aware reward. Every search is a
//! stage handed to the one entry point, the [`core::SearchDriver`]
//! controller engine — swap the stage to search a trainable super-network
//! ([`core::UnifiedStage`]) or bring your own [`core::CandidateStage`]:
//!
//! ```
//! use h2o_nas::core::{EvalResult, ParallelStage, PerfObjective, RewardFn, RewardKind,
//!                     SearchConfig, SearchDriver};
//! use h2o_nas::space::{ArchSample, Decision, SearchSpace};
//!
//! let mut space = SearchSpace::new("demo");
//! space.push(Decision::new("width", 8));
//! let reward = RewardFn::new(RewardKind::Relu,
//!     vec![PerfObjective::new("latency", 4.0, -20.0)]);
//! let config = SearchConfig { steps: 80, shards: 4, ..Default::default() };
//! let mut stage = ParallelStage::new(
//!     |_| |s: &ArchSample| EvalResult { quality: s[0] as f64, perf_values: vec![s[0] as f64] },
//!     &config,
//! );
//! let outcome = SearchDriver::new(&space, &reward, config).run(&mut stage, None, None)?;
//! assert_eq!(outcome.best[0], 4);
//! # Ok::<(), h2o_nas::core::DriverError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod distributed;

pub use h2o_ckpt as ckpt;
pub use h2o_core as core;
pub use h2o_data as data;
pub use h2o_eval as eval;
pub use h2o_exec as exec;
pub use h2o_graph as graph;
pub use h2o_hwsim as hwsim;
pub use h2o_models as models;
pub use h2o_obs as obs;
pub use h2o_perfmodel as perfmodel;
pub use h2o_space as space;
pub use h2o_tensor as tensor;
