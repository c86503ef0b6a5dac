//! The evaluation backend layer: one [`EvalBackend`] abstraction behind
//! every candidate evaluation in the workspace, with three
//! implementations — [`EvalBackend::Simulator`] (a plain roofline walk
//! per candidate), [`EvalBackend::Cached`] (the memoizing
//! `CachedSimulator` wiring), and [`EvalBackend::ModelServed`] (the
//! paper's §6.2.3 serving mode: a pretrained MLP performance model
//! answers the hot path, a novelty gate routes out-of-distribution
//! candidates to the simulator, and the resulting ground truth feeds an
//! online fine-tuning buffer).
//!
//! # Determinism contract
//!
//! Every backend must be **value-invisible to process topology**: the
//! cost returned for a sample is a pure function of `(sample, spec)`,
//! never of which shard, worker thread, or node process evaluated it, or
//! in what order. For the simulator and cache that is free (memoization
//! returns the exact simulated triple). For the model-served backend it
//! is enforced by the *frozen-generation rule*:
//!
//! * The **gate** decision (serve vs fall back) is a pure function of the
//!   candidate's feature vector and the generation-0 model — a model
//!   every process reconstructs identically from the spec's seed, because
//!   pretraining draws its pool from a seeded RNG and labels it with the
//!   deterministic simulator.
//! * The **served value** always comes from that same frozen generation-0
//!   model.
//! * The **online fine-tune loop** accrues fallback ground truth into a
//!   buffer (deduplicated by canonical architecture key) and retrains a
//!   *refined* copy of the model every `finetune_cadence` distinct
//!   fallback keys. The refined generation never serves inside the run —
//!   its training data depends on which process saw which candidate, so
//!   serving it would make CSV bytes depend on topology. It is the
//!   artifact a *subsequent* search warms up from
//!   ([`ModelServedBackend::refined_model`]).
//!
//! The seen-key store therefore drives buffer dedup and cadence, not
//! routing: two processes that disagree on "have I seen this key" still
//! return bit-identical costs.

use crate::scenario::Domain;
use h2o_hwsim::{CachedSimulator, EvalCache, EvalCost, HardwareConfig, Simulator, SystemConfig};
use h2o_perfmodel::{Featurizer, PerfModel, PerfTargets, TrainConfig};
use h2o_space::{ArchSample, SearchSpace};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Model-served backend parameters. All of them change served values, so
/// all of them are part of the scenario handshake fingerprint — unlike
/// cache capacity, which is value-invisible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelSpec {
    /// Novelty gate threshold in z-units: a candidate whose predicted
    /// log-time sits more than this many target standard deviations from
    /// the pretraining distribution falls back to the simulator. Negative
    /// values force every candidate through the fallback path.
    pub gate_threshold: f64,
    /// Fine-tune the refined model after every this-many *distinct*
    /// fallback keys (must be at least 2 — a least-squares calibration
    /// needs two points).
    pub finetune_cadence: usize,
    /// Simulator-labelled samples in the pretraining pool.
    pub pretrain_pool: usize,
    /// Seed for the pretraining pool sampler and the model's weight init.
    pub seed: u64,
}

impl Default for ModelSpec {
    fn default() -> Self {
        Self {
            gate_threshold: 2.5,
            finetune_cadence: 16,
            pretrain_pool: 96,
            seed: 0,
        }
    }
}

/// The full recipe for constructing an [`EvalBackend`] — the one value
/// every construction site (facade scenario, CLI, bench harness, tests)
/// hands to the factory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BackendSpec {
    /// Plain simulator, no memoization.
    Simulator,
    /// Memoizing simulator with this cache capacity.
    Cached {
        /// Maximum entries in the shared eval cache.
        // h2o-lint: allow(fingerprint-completeness) -- cache capacity is
        // value-invisible memoization: results are bit-identical across cache
        // states (cache_transparency tier-1 tests), so it stays out of the
        // scenario handshake descriptor by design.
        capacity: usize,
    },
    /// Model-served hot path with a simulator fallback.
    ModelServed {
        /// Cache capacity of the fallback simulator, or `None` to
        /// simulate every fallback candidate uncached.
        // h2o-lint: allow(fingerprint-completeness) -- value-invisible memoization,
        // same argument as `capacity` above.
        fallback_capacity: Option<usize>,
        /// Gate / fine-tuning parameters.
        model: ModelSpec,
    },
}

impl BackendSpec {
    /// Validates spec invariants the factory relies on.
    ///
    /// # Errors
    ///
    /// A cache capacity of zero, a NaN or infinite gate threshold, a
    /// fine-tune cadence below 2 (calibration needs two points) or an empty
    /// pretraining pool.
    pub fn validate(&self) -> Result<(), String> {
        if matches!(
            self,
            BackendSpec::Cached { capacity: 0 }
                | BackendSpec::ModelServed {
                    fallback_capacity: Some(0),
                    ..
                }
        ) {
            return Err("the eval cache capacity must be at least 1".into());
        }
        if let BackendSpec::ModelServed { model, .. } = self {
            if !model.gate_threshold.is_finite() {
                return Err(format!(
                    "--gate-threshold must be finite, got {}",
                    model.gate_threshold
                ));
            }
            if model.finetune_cadence < 2 {
                return Err("--finetune-cadence must be at least 2".into());
            }
            if model.pretrain_pool < 2 {
                return Err("the model backend needs a pretraining pool of at least 2".into());
            }
        }
        Ok(())
    }

    /// The part of the spec that changes evaluation *values*, rendered
    /// into the scenario handshake descriptor. Cache capacities are
    /// value-invisible memoization and stay out; every model parameter is
    /// value-visible and goes in.
    pub fn value_descriptor(&self) -> String {
        match self {
            BackendSpec::Simulator | BackendSpec::Cached { .. } => String::new(),
            BackendSpec::ModelServed { model, .. } => format!(
                "|model|g{}|c{}|p{}|s{}",
                model.gate_threshold, model.finetune_cadence, model.pretrain_pool, model.seed
            ),
        }
    }
}

/// Counters shared with the observability export: served, fallback, and
/// fine-tune-round totals for the model backend.
const SERVED_TOTAL: &str = "h2o_eval_served_total";
const FALLBACK_TOTAL: &str = "h2o_eval_fallback_total";
const FINETUNE_ROUNDS_TOTAL: &str = "h2o_eval_finetune_rounds_total";

/// One evaluation backend, cheap to clone: clones share the cache and the
/// fine-tuning state, exactly like [`EvalCache`] handles. Build one per
/// process through [`EvalBackend::build`] and clone it into each shard's
/// evaluator.
#[derive(Debug, Clone)]
pub enum EvalBackend {
    /// Plain roofline simulation per candidate.
    Simulator(Simulator),
    /// Memoized simulation.
    Cached(CachedSimulator),
    /// Model-served hot path with gated simulator fallback.
    ModelServed(ModelServedBackend),
}

impl EvalBackend {
    /// The `BackendSpec → EvalBackend` factory: the single construction
    /// path every evaluator in the workspace goes through.
    ///
    /// For the model backend this pretrains the generation-0 performance
    /// model on `spec.pretrain_pool` simulator-labelled samples of the
    /// domain's space — a deterministic function of the spec, so every
    /// process of a distributed run reconstructs the identical model.
    ///
    /// # Errors
    ///
    /// Invalid spec parameters, or a domain the model backend cannot
    /// serve: the vision quality surrogates consume simulated parameter
    /// counts, which a time-only performance model does not produce, so
    /// `ModelServed` currently supports the DLRM domain alone.
    pub fn build(spec: &BackendSpec, domain: Domain) -> Result<EvalBackend, String> {
        spec.validate()?;
        let sim = Simulator::new(HardwareConfig::tpu_v4());
        match spec {
            BackendSpec::Simulator => Ok(EvalBackend::Simulator(sim)),
            BackendSpec::Cached { capacity } => Ok(EvalBackend::Cached(CachedSimulator::new(
                sim,
                EvalCache::new(*capacity),
            ))),
            BackendSpec::ModelServed {
                fallback_capacity,
                model,
            } => {
                if domain != Domain::Dlrm {
                    return Err(format!(
                        "--eval-backend model does not support the {} domain: its quality \
                         surrogate consumes simulated parameter counts, which the \
                         performance model does not predict (use dlrm, or sim|cached)",
                        domain.name()
                    ));
                }
                Ok(EvalBackend::ModelServed(ModelServedBackend::pretrain(
                    &sim,
                    *fallback_capacity,
                    *model,
                )))
            }
        }
    }

    /// Memoized/served training-step cost of the architecture identified
    /// by `key`. `build` runs only when the backend actually simulates
    /// (always for `Simulator`, on cache misses for `Cached`, on gate
    /// fallback for `ModelServed`).
    pub fn training_cost(
        &self,
        sample: &ArchSample,
        key: u64,
        system: &SystemConfig,
        build: impl FnOnce() -> h2o_graph::Graph,
    ) -> EvalCost {
        match self {
            EvalBackend::Simulator(sim) => {
                EvalCost::from_report(&sim.simulate_training(&build(), system))
            }
            EvalBackend::Cached(cached) => cached.training_cost(key, system, build),
            EvalBackend::ModelServed(served) => served.training_cost(sample, key, system, build),
        }
    }

    /// The model-served state, when this backend has one (for end-of-run
    /// reporting).
    pub fn model_served(&self) -> Option<&ModelServedBackend> {
        match self {
            EvalBackend::ModelServed(served) => Some(served),
            _ => None,
        }
    }

    /// The eval cache this backend memoizes through, if any (the cached
    /// backend's table, or the model backend's fallback cache).
    pub fn cache(&self) -> Option<&EvalCache> {
        match self {
            EvalBackend::Simulator(_) => None,
            EvalBackend::Cached(cached) => Some(cached.cache()),
            EvalBackend::ModelServed(served) => served.fallback_cache(),
        }
    }
}

/// Mutable fine-tuning state shared by all clones of one model backend.
#[derive(Debug)]
struct Learner {
    /// Canonical keys of every fallback candidate whose ground truth is
    /// already buffered (dedup + cadence; never routing).
    seen: BTreeSet<u64>,
    /// Fine-tuning buffer: features and ground-truth targets.
    xs: Vec<Vec<f32>>,
    ys: Vec<PerfTargets>,
    /// The refined generation: starts as a copy of the frozen model and
    /// absorbs one fine-tune round per cadence tick.
    refined: PerfModel,
    rounds: u64,
    fallback: u64,
}

/// The model-served evaluation hot path (§6.2.3): batched MLP inference
/// answers in-distribution candidates, the novelty gate routes the rest
/// to the (cached) simulator, and fallback ground truth fine-tunes a
/// refined model generation on a fixed cadence.
#[derive(Clone)]
pub struct ModelServedBackend {
    /// Generation 0: serves and gates for the whole run (see the module
    /// docs' frozen-generation rule).
    frozen: Arc<PerfModel>,
    featurizer: Arc<Featurizer>,
    spec: ModelSpec,
    /// Ground-truth path for gated-out candidates: the plain or the cached
    /// simulator backend.
    fallback: Box<EvalBackend>,
    learner: Arc<Mutex<Learner>>,
    served: Arc<AtomicU64>,
}

impl std::fmt::Debug for ModelServedBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelServedBackend")
            .field("spec", &self.spec)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Serving statistics of one model backend (aggregated over all clones).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModelServeStats {
    /// Candidates answered by the frozen model.
    pub served: u64,
    /// Candidates routed to the simulator by the novelty gate.
    pub fallback: u64,
    /// Fine-tune rounds the refined generation absorbed.
    pub finetune_rounds: u64,
    /// Distinct ground-truth measurements in the fine-tuning buffer.
    pub buffered: usize,
}

impl ModelServeStats {
    /// Fraction of evaluations served by the model, in `[0, 1]`.
    pub fn served_share(&self) -> f64 {
        let total = self.served + self.fallback;
        if total == 0 {
            0.0
        } else {
            self.served as f64 / total as f64
        }
    }
}

/// Pretraining hyper-parameters for the generation-0 model: a small MLP
/// fitted well enough that in-distribution candidates predict inside the
/// target spread (the novelty gate's operating assumption). The hidden
/// width is a serving-latency knob: the first-layer matvec
/// (`featurizer.dim() × width`) dominates the per-candidate forward, so
/// the width is kept at the smallest size whose pretrain loss still
/// separates the target spread.
const PRETRAIN_HIDDEN: &[usize] = &[16, 16];
const PRETRAIN_EPOCHS: usize = 12;
const PRETRAIN_BATCH: usize = 32;

impl ModelServedBackend {
    /// Builds and pretrains the backend: samples `spec.pretrain_pool`
    /// architectures from the DLRM space with a seeded RNG, labels them
    /// with the simulator (training-step and serving latency), and fits
    /// the dual-head model. Deterministic for a fixed spec.
    fn pretrain(sim: &Simulator, fallback_capacity: Option<usize>, spec: ModelSpec) -> Self {
        let space = crate::scenario::dlrm_space();
        let featurizer = Featurizer::from_space(space.space());
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mut xs = Vec::with_capacity(spec.pretrain_pool);
        let mut ys = Vec::with_capacity(spec.pretrain_pool);
        let system = SystemConfig::training_pod();
        for _ in 0..spec.pretrain_pool {
            let sample = space.space().sample_uniform(&mut rng);
            let graph = space.decode(&sample).build_graph(64, 128);
            let training = sim.simulate_training(&graph, &system).time;
            let serving = sim.simulate(&graph).time;
            xs.push(featurizer.featurize(&sample));
            ys.push(PerfTargets { training, serving });
        }
        let mut model = PerfModel::new(featurizer.dim(), PRETRAIN_HIDDEN, spec.seed);
        model.pretrain(
            &xs,
            &ys,
            TrainConfig {
                epochs: PRETRAIN_EPOCHS,
                batch_size: PRETRAIN_BATCH,
                lr: 1e-3,
            },
        );
        let refined = model.clone();
        let fallback = Box::new(match fallback_capacity {
            Some(capacity) => {
                EvalBackend::Cached(CachedSimulator::new(sim.clone(), EvalCache::new(capacity)))
            }
            None => EvalBackend::Simulator(sim.clone()),
        });
        Self {
            frozen: Arc::new(model),
            featurizer: Arc::new(featurizer),
            spec,
            fallback,
            learner: Arc::new(Mutex::new(Learner {
                seen: BTreeSet::new(),
                xs: Vec::new(),
                ys: Vec::new(),
                refined,
                rounds: 0,
                fallback: 0,
            })),
            served: Arc::new(AtomicU64::new(0)),
        }
    }

    /// One gated evaluation. The served path is lock-free (the frozen
    /// model is immutable and shared); only the fallback path — already
    /// paying for a simulator walk — takes the learner lock.
    fn training_cost(
        &self,
        sample: &ArchSample,
        key: u64,
        system: &SystemConfig,
        build: impl FnOnce() -> h2o_graph::Graph,
    ) -> EvalCost {
        let features = self.featurizer.featurize(sample);
        let row = self.frozen.infer_one(&features);
        if row.novelty <= self.spec.gate_threshold {
            self.served.fetch_add(1, Ordering::Relaxed);
            h2o_obs::counter(SERVED_TOTAL).inc();
            return EvalCost {
                latency: row.prediction.training,
                energy: 0.0,
                memory_bytes: 0.0,
                params: 0.0,
            };
        }
        h2o_obs::counter(FALLBACK_TOTAL).inc();
        let truth = self.fallback.training_cost(sample, key, system, build);
        let mut learner = self.learner.lock();
        learner.fallback += 1;
        if learner.seen.insert(key) {
            learner.xs.push(features);
            // The training head gets measured ground truth; the serving
            // head is anchored to its own prediction — a search produces
            // no serving-path measurements, and a drifting anchor would
            // corrupt the head.
            learner.ys.push(PerfTargets {
                training: truth.latency,
                serving: row.prediction.serving,
            });
            if learner
                .seen
                .len()
                .is_multiple_of(self.spec.finetune_cadence)
            {
                let Learner {
                    xs, ys, refined, ..
                } = &mut *learner;
                refined.finetune(
                    xs,
                    ys,
                    TrainConfig {
                        epochs: 30,
                        batch_size: 8,
                        lr: 1e-4,
                    },
                );
                learner.rounds += 1;
                h2o_obs::counter(FINETUNE_ROUNDS_TOTAL).inc();
            }
        }
        truth
    }

    /// Aggregated serving statistics across all clones.
    pub fn stats(&self) -> ModelServeStats {
        let learner = self.learner.lock();
        ModelServeStats {
            served: self.served.load(Ordering::Relaxed),
            fallback: learner.fallback,
            finetune_rounds: learner.rounds,
            buffered: learner.xs.len(),
        }
    }

    /// A snapshot of the refined generation — the online fine-tuning
    /// product a subsequent search warms up from.
    pub fn refined_model(&self) -> PerfModel {
        self.learner.lock().refined.clone()
    }

    /// Featurizes a sample with the backend's own featurizer (for batched
    /// offline inference over candidate sets).
    pub fn featurize(&self, sample: &ArchSample) -> Vec<f32> {
        self.featurizer.featurize(sample)
    }

    /// NRMSE of the frozen vs the refined generation against the
    /// fine-tuning buffer's ground truth (training head), or `None` when
    /// fewer than two measurements are buffered. Shows what the online
    /// loop learned.
    pub fn buffer_nrmse(&self) -> Option<(f64, f64)> {
        let learner = self.learner.lock();
        if learner.xs.len() < 2 {
            return None;
        }
        let frozen = self.frozen.evaluate_nrmse(&learner.xs, &learner.ys);
        let refined = learner.refined.evaluate_nrmse(&learner.xs, &learner.ys);
        Some((frozen.training, refined.training))
    }

    /// The fallback path's eval cache, when it memoizes.
    pub fn fallback_cache(&self) -> Option<&EvalCache> {
        self.fallback.cache()
    }

    /// The search space the pretraining pool was drawn from (the DLRM
    /// production space, truncated like the CLI's).
    pub fn space(&self) -> SearchSpace {
        crate::scenario::dlrm_space().space().clone()
    }
}
