//! Domain-generic one-shot search: the unified single-step algorithm over
//! *any* weight-sharing super-network, as a [`CandidateStage`] over the
//! [`SearchDriver`] engine.
//!
//! §4.2's algorithm does not care what the super-network computes — it
//! needs (a) a categorical space, (b) candidate selection, (c) a quality
//! signal from a fresh batch and (d) a shared-weight training step.
//! [`OneShotSupernet`] captures exactly that contract, and
//! [`UnifiedStage`] runs Fig. 2's right-hand side over it. The DLRM
//! super-network (the paper's novel case) and the vision classifier
//! super-network both implement it, demonstrating that the machinery is
//! domain-independent.

use crate::driver::CandidateStage;
use crate::policy::Policy;
use crate::resume::ResumeState;
use crate::search::{shard_seed, EvalResult};
use crate::OneShotConfig;
use h2o_data::{InMemoryPipeline, StampedBatch, TrafficSource};
use h2o_space::{ArchSample, DlrmSupernet, SearchSpace, VisionSupernet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// The contract a weight-sharing super-network must satisfy to be searched
/// by the unified single-step algorithm.
pub trait OneShotSupernet {
    /// The mini-batch type the super-network consumes.
    type Batch;

    /// The categorical search space this super-network covers.
    fn search_space(&self) -> &SearchSpace;

    /// Records the candidate that [`quality`](OneShotSupernet::quality)
    /// and [`train_step_on`](OneShotSupernet::train_step_on) run.
    fn apply_sample(&mut self, sample: &ArchSample);

    /// Quality signal `Q(α)` of the recorded candidate on a batch
    /// (higher is better; e.g. −logloss or −cross-entropy).
    fn quality(&mut self, batch: &Self::Batch) -> f64;

    /// `Q(α)` of `sample` on `batch` computed from `&self`, so that
    /// [`UnifiedStage`] can score a step's shards concurrently: `Some(q)`
    /// must equal [`apply_sample`](OneShotSupernet::apply_sample)`(sample)`
    /// followed by [`quality`](OneShotSupernet::quality)`(batch)` bit for
    /// bit. The default, `None`, keeps a super-network without such a
    /// forward on those two calls, made one shard after another.
    fn quality_of(&self, _sample: &ArchSample, _batch: &Self::Batch) -> Option<f64> {
        None
    }

    /// One shared-weight training step of the recorded candidate.
    fn train_step_on(&mut self, batch: &Self::Batch);

    /// Trains the shared weights on `steps` in order: for each `(sample,
    /// batch)`, [`apply_sample`](OneShotSupernet::apply_sample)`(sample)`
    /// then [`train_step_on`](OneShotSupernet::train_step_on)`(batch)`, so
    /// the last sample stays recorded. That is the default, on the calling
    /// thread; an implementation may spread the work over `executor` if it
    /// writes the same bits.
    fn train_sequence_on(
        &mut self,
        steps: &[(&ArchSample, &Self::Batch)],
        _executor: &h2o_exec::Executor,
    ) {
        for (sample, batch) in steps {
            self.apply_sample(sample);
            self.train_step_on(batch);
        }
    }

    /// Serialises the shared trainable state (weights + optimizer moments)
    /// as an opaque, bit-exact blob for checkpointing.
    fn save_state(&self) -> Vec<u8>;

    /// Restores a blob produced by [`OneShotSupernet::save_state`] on a
    /// super-network of the same shape.
    ///
    /// # Errors
    ///
    /// Fails if the blob does not match this super-network's shape.
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String>;
}

impl OneShotSupernet for DlrmSupernet {
    type Batch = h2o_space::DlrmBatch;

    fn search_space(&self) -> &SearchSpace {
        self.space().space()
    }

    fn apply_sample(&mut self, sample: &ArchSample) {
        DlrmSupernet::apply_sample(self, sample);
    }

    fn quality(&mut self, batch: &Self::Batch) -> f64 {
        let (logloss, _) = self.evaluate(batch);
        -(logloss as f64)
    }

    fn quality_of(&self, sample: &ArchSample, batch: &Self::Batch) -> Option<f64> {
        Some(-(self.logloss_of(sample, batch) as f64))
    }

    fn train_step_on(&mut self, batch: &Self::Batch) {
        self.train_step(batch);
    }

    /// Each item is one two-job executor batch. The first job, on the
    /// calling thread, runs the forward, the loss and the input-gradient
    /// chain; both jobs run the dense paths' weight gradients and Adam
    /// steps as tasks from the item's queue (`DlrmSupernet::
    /// train_sequence`). The executor starts job 0 on the calling thread,
    /// and one worker runs both jobs in order, as that join requires.
    fn train_sequence_on(
        &mut self,
        steps: &[(&ArchSample, &Self::Batch)],
        executor: &h2o_exec::Executor,
    ) {
        self.train_sequence(steps, |caller, helper| {
            executor.execute(vec![caller, helper]);
        });
    }

    fn save_state(&self) -> Vec<u8> {
        DlrmSupernet::save_state(self)
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        DlrmSupernet::load_state(self, bytes).map_err(|e| e.to_string())
    }
}

impl OneShotSupernet for VisionSupernet {
    type Batch = h2o_data::VisionBatch;

    fn search_space(&self) -> &SearchSpace {
        self.space()
    }

    fn apply_sample(&mut self, sample: &ArchSample) {
        VisionSupernet::apply_sample(self, sample);
    }

    fn quality(&mut self, batch: &Self::Batch) -> f64 {
        let (ce, _) = self.evaluate(&batch.features, &batch.labels);
        -(ce as f64)
    }

    fn quality_of(&self, sample: &ArchSample, batch: &Self::Batch) -> Option<f64> {
        Some(-(self.cross_entropy_of(sample, &batch.features, &batch.labels) as f64))
    }

    fn train_step_on(&mut self, batch: &Self::Batch) {
        self.train_step(&batch.features, &batch.labels);
    }

    fn save_state(&self) -> Vec<u8> {
        VisionSupernet::save_state(self)
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        VisionSupernet::load_state(self, bytes).map_err(|e| e.to_string())
    }
}

/// The [`CandidateStage`] of the unified one-shot search (Fig. 2 right):
/// supernet quality on fresh batches and performance evaluation, fanned
/// out together over the executor, then shared-weight training on the very
/// batches the policy just learned from.
///
/// Each step draws every shard's batch and sample first, in shard order,
/// then scores all shards in one executor batch: each job computes its
/// shard's [`OneShotSupernet::quality_of`] and `perf_of`, and results come
/// back in submission order, so the worker count never changes the
/// outcome. A super-network whose `quality_of` is `None` is scored after
/// the batch, shard by shard, through `apply_sample` and `quality`. After
/// the policy update, one [`OneShotSupernet::train_sequence_on`] call
/// trains the shared weights on the step's samples and batches, in shard
/// order, with the same executor.
///
/// Per step the stage samples from a *per-step* RNG seeded by
/// [`shard_seed`]`(seed, step, u64::MAX)` — the `u64::MAX` tag keeps the
/// stream disjoint from per-shard eval streams, and deriving it from
/// `(seed, step)` means a resumed run rejoins the exact sample stream with
/// no run-long RNG state to save. The step's batches are carried from
/// [`collect`](CandidateStage::collect) to
/// [`after_policy_update`](CandidateStage::after_policy_update) so the
/// pipeline's α-before-W ordering is exercised on every batch.
///
/// On resume the shared weights are restored via
/// [`OneShotSupernet::load_state`] and the pipeline is fast-forwarded past
/// the `steps_done × shards` batches the original run consumed, so a
/// resumed run must be handed a **freshly constructed** supernet and
/// pipeline built with the same seeds and configs as the original run.
pub struct UnifiedStage<'a, S, Src, P>
where
    S: OneShotSupernet,
    Src: TrafficSource<Batch = S::Batch>,
{
    supernet: &'a mut S,
    pipeline: &'a InMemoryPipeline<Src>,
    perf_of: P,
    executor: h2o_exec::Executor,
    config: OneShotConfig,
    /// This step's batches, in shard order, between collect and the
    /// post-update weight training.
    step_batches: Vec<StampedBatch<S::Batch>>,
}

impl<'a, S, Src, P> fmt::Debug for UnifiedStage<'a, S, Src, P>
where
    S: OneShotSupernet,
    Src: TrafficSource<Batch = S::Batch>,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UnifiedStage")
            .field("space", &self.supernet.search_space().name())
            .field("config", &self.config)
            .finish()
    }
}

impl<'a, S, Src, P> UnifiedStage<'a, S, Src, P>
where
    S: OneShotSupernet + Sync,
    S::Batch: Sync,
    Src: TrafficSource<Batch = S::Batch>,
    P: Fn(&ArchSample) -> Vec<f64> + Sync,
{
    /// Builds the stage over a super-network, its data pipeline, and a
    /// pure performance oracle `perf_of`.
    pub fn new(
        supernet: &'a mut S,
        pipeline: &'a InMemoryPipeline<Src>,
        perf_of: P,
        config: &OneShotConfig,
    ) -> Self {
        let executor = h2o_exec::Executor::from_env(config.workers, config.shards);
        Self {
            supernet,
            pipeline,
            perf_of,
            executor,
            config: *config,
            step_batches: Vec::with_capacity(config.shards),
        }
    }
}

impl<'a, S, Src, P> CandidateStage for UnifiedStage<'a, S, Src, P>
where
    S: OneShotSupernet + Sync,
    S::Batch: Sync,
    Src: TrafficSource<Batch = S::Batch>,
    P: Fn(&ArchSample) -> Vec<f64> + Sync,
{
    fn steps_counter_name(&self) -> &'static str {
        "h2o_core_oneshot_steps_total"
    }

    fn collect(
        &mut self,
        step: usize,
        policy: &Policy,
    ) -> Result<Vec<(ArchSample, EvalResult)>, String> {
        let config = &self.config;
        let mut rng = StdRng::seed_from_u64(shard_seed(config.seed, step as u64, u64::MAX));
        // Batches and samples are drawn in shard order: the pipeline order
        // and the sample stream do not depend on the scoring below.
        let mut shards = Vec::with_capacity(config.shards);
        for _ in 0..config.shards {
            let batch = h2o_obs::time("pipeline_next_batch", || {
                self.pipeline.next_batch(config.batch_size)
            });
            let sample = h2o_obs::time("policy_sample", || policy.sample(&mut rng));
            shards.push((batch, sample));
        }
        // One executor batch scores every shard: the weights do not change
        // during `collect`, `quality_of` reads them through `&self`, and
        // `perf_of` is pure per sample.
        let supernet = &*self.supernet;
        let perf_of = &self.perf_of;
        let jobs: Vec<_> = shards.iter().collect();
        let scores = self.executor.map(jobs, |_, (batch, sample)| {
            let quality = h2o_obs::time("supernet_forward", || {
                supernet.quality_of(sample, &batch.data)
            });
            (quality, h2o_obs::time("reward_eval", || perf_of(sample)))
        });
        self.step_batches.clear();
        let mut candidates = Vec::with_capacity(config.shards);
        for ((batch, sample), (quality, perf_values)) in shards.into_iter().zip(scores) {
            let raw_quality = quality.unwrap_or_else(|| {
                self.supernet.apply_sample(&sample);
                h2o_obs::time("supernet_forward", || self.supernet.quality(&batch.data))
            });
            // A diverged candidate (non-finite loss) gets a hard penalty
            // instead of poisoning the policy update with NaN.
            let quality = if raw_quality.is_finite() {
                config.quality_scale * raw_quality
            } else {
                -10.0 * config.quality_scale.abs().max(1.0)
            };
            #[expect(
                clippy::expect_used,
                reason = "seq came from next_batch() in this call; a stale-sequence error here means pipeline-internal corruption, not bad input"
            )]
            self.pipeline
                .mark_policy_use(batch.seq)
                .expect("fresh batch");
            self.step_batches.push(batch);
            candidates.push((
                sample,
                EvalResult {
                    quality,
                    perf_values,
                },
            ));
        }
        Ok(candidates)
    }

    fn after_policy_update(&mut self, candidates: &[(ArchSample, EvalResult)], _rewards: &[f64]) {
        // The batches that just informed the policy now train the shared
        // weights (policy use strictly before weights use — the pipeline
        // enforces the ordering).
        let _weights = h2o_obs::span("weight_update");
        let samples = candidates.iter().map(|(sample, _)| sample);
        let steps: Vec<_> = samples
            .zip(self.step_batches.iter().map(|b| &b.data))
            .collect();
        self.supernet.train_sequence_on(&steps, &self.executor);
        for batch in self.step_batches.drain(..) {
            #[expect(
                clippy::expect_used,
                reason = "every batch in step_batches was marked policy-used in collect; the pipeline enforces exactly that ordering"
            )]
            self.pipeline
                .mark_weights_use(batch.seq)
                .expect("policy-seen batch");
        }
    }

    fn restore(&mut self, state: &ResumeState) {
        #[expect(
            clippy::expect_used,
            reason = "this stage's checkpoint_state() always embeds supernet state; the ckpt layer validated checksum+fingerprint before we got here"
        )]
        let weights = state
            .supernet_state
            .as_deref()
            .expect("one-shot resume requires snapshotted supernet state");
        #[expect(
            clippy::expect_used,
            reason = "state shape is covered by the config fingerprint the ckpt layer validated before handing us the payload"
        )]
        self.supernet
            .load_state(weights)
            .expect("supernet state does not match this super-network");
        self.pipeline.fast_forward(
            state.steps_done * self.config.shards,
            self.config.batch_size,
        );
    }

    fn checkpoint_state(&mut self) -> Option<Vec<u8>> {
        Some(h2o_obs::time("supernet_save_state", || {
            self.supernet.save_state()
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reward::{PerfObjective, RewardFn, RewardKind};
    use crate::{DriverError, SearchDriver, SearchOutcome};
    use h2o_data::VisionTraffic;
    use h2o_space::VisionSupernetConfig;
    use rand::SeedableRng;

    fn run_unified<S, Src>(
        supernet: &mut S,
        pipeline: &InMemoryPipeline<Src>,
        reward: &RewardFn,
        perf: impl Fn(&ArchSample) -> Vec<f64> + Sync,
        cfg: &OneShotConfig,
    ) -> Result<SearchOutcome, DriverError>
    where
        S: OneShotSupernet + Sync,
        S::Batch: Sync,
        Src: TrafficSource<Batch = S::Batch>,
    {
        let space = supernet.search_space().clone();
        SearchDriver::new(&space, reward, cfg.controller()).run(
            &mut UnifiedStage::new(supernet, pipeline, perf, cfg),
            None,
            None,
        )
    }

    #[test]
    fn vision_supernet_searches_through_the_generic_path() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut net = VisionSupernet::new(VisionSupernetConfig::tiny(), &mut rng);
        let pipeline = InMemoryPipeline::new(VisionTraffic::new(4, 16, 0.2, 8));
        // Objective: stay under a parameter budget while classifying well.
        let budget = 1500.0;
        let reward = RewardFn::new(
            RewardKind::Relu,
            vec![PerfObjective::new("params", budget, -2.0)],
        );
        // Param counts come from the shape a probe network decodes.
        let probe = VisionSupernet::new(VisionSupernetConfig::tiny(), &mut rng);
        let perf = move |sample: &ArchSample| vec![probe.param_count_of(sample) as f64];
        let cfg = OneShotConfig {
            steps: 60,
            shards: 4,
            batch_size: 64,
            quality_scale: 5.0,
            ..Default::default()
        };
        let outcome = run_unified(&mut net, &pipeline, &reward, perf, &cfg).expect("sinkless run");
        // Pipeline ordering held throughout.
        let stats = pipeline.stats();
        assert_eq!(stats.policy_used, stats.weights_used);
        assert_eq!(pipeline.in_flight(), 0);
        // The final candidate classifies above chance after the search's
        // own training (4 classes -> chance 0.25).
        net.apply_sample(&outcome.best);
        let mut eval_traffic = VisionTraffic::with_truth_seed(4, 16, 0.2, 8, 99);
        let eval = h2o_data::TrafficSource::next_batch(&mut eval_traffic, 512);
        let (_, acc) = net.evaluate(&eval.features, &eval.labels);
        assert!(acc > 0.6, "accuracy {acc}");
        // And respects the parameter budget (within ReLU slack).
        let params = net.param_count_of(&outcome.best);
        assert!((params as f64) < budget * 1.4, "params {params}");
    }

    #[test]
    fn dlrm_supernet_also_satisfies_the_trait() {
        use h2o_data::{CtrTraffic, CtrTrafficConfig};
        use h2o_space::DlrmSpaceConfig;
        let mut rng = StdRng::seed_from_u64(14);
        let mut net = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut rng);
        let pipeline = InMemoryPipeline::new(CtrTraffic::new(CtrTrafficConfig::tiny(), 9));
        let reward = RewardFn::new(RewardKind::Relu, vec![]);
        let cfg = OneShotConfig {
            steps: 5,
            shards: 2,
            batch_size: 32,
            ..Default::default()
        };
        let outcome =
            run_unified(&mut net, &pipeline, &reward, |_| vec![], &cfg).expect("sinkless run");
        assert_eq!(outcome.evaluated.len(), 10);
    }

    #[test]
    fn zero_shards_is_a_config_error_in_unified_search() {
        // Regression: the one-shot path used to accept shards == 0 and
        // divide by zero computing the mean reward.
        use h2o_data::{CtrTraffic, CtrTrafficConfig};
        use h2o_space::DlrmSpaceConfig;
        let mut rng = StdRng::seed_from_u64(15);
        let mut net = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut rng);
        let pipeline = InMemoryPipeline::new(CtrTraffic::new(CtrTrafficConfig::tiny(), 9));
        let reward = RewardFn::new(RewardKind::Relu, vec![]);
        let cfg = OneShotConfig {
            shards: 0,
            ..Default::default()
        };
        let err =
            run_unified(&mut net, &pipeline, &reward, |_| vec![], &cfg).expect_err("zero shards");
        assert_eq!(err, DriverError::Config("need at least one shard".into()));
    }

    #[test]
    fn zero_steps_is_a_config_error_in_unified_search() {
        use h2o_data::{CtrTraffic, CtrTrafficConfig};
        use h2o_space::DlrmSpaceConfig;
        let mut rng = StdRng::seed_from_u64(16);
        let mut net = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut rng);
        let pipeline = InMemoryPipeline::new(CtrTraffic::new(CtrTrafficConfig::tiny(), 9));
        let reward = RewardFn::new(RewardKind::Relu, vec![]);
        let cfg = OneShotConfig {
            steps: 0,
            ..Default::default()
        };
        let err =
            run_unified(&mut net, &pipeline, &reward, |_| vec![], &cfg).expect_err("zero steps");
        assert_eq!(err, DriverError::Config("need at least one step".into()));
    }
}
