//! One-shot search with a *real* trainable super-network (Fig. 2).
//!
//! Two algorithms over the same DLRM super-network and in-memory traffic,
//! both stages over the unified [`SearchDriver`](crate::SearchDriver)
//! engine:
//!
//! * [`UnifiedStage`](crate::UnifiedStage) — the H2O-NAS **unified
//!   single-step** algorithm (Fig. 2 right): each virtual shard pulls a
//!   *fresh* batch, the policy learns from it first (the batch has never
//!   been used to train `W`, so no train/validation split is needed), then
//!   the shared weights train on the very same batch. The in-memory
//!   pipeline enforces the ordering. It runs over any
//!   [`OneShotSupernet`](crate::OneShotSupernet), the DLRM super-network
//!   included.
//! * [`TunasStage`] — the TuNAS-style **alternating two-step** baseline
//!   (Fig. 2 left): weight steps on a training stream strictly alternate
//!   with policy steps on a *separate validation stream* — the design the
//!   paper improves upon (and the ablation bench compares against).
//!
//! This module also holds [`OneShotConfig`], the knobs both stages share.

use crate::driver::{CandidateStage, ControllerConfig};
use crate::policy::Policy;
use crate::resume::ResumeState;
use crate::search::EvalResult;
use h2o_data::{CtrTraffic, TrafficSource};
use h2o_space::{ArchSample, DlrmSupernet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Configuration of the one-shot supernet searches: the shared
/// [`ControllerConfig`] knobs plus the supernet-training extras
/// (`batch_size`, `quality_scale`).
///
/// The fields stay flat (rather than embedding a `ControllerConfig`) so
/// existing struct literals are untouched; [`OneShotConfig::controller`]
/// projects onto the shared controller view that
/// [`SearchDriver::new`](crate::SearchDriver::new) takes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OneShotConfig {
    /// Search steps (policy updates).
    pub steps: usize,
    /// Candidates sampled per step ("virtual shards"; the paper runs these
    /// on separate accelerators, we run them within the step).
    pub shards: usize,
    /// Examples per batch.
    pub batch_size: usize,
    /// REINFORCE learning rate.
    pub policy_lr: f64,
    /// Reward-baseline EMA momentum.
    pub baseline_momentum: f64,
    /// Scale applied to −logloss to produce the quality term (puts quality
    /// on a comparable footing with the reward's perf penalties).
    pub quality_scale: f64,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for the performance-evaluation stage. `0` means
    /// auto: `H2O_WORKERS` if set, else available parallelism. The search
    /// outcome is bit-identical for every worker count.
    pub workers: usize,
}

impl Default for OneShotConfig {
    fn default() -> Self {
        let shared = ControllerConfig::default();
        Self {
            steps: 150,
            shards: 4,
            batch_size: 64,
            policy_lr: shared.policy_lr,
            baseline_momentum: shared.baseline_momentum,
            quality_scale: 10.0,
            seed: shared.seed,
            workers: shared.workers,
        }
    }
}

impl OneShotConfig {
    /// The shared controller view of this config: what the
    /// [`SearchDriver`](crate::SearchDriver) engine needs, minus the
    /// supernet-training extras.
    pub fn controller(&self) -> ControllerConfig {
        ControllerConfig {
            steps: self.steps,
            shards: self.shards,
            policy_lr: self.policy_lr,
            baseline_momentum: self.baseline_momentum,
            seed: self.seed,
            workers: self.workers,
        }
    }
}

/// The [`CandidateStage`] of the TuNAS-style alternating baseline
/// (Fig. 2 left): per step, shared weights first train on `shards` batches
/// from the training stream (stage A), then `shards` candidates are scored
/// on the validation stream (stage B) to drive the policy update.
///
/// It uses the same step/shard budget as the unified search but needs two
/// statistically stable streams — the operational burden the paper's
/// unified algorithm removes.
///
/// Unlike the other stages, TuNAS draws every sample from one *run-long*
/// RNG seeded from `config.seed` (faithful to the baseline it models).
/// Resume therefore fast-forwards that RNG instead of re-deriving per-step
/// seeds: each completed step consumed exactly `2 × shards` samples of
/// `num_decisions` draws each, so the stream position is recomputable from
/// `steps_done` alone — no RNG state is stored in the snapshot. The shared
/// weights are restored from the snapshot and both streams advanced past
/// the `steps_done × shards` batches each consumed, so a resumed run must
/// be handed a **freshly constructed** supernet and streams built with the
/// same seeds and configs as the original run.
pub struct TunasStage<'a, P> {
    supernet: &'a mut DlrmSupernet,
    train_stream: &'a mut CtrTraffic,
    valid_stream: &'a mut CtrTraffic,
    perf_of: P,
    rng: StdRng,
    config: OneShotConfig,
}

impl<'a, P> fmt::Debug for TunasStage<'a, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TunasStage")
            .field("config", &self.config)
            .finish()
    }
}

impl<'a, P> TunasStage<'a, P>
where
    P: FnMut(&ArchSample) -> Vec<f64>,
{
    /// Builds the stage over a supernet and its two traffic streams.
    pub fn new(
        supernet: &'a mut DlrmSupernet,
        train_stream: &'a mut CtrTraffic,
        valid_stream: &'a mut CtrTraffic,
        perf_of: P,
        config: &OneShotConfig,
    ) -> Self {
        Self {
            supernet,
            train_stream,
            valid_stream,
            perf_of,
            rng: StdRng::seed_from_u64(config.seed),
            config: *config,
        }
    }
}

impl<'a, P> CandidateStage for TunasStage<'a, P>
where
    P: FnMut(&ArchSample) -> Vec<f64>,
{
    fn step_span_name(&self) -> &'static str {
        "tunas_step"
    }

    fn steps_counter_name(&self) -> &'static str {
        "h2o_core_tunas_steps_total"
    }

    fn collect(
        &mut self,
        _step: usize,
        policy: &Policy,
    ) -> Result<Vec<(ArchSample, EvalResult)>, String> {
        let config = &self.config;
        // Step A: train shared weights W on the training stream.
        {
            let _weights = h2o_obs::span("weight_update");
            for _ in 0..config.shards {
                let batch = self.train_stream.next_batch(config.batch_size);
                let sample = policy.sample(&mut self.rng);
                self.supernet.apply_sample(&sample);
                self.supernet.train_step(&batch);
            }
        }
        // Step B: score candidates for the policy π on the validation
        // stream.
        let mut candidates = Vec::with_capacity(config.shards);
        for _ in 0..config.shards {
            let batch = self.valid_stream.next_batch(config.batch_size);
            let sample = policy.sample(&mut self.rng);
            self.supernet.apply_sample(&sample);
            let (logloss, _) = h2o_obs::time("supernet_forward", || self.supernet.evaluate(&batch));
            let quality = -config.quality_scale * logloss as f64;
            let perf_values = (self.perf_of)(&sample);
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

    fn restore(&mut self, state: &ResumeState) {
        #[expect(
            clippy::expect_used,
            reason = "the snapshot was produced by this stage's own checkpoint_state(), which always embeds supernet state; absence means a foreign file that already passed checksum+fingerprint validation, which cannot happen by construction"
        )]
        let weights = state
            .supernet_state
            .as_deref()
            .expect("tunas resume requires snapshotted supernet state");
        #[expect(
            clippy::expect_used,
            reason = "state shape is covered by the config fingerprint the ckpt layer validated before handing us the payload"
        )]
        self.supernet
            .load_state(weights)
            .expect("supernet state does not match this super-network");
        let config = &self.config;
        // Rejoin the run-long sample stream: each completed step drew
        // 2 × shards samples (stage A + stage B), each consuming exactly
        // one f64 per decision.
        let decisions = self.supernet.space().space().num_decisions();
        for _ in 0..state.steps_done * 2 * config.shards * decisions {
            let _: f64 = self.rng.gen();
        }
        // And rejoin both data streams past the consumed batches.
        for _ in 0..state.steps_done * config.shards {
            self.train_stream.next_batch(config.batch_size);
            self.valid_stream.next_batch(config.batch_size);
        }
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
    use crate::resume::CheckpointSink;
    use crate::reward::{PerfObjective, RewardFn, RewardKind};
    use crate::{DriverError, SearchDriver, SearchOutcome, UnifiedStage};
    use h2o_data::{CtrTrafficConfig, InMemoryPipeline};
    use h2o_space::DlrmSpaceConfig;
    use rand::SeedableRng;

    fn setup() -> (DlrmSupernet, InMemoryPipeline<CtrTraffic>) {
        let mut rng = StdRng::seed_from_u64(3);
        let supernet = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut rng);
        let pipeline = InMemoryPipeline::new(CtrTraffic::new(CtrTrafficConfig::tiny(), 1));
        (supernet, pipeline)
    }

    fn size_reward(supernet: &DlrmSupernet) -> (RewardFn, impl Fn(&ArchSample) -> Vec<f64> + Sync) {
        let space = supernet.space().clone();
        let baseline_size = space.decode(&space.baseline()).model_size_bytes();
        let reward = RewardFn::new(
            RewardKind::Relu,
            vec![PerfObjective::new("size", baseline_size, -2.0)],
        );
        let perf = move |sample: &ArchSample| vec![space.decode(sample).model_size_bytes()];
        (reward, perf)
    }

    fn run_unified(
        supernet: &mut DlrmSupernet,
        pipeline: &InMemoryPipeline<CtrTraffic>,
        reward: &RewardFn,
        perf: impl Fn(&ArchSample) -> Vec<f64> + Sync,
        cfg: &OneShotConfig,
    ) -> SearchOutcome {
        let space = supernet.space().space().clone();
        SearchDriver::new(&space, reward, cfg.controller())
            .run(
                &mut UnifiedStage::new(supernet, pipeline, perf, cfg),
                None,
                None,
            )
            .expect("sinkless run")
    }

    /// Runs the TuNAS baseline under the size reward of [`size_reward`].
    fn run_tunas(
        supernet: &mut DlrmSupernet,
        train: &mut CtrTraffic,
        valid: &mut CtrTraffic,
        cfg: &OneShotConfig,
        resume: Option<ResumeState>,
        sink: Option<&mut dyn CheckpointSink>,
    ) -> Result<SearchOutcome, DriverError> {
        let (reward, perf) = size_reward(supernet);
        let space = supernet.space().space().clone();
        SearchDriver::new(&space, &reward, cfg.controller()).run(
            &mut TunasStage::new(supernet, train, valid, perf, cfg),
            resume,
            sink,
        )
    }

    #[test]
    fn unified_search_runs_and_respects_pipeline_invariants() {
        let (mut supernet, pipeline) = setup();
        let (reward, perf) = size_reward(&supernet);
        let cfg = OneShotConfig {
            steps: 10,
            shards: 2,
            batch_size: 32,
            ..Default::default()
        };
        let outcome = run_unified(&mut supernet, &pipeline, &reward, perf, &cfg);
        assert_eq!(outcome.evaluated.len(), 20);
        let stats = pipeline.stats();
        assert_eq!(stats.policy_used, 20);
        assert_eq!(stats.weights_used, 20);
        assert_eq!(pipeline.in_flight(), 0, "every batch fully consumed once");
    }

    #[test]
    fn unified_search_improves_reward() {
        let (mut supernet, pipeline) = setup();
        let (reward, perf) = size_reward(&supernet);
        let cfg = OneShotConfig {
            steps: 60,
            shards: 4,
            batch_size: 64,
            ..Default::default()
        };
        let outcome = run_unified(&mut supernet, &pipeline, &reward, perf, &cfg);
        let early: f64 = outcome.history[..10]
            .iter()
            .map(|h| h.mean_reward)
            .sum::<f64>()
            / 10.0;
        let late: f64 = outcome.history[outcome.history.len() - 10..]
            .iter()
            .map(|h| h.mean_reward)
            .sum::<f64>()
            / 10.0;
        assert!(late > early, "reward should improve: {early} -> {late}");
    }

    #[test]
    fn tunas_search_runs_with_two_streams() {
        let (mut supernet, _) = setup();
        let mut train = CtrTraffic::new(CtrTrafficConfig::tiny(), 10);
        let mut valid = CtrTraffic::new(CtrTrafficConfig::tiny(), 11);
        let cfg = OneShotConfig {
            steps: 10,
            shards: 2,
            batch_size: 32,
            ..Default::default()
        };
        let outcome = run_tunas(&mut supernet, &mut train, &mut valid, &cfg, None, None)
            .expect("sinkless run");
        assert_eq!(outcome.evaluated.len(), 20);
        // TuNAS consumes twice the batches for the same number of policy
        // samples (training + validation streams).
        assert_eq!(train.examples_produced(), 10 * 2 * 32);
        assert_eq!(valid.examples_produced(), 10 * 2 * 32);
        // The driver now times tunas steps like every other stage.
        assert!(outcome.history.iter().all(|h| h.step_time_ms >= 0.0));
    }

    #[test]
    fn tunas_zero_shards_is_a_config_error() {
        let (mut supernet, _) = setup();
        let mut train = CtrTraffic::new(CtrTrafficConfig::tiny(), 10);
        let mut valid = CtrTraffic::new(CtrTrafficConfig::tiny(), 11);
        let cfg = OneShotConfig {
            shards: 0,
            ..Default::default()
        };
        let err = run_tunas(&mut supernet, &mut train, &mut valid, &cfg, None, None)
            .expect_err("zero shards");
        assert_eq!(err, DriverError::Config("need at least one shard".into()));
    }

    #[test]
    fn tunas_resume_from_checkpoint_is_bit_identical() {
        use crate::resume::SearchSnapshot;

        struct CaptureAt {
            at: usize,
            state: Option<ResumeState>,
        }
        impl CheckpointSink for CaptureAt {
            fn should_checkpoint(&self, steps_done: usize) -> bool {
                steps_done == self.at
            }
            fn on_checkpoint(&mut self, snapshot: &SearchSnapshot<'_>) -> Result<(), String> {
                self.state = Some(ResumeState::from_snapshot(snapshot));
                Ok(())
            }
        }

        let cfg = OneShotConfig {
            steps: 8,
            shards: 2,
            batch_size: 32,
            seed: 7,
            ..Default::default()
        };
        let fresh = || {
            let mut rng = StdRng::seed_from_u64(3);
            DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut rng)
        };
        let streams = || {
            (
                CtrTraffic::new(CtrTrafficConfig::tiny(), 10),
                CtrTraffic::new(CtrTrafficConfig::tiny(), 11),
            )
        };

        // Uninterrupted reference run.
        let mut supernet = fresh();
        let (mut train, mut valid) = streams();
        let full = run_tunas(&mut supernet, &mut train, &mut valid, &cfg, None, None)
            .expect("sinkless run");

        // Run to the midpoint, capturing a snapshot.
        let mut capture = CaptureAt { at: 4, state: None };
        let mut supernet = fresh();
        let (mut train, mut valid) = streams();
        let cut = OneShotConfig { steps: 4, ..cfg };
        run_tunas(
            &mut supernet,
            &mut train,
            &mut valid,
            &cut,
            None,
            Some(&mut capture),
        )
        .expect("capturing sink never fails");
        let state = capture.state.expect("snapshot captured");
        assert!(state.supernet_state.is_some(), "tunas snapshots weights");

        // Resume on freshly constructed supernet + streams.
        let mut supernet = fresh();
        let (mut train, mut valid) = streams();
        let resumed = run_tunas(
            &mut supernet,
            &mut train,
            &mut valid,
            &cfg,
            Some(state),
            None,
        )
        .expect("the snapshot fits the search");

        assert_eq!(full.best, resumed.best);
        assert_eq!(full.evaluated, resumed.evaluated);
        assert_eq!(full.policy, resumed.policy);
        for (a, b) in full.history.iter().zip(&resumed.history) {
            assert_eq!(a.mean_reward, b.mean_reward);
            assert_eq!(a.best_reward, b.best_reward);
            assert_eq!(a.entropy, b.entropy);
        }
    }

    #[test]
    fn unified_search_prefers_smaller_models_under_tight_size_target() {
        let (mut supernet, pipeline) = setup();
        let space = supernet.space().clone();
        let baseline_size = space.decode(&space.baseline()).model_size_bytes();
        // Target at 60% of baseline: the search must shrink something.
        let reward = RewardFn::new(
            RewardKind::Relu,
            vec![PerfObjective::new("size", 0.6 * baseline_size, -20.0)],
        );
        let space2 = space.clone();
        let perf = move |sample: &ArchSample| vec![space2.decode(sample).model_size_bytes()];
        let cfg = OneShotConfig {
            steps: 80,
            shards: 4,
            batch_size: 32,
            ..Default::default()
        };
        let outcome = run_unified(&mut supernet, &pipeline, &reward, perf, &cfg);
        let final_size = space.decode(&outcome.best).model_size_bytes();
        assert!(
            final_size < 0.9 * baseline_size,
            "search should shrink the model: {final_size} vs baseline {baseline_size}"
        );
    }
}
