//! The unified search-controller engine (§4.2, Fig. 2).
//!
//! The paper's central claim is that *one* single-step RL controller drives
//! every domain — DLRM, CNN, ViT. [`SearchDriver`] is that controller and
//! the one way to run a search: it owns the per-step invariant loop
//! (reward computation → baseline EMA → cross-shard REINFORCE update →
//! telemetry → checkpointing) and delegates only *candidate production* to
//! a pluggable [`CandidateStage`]. The crate ships four stages:
//!
//! * [`ParallelStage`](crate::ParallelStage) — executor-fanned stateless
//!   evaluation;
//! * [`UnifiedStage`](crate::UnifiedStage) — supernet quality and
//!   performance fanned out together over any
//!   [`OneShotSupernet`](crate::OneShotSupernet);
//! * [`TunasStage`](crate::TunasStage) — the alternating train/valid
//!   two-stream baseline;
//! * [`DistributedStage`](crate::DistributedStage) — the parallel fan-out
//!   across worker processes.
//!
//! The engine upholds the determinism contract: stages derive every sample
//! stream from `(seed, step, shard)` via
//! [`shard_seed`](crate::shard_seed), so the driver itself holds no
//! run-long RNG state and a run resumed from a [`ResumeState`] captured at
//! a completed step is byte-identical to an uninterrupted one
//! (`tests/driver_equivalence.rs` pins the in-process stages to goldens
//! recorded from the pre-refactor hand-rolled loops).

use crate::policy::{Policy, RewardBaseline};
use crate::resume::{CheckpointSink, ResumeState, SearchSnapshot};
use crate::reward::RewardFn;
use crate::search::{EvalResult, EvaluatedCandidate, SearchOutcome, StepRecord};
use h2o_space::{ArchSample, SearchSpace};

/// Reward assigned to a candidate whose combined reward is not finite
/// (NaN/±∞ from a diverged evaluator or a pathological objective value).
///
/// Without this guard a single NaN reward poisons the baseline EMA — and
/// through it every subsequent policy update — silently. The penalty is
/// far below any reward the repo's objectives produce, so non-finite
/// candidates are strongly discouraged while the controller state stays
/// finite. Finite rewards pass through bit-unchanged.
pub const NON_FINITE_REWARD_PENALTY: f64 = -1.0e4;

/// A typed failure from the [`SearchDriver`] controller loop.
///
/// Bad input — a config that cannot drive a search, or a resume state
/// that does not fit it — is rejected before any step runs. Environmental
/// failures stop the loop mid-run: a failed checkpoint write (a lost
/// durability guarantee) and a failed candidate collection (a dead
/// evaluator node, a broken transport). Either way the error is handed up
/// instead of searching on with the contract silently gone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverError {
    /// The controller config cannot drive a search: zero shards or zero
    /// steps.
    Config(String),
    /// The [`ResumeState`] does not fit this search: it was captured past
    /// `config.steps`, or its policy's shape differs from the search
    /// space's decisions.
    Resume(String),
    /// The [`CheckpointSink`] failed to persist a snapshot after the step
    /// counted in `steps_done`. The search state up to that step is lost
    /// to the caller (the outcome is not returned), but every prior
    /// on-disk checkpoint remains valid to resume from.
    Checkpoint {
        /// Completed steps at the moment the write failed.
        steps_done: usize,
        /// The sink's error message.
        message: String,
    },
    /// The [`CandidateStage`] failed to produce this step's candidates.
    /// On the distributed stage individual node deaths are absorbed by
    /// redispatch/respawn, so this means the node pool was exhausted
    /// (fewer live nodes than its configured floor) or a fatal protocol
    /// error occurred. Every step before `step` completed normally, so
    /// the last on-disk checkpoint (if any) remains valid to resume from.
    Eval {
        /// The step whose collection failed (zero-based; this step did
        /// *not* complete).
        step: usize,
        /// The stage's error message.
        message: String,
    },
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::Config(message) => write!(f, "invalid search config: {message}"),
            DriverError::Resume(message) => write!(f, "cannot resume: {message}"),
            DriverError::Checkpoint {
                steps_done,
                message,
            } => write!(
                f,
                "checkpoint sink failed after step {steps_done}: {message}"
            ),
            DriverError::Eval { step, message } => {
                write!(f, "candidate collection failed at step {step}: {message}")
            }
        }
    }
}

impl std::error::Error for DriverError {}

/// Phase labels of the `h2o_core_phase_seconds{phase=...}` histograms the
/// driver records per step, in loop order; the `--metrics-out` export
/// carries one series per phase. `policy_update` covers the REINFORCE
/// update and the policy entropy, which the update computes in the same
/// pass.
pub const PHASES: [&str; 6] = [
    "collect",
    "reward",
    "policy_update",
    "stage_update",
    "telemetry",
    "checkpoint",
];

/// The shared controller knobs: everything the [`SearchDriver`] engine
/// needs, independent of how candidates are produced.
///
/// This is the merge of the fields `SearchConfig` and `OneShotConfig`
/// historically duplicated. [`SearchConfig`](crate::SearchConfig) *is*
/// this type (the parallel loop has no extra knobs), and
/// [`OneShotConfig`](crate::OneShotConfig) projects onto it via
/// [`OneShotConfig::controller`](crate::OneShotConfig::controller).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Search steps (policy updates).
    pub steps: usize,
    /// Virtual accelerator shards per step (parallel candidate samples).
    pub shards: usize,
    /// REINFORCE learning rate on the policy logits.
    pub policy_lr: f64,
    /// EMA momentum of the reward baseline.
    pub baseline_momentum: f64,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads of a stage's executor: they evaluate candidates,
    /// and on [`ParallelStage`](crate::ParallelStage) they also split the
    /// REINFORCE update by decision. `0` means auto: the `H2O_WORKERS`
    /// environment variable if set, else available parallelism. The
    /// search outcome is bit-identical for every worker count.
    pub workers: usize,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            steps: 200,
            shards: 8,
            policy_lr: 0.05,
            baseline_momentum: 0.9,
            seed: 0,
            workers: 0,
        }
    }
}

/// Produces one step's worth of candidates for the [`SearchDriver`].
///
/// A stage owns everything flavor-specific: evaluators, super-networks,
/// data streams, executors, and any per-step state carried between
/// [`collect`](CandidateStage::collect) and
/// [`after_policy_update`](CandidateStage::after_policy_update) (the
/// one-shot stage keeps the step's batches so shared weights can train on
/// them *after* the policy has learned from them). The driver owns the
/// invariant controller loop and never samples the policy itself —
/// stages do, from RNG streams derived via
/// [`shard_seed`](crate::shard_seed) so resume needs no RNG state.
pub trait CandidateStage {
    /// Observability span name wrapping one controller step.
    fn step_span_name(&self) -> &'static str {
        "search_step"
    }

    /// Observability counter name for completed controller steps.
    fn steps_counter_name(&self) -> &'static str;

    /// Samples and evaluates this step's candidates, one per shard, in
    /// shard order. Implementations must be deterministic in
    /// `(step, policy)` and their own construction-time seed.
    ///
    /// In-process stages are infallible and simply wrap their candidates
    /// in `Ok`. Stages that cross a process boundary (the distributed
    /// stage fanning out over worker nodes) return `Err` when evaluation
    /// can no longer proceed — the node pool dropped below its live
    /// floor, or a fatal protocol error occurred; the driver surfaces it
    /// as [`DriverError::Eval`].
    fn collect(
        &mut self,
        step: usize,
        policy: &Policy,
    ) -> Result<Vec<(ArchSample, EvalResult)>, String>;

    /// Hook invoked after the REINFORCE update, before telemetry is
    /// recorded. The one-shot stage trains the shared weights here, on the
    /// very batches that just informed the policy (Fig. 2 right). The
    /// default does nothing.
    fn after_policy_update(&mut self, _candidates: &[(ArchSample, EvalResult)], _rewards: &[f64]) {}

    /// The executor the stage lends the driver for the REINFORCE update,
    /// which splits the policy's decisions across its workers; `None`
    /// (the default) runs the update on the calling thread. The outcome
    /// is bit-identical either way.
    fn executor(&self) -> Option<&h2o_exec::Executor> {
        None
    }

    /// Restores stage-owned state (super-network weights, stream
    /// positions) from a snapshot captured at `state.steps_done` completed
    /// steps. The driver has already validated the controller-level
    /// invariants. The default does nothing — correct for stateless
    /// stages.
    fn restore(&mut self, _state: &ResumeState) {}

    /// Serialises stage-owned trainable state for a checkpoint, or `None`
    /// for stateless stages. Only called once a [`CheckpointSink`] has
    /// asked for a snapshot, so expensive serialisation is never wasted.
    fn checkpoint_state(&mut self) -> Option<Vec<u8>> {
        None
    }
}

/// The unified single-step search controller: one engine for every
/// [`CandidateStage`].
///
/// Per step the driver (1) asks the stage for one candidate per shard,
/// (2) combines each candidate's quality and performance signals through
/// the [`RewardFn`], guarding non-finite rewards with
/// [`NON_FINITE_REWARD_PENALTY`], (3) updates the reward-baseline EMA and
/// applies one cross-shard REINFORCE update, on the stage's executor if
/// it lends one ([`CandidateStage::executor`]), (4) lets the stage react
/// (weight training), and (5) records telemetry and consults the
/// [`CheckpointSink`]. The final architecture is the per-decision argmax
/// of the trained policy (§4.2).
///
/// # Examples
///
/// Every search is a stage handed to [`SearchDriver::run`]. The built-in
/// stages ([`ParallelStage`](crate::ParallelStage),
/// [`UnifiedStage`](crate::UnifiedStage), [`TunasStage`](crate::TunasStage),
/// [`DistributedStage`](crate::DistributedStage)) cover the paper's search
/// flavors; a custom stage needs only candidate production:
///
/// ```
/// use h2o_core::{
///     CandidateStage, ControllerConfig, EvalResult, Policy, RewardFn, RewardKind,
///     SearchDriver, shard_seed,
/// };
/// use h2o_space::{ArchSample, Decision, SearchSpace};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// /// Evaluates every candidate analytically, serially.
/// struct AnalyticStage {
///     shards: usize,
///     seed: u64,
/// }
///
/// impl CandidateStage for AnalyticStage {
///     fn steps_counter_name(&self) -> &'static str {
///         "demo_steps_total"
///     }
///     fn collect(
///         &mut self,
///         step: usize,
///         policy: &Policy,
///     ) -> Result<Vec<(ArchSample, EvalResult)>, String> {
///         Ok((0..self.shards)
///             .map(|shard| {
///                 let mut rng =
///                     StdRng::seed_from_u64(shard_seed(self.seed, step as u64, shard as u64));
///                 let sample = policy.sample(&mut rng);
///                 let quality = sample[0] as f64;
///                 (sample, EvalResult { quality, perf_values: vec![] })
///             })
///             .collect())
///     }
/// }
///
/// let mut space = SearchSpace::new("demo");
/// space.push(Decision::new("width", 5));
/// let reward = RewardFn::new(RewardKind::Relu, vec![]);
/// let config = ControllerConfig { steps: 60, shards: 4, ..Default::default() };
/// let mut stage = AnalyticStage { shards: config.shards, seed: config.seed };
/// let outcome = SearchDriver::new(&space, &reward, config)
///     .run(&mut stage, None, None)
///     .expect("a valid config and no checkpoint sink, so the run cannot fail");
/// assert_eq!(outcome.best[0], 4, "quality is maximised by the widest choice");
/// ```
#[derive(Debug)]
pub struct SearchDriver<'a> {
    space: &'a SearchSpace,
    reward_fn: &'a RewardFn,
    config: ControllerConfig,
}

impl<'a> SearchDriver<'a> {
    /// Builds a driver over `space` with the given reward and controller
    /// knobs.
    pub fn new(space: &'a SearchSpace, reward_fn: &'a RewardFn, config: ControllerConfig) -> Self {
        Self {
            space,
            reward_fn,
            config,
        }
    }

    /// Runs the controller loop over `stage`, optionally resuming from a
    /// snapshot and reporting to a checkpoint sink after each completed
    /// step.
    ///
    /// `resume` restores controller state captured by a [`CheckpointSink`]
    /// at a completed step `k`; the loop then runs steps
    /// `k..config.steps` and the outcome is byte-identical to an
    /// uninterrupted run. Stage-owned state is restored through
    /// [`CandidateStage::restore`].
    ///
    /// Each step records its per-phase wall time into the
    /// `h2o_core_phase_seconds{phase=...}` histograms (see [`PHASES`]) and
    /// its total into `h2o_core_step_seconds`, alongside the step span.
    /// All instrumentation is observation-only: the recorded values never
    /// feed back into controller state, so runs with a warm or a freshly
    /// [`h2o_obs::reset`] registry produce bit-identical outcomes
    /// (asserted by `tests/perf_observatory.rs`).
    ///
    /// # Errors
    ///
    /// Before any step runs, returns [`DriverError::Config`] if
    /// `config.shards` or `config.steps` is zero, and
    /// [`DriverError::Resume`] if the resume state was captured past
    /// `config.steps` or its policy does not have exactly the search
    /// space's decisions and choice counts.
    ///
    /// Returns [`DriverError::Checkpoint`] when the sink fails to persist
    /// a snapshot: the loop stops immediately (searching on without the
    /// durability the caller asked for would be a silent contract break).
    /// Returns [`DriverError::Eval`] when the stage fails to produce a
    /// step's candidates (a remote evaluator node died mid-run). In both
    /// cases prior on-disk checkpoints remain valid to resume from.
    ///
    /// # Panics
    ///
    /// Only if the stage's own [`CandidateStage::restore`] panics: the
    /// one-shot stages do on supernet state that does not fit their
    /// network.
    pub fn run<S: CandidateStage + ?Sized>(
        &self,
        stage: &mut S,
        resume: Option<ResumeState>,
        mut sink: Option<&mut dyn CheckpointSink>,
    ) -> Result<SearchOutcome, DriverError> {
        let config = &self.config;
        if config.shards == 0 {
            return Err(DriverError::Config("need at least one shard".into()));
        }
        if config.steps == 0 {
            return Err(DriverError::Config("need at least one step".into()));
        }
        let (start_step, mut policy, mut baseline, mut history, mut evaluated) = match resume {
            Some(state) => {
                if state.steps_done > config.steps {
                    return Err(DriverError::Resume(format!(
                        "resume state is from step {} but the search only runs {} steps",
                        state.steps_done, config.steps
                    )));
                }
                let decisions = self.space.decisions();
                if state.policy.num_decisions() != decisions.len()
                    || state
                        .policy
                        .logits()
                        .zip(decisions)
                        .any(|(row, decision)| row.len() != decision.choices)
                {
                    return Err(DriverError::Resume(format!(
                        "resume policy does not match the decisions of search space '{}'",
                        self.space.name()
                    )));
                }
                stage.restore(&state);
                (
                    state.steps_done,
                    state.policy,
                    state.baseline,
                    state.history,
                    state.evaluated,
                )
            }
            None => (
                0,
                Policy::uniform(self.space),
                RewardBaseline::new(config.baseline_momentum),
                Vec::with_capacity(config.steps),
                Vec::with_capacity(config.steps * config.shards),
            ),
        };
        let steps_total = h2o_obs::counter(stage.steps_counter_name());
        let candidates_total = h2o_obs::counter("h2o_core_candidates_evaluated_total");
        // Phase histograms, hoisted out of the loop (registry lookups have
        // no business on the per-step path). Labels match [`PHASES`].
        let phase_hist =
            |name: &str| h2o_obs::histogram(&format!("h2o_core_phase_seconds{{phase=\"{name}\"}}"));
        let phase_collect = phase_hist("collect");
        let phase_reward = phase_hist("reward");
        let phase_policy = phase_hist("policy_update");
        let phase_stage = phase_hist("stage_update");
        let phase_telemetry = phase_hist("telemetry");
        let step_seconds = h2o_obs::histogram("h2o_core_step_seconds");
        let mean_reward_gauge = h2o_obs::gauge("h2o_core_mean_reward");
        let best_reward_gauge = h2o_obs::gauge("h2o_core_best_reward");
        let entropy_gauge = h2o_obs::gauge("h2o_core_entropy");
        let baseline_gauge = h2o_obs::gauge("h2o_core_baseline");
        // Runs the update for stages that lend no executor: one worker,
        // so it starts no thread and the update runs inline.
        let inline = h2o_exec::Executor::new(1);

        for step in start_step..config.steps {
            let step_span = h2o_obs::span(stage.step_span_name());
            // Stage-specific: shard-seed derivation, candidate sampling and
            // the evaluation fan-out all live inside the stage's collect.
            let results = match phase_collect.time(|| stage.collect(step, &policy)) {
                Ok(results) => results,
                Err(message) => return Err(DriverError::Eval { step, message }),
            };

            // Invariant controller sequence: reward → baseline → REINFORCE.
            // The reward phase covers the submission-order reduction of the
            // shard results into rewards, the baseline EMA, and the
            // advantage batch build.
            let (rewards, mean, best, b, batch) = phase_reward.time(|| {
                let rewards: Vec<f64> = results
                    .iter()
                    .map(|(_, r)| {
                        let reward = self.reward_fn.reward(r.quality, &r.perf_values);
                        if reward.is_finite() {
                            reward
                        } else {
                            NON_FINITE_REWARD_PENALTY
                        }
                    })
                    .collect();
                // h2o-lint: allow(float-cast-on-reward-path) -- shard counts are far
                // below 2^53, so this usize -> f64 conversion is exact.
                let mean = rewards.iter().sum::<f64>() / rewards.len() as f64;
                let best = rewards.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let b = baseline.update(mean);
                let batch: Vec<(&ArchSample, f64)> = results
                    .iter()
                    .zip(&rewards)
                    .map(|((sample, _), &r)| (sample, r - b))
                    .collect();
                (rewards, mean, best, b, batch)
            });
            let executor = stage.executor().unwrap_or(&inline);
            let entropy = phase_policy
                .time(|| policy.reinforce_update_on(&batch, config.policy_lr, executor));
            phase_stage.time(|| stage.after_policy_update(&results, &rewards));

            steps_total.inc();
            candidates_total.add(results.len() as u64);
            mean_reward_gauge.set(mean);
            best_reward_gauge.set(best);
            entropy_gauge.set(entropy);
            baseline_gauge.set(b);
            let step_time_secs = step_span.finish();
            step_seconds.record(step_time_secs);
            let step_time_ms = step_time_secs * 1e3;
            phase_telemetry.time(|| {
                history.push(StepRecord {
                    step,
                    mean_reward: mean,
                    best_reward: best,
                    entropy,
                    step_time_ms,
                });
                for ((sample, result), reward) in results.into_iter().zip(rewards) {
                    evaluated.push(EvaluatedCandidate {
                        sample,
                        result,
                        reward,
                    });
                }
            });

            let steps_done = step + 1;
            if let Some(sink) = sink.as_deref_mut() {
                if sink.should_checkpoint(steps_done) {
                    // Stage serialisation is the expensive part, so it only
                    // happens once the sink has said yes. The phase timer
                    // covers serialisation plus the sink's write; looked up
                    // here (not hoisted) so sinkless runs never register an
                    // empty checkpoint histogram.
                    let written = phase_hist("checkpoint").time(|| {
                        let stage_state = stage.checkpoint_state();
                        let snapshot = SearchSnapshot {
                            steps_done,
                            policy: &policy,
                            baseline: &baseline,
                            history: &history,
                            evaluated: &evaluated,
                            supernet_state: stage_state.as_deref(),
                        };
                        sink.on_checkpoint(&snapshot)
                    });
                    if let Err(message) = written {
                        return Err(DriverError::Checkpoint {
                            steps_done,
                            message,
                        });
                    }
                }
            }
        }

        Ok(SearchOutcome {
            best: policy.argmax(),
            policy,
            history,
            evaluated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reward::RewardKind;
    use crate::search::shard_seed;
    use h2o_space::Decision;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> SearchSpace {
        let mut s = SearchSpace::new("drv");
        s.push(Decision::new("a", 4));
        s.push(Decision::new("b", 3));
        s
    }

    /// A minimal deterministic stage whose quality is `sample[0]`, with a
    /// switch to emit NaN quality on even shards.
    struct ToyStage {
        shards: usize,
        seed: u64,
        nan_on_even_shards: bool,
    }

    impl CandidateStage for ToyStage {
        fn steps_counter_name(&self) -> &'static str {
            "h2o_core_driver_test_steps_total"
        }
        fn collect(
            &mut self,
            step: usize,
            policy: &Policy,
        ) -> Result<Vec<(ArchSample, EvalResult)>, String> {
            Ok((0..self.shards)
                .map(|shard| {
                    let mut rng =
                        StdRng::seed_from_u64(shard_seed(self.seed, step as u64, shard as u64));
                    let sample = policy.sample(&mut rng);
                    let quality = if self.nan_on_even_shards && shard.is_multiple_of(2) {
                        f64::NAN
                    } else {
                        sample[0] as f64
                    };
                    (
                        sample,
                        EvalResult {
                            quality,
                            perf_values: vec![],
                        },
                    )
                })
                .collect())
        }
    }

    fn run_toy(nan_on_even_shards: bool) -> SearchOutcome {
        let space = space();
        let reward = RewardFn::new(RewardKind::Relu, vec![]);
        let config = ControllerConfig {
            steps: 40,
            shards: 4,
            seed: 5,
            ..Default::default()
        };
        let mut stage = ToyStage {
            shards: config.shards,
            seed: config.seed,
            nan_on_even_shards,
        };
        SearchDriver::new(&space, &reward, config)
            .run(&mut stage, None, None)
            .expect("sinkless run cannot fail")
    }

    #[test]
    fn driver_learns_the_argmax() {
        let outcome = run_toy(false);
        assert_eq!(outcome.best[0], 3, "quality favours the widest choice");
        assert_eq!(outcome.history.len(), 40);
        assert_eq!(outcome.evaluated.len(), 160);
    }

    #[test]
    fn nan_rewards_do_not_poison_the_baseline() {
        // Regression for the satellite fix: a NaN from a custom evaluator
        // used to flow straight into the baseline EMA and every subsequent
        // advantage. Now it is clamped to the documented penalty.
        let outcome = run_toy(true);
        for record in &outcome.history {
            assert!(
                record.mean_reward.is_finite(),
                "step {} mean reward went non-finite",
                record.step
            );
        }
        assert!(
            outcome.evaluated.iter().all(|c| c.reward.is_finite()),
            "every reward is clamped finite"
        );
        assert!(
            outcome
                .evaluated
                .iter()
                .any(|c| c.reward == NON_FINITE_REWARD_PENALTY),
            "NaN candidates received the documented penalty"
        );
    }

    #[test]
    fn zero_steps_is_a_config_error() {
        let space = space();
        let reward = RewardFn::new(RewardKind::Relu, vec![]);
        let config = ControllerConfig {
            steps: 0,
            ..Default::default()
        };
        let mut stage = ToyStage {
            shards: 4,
            seed: 0,
            nan_on_even_shards: false,
        };
        let err = SearchDriver::new(&space, &reward, config)
            .run(&mut stage, None, None)
            .expect_err("zero steps cannot drive a search");
        assert_eq!(err, DriverError::Config("need at least one step".into()));
        assert_eq!(
            err.to_string(),
            "invalid search config: need at least one step"
        );
    }

    /// Resumes a 10-step search over [`space`] (decisions of 4 and 3
    /// choices) from a state at `steps_done` with the given policy logits.
    fn resume_from(steps_done: usize, logits: Vec<Vec<f64>>) -> Result<SearchOutcome, DriverError> {
        let space = space();
        let reward = RewardFn::new(RewardKind::Relu, vec![]);
        let config = ControllerConfig {
            steps: 10,
            shards: 2,
            ..Default::default()
        };
        let mut stage = ToyStage {
            shards: config.shards,
            seed: config.seed,
            nan_on_even_shards: false,
        };
        let state = ResumeState {
            steps_done,
            policy: Policy::from_logits(logits),
            baseline: RewardBaseline::new(config.baseline_momentum),
            history: vec![],
            evaluated: vec![],
            supernet_state: None,
        };
        SearchDriver::new(&space, &reward, config).run(&mut stage, Some(state), None)
    }

    #[test]
    fn resume_past_the_horizon_is_a_resume_error() {
        let err = resume_from(11, vec![vec![0.0; 4], vec![0.0; 3]])
            .expect_err("step 11 lies past a 10-step horizon");
        assert!(
            matches!(&err, DriverError::Resume(m) if m.contains("step 11")),
            "{err}"
        );
    }

    #[test]
    fn resume_with_the_wrong_decision_count_is_a_resume_error() {
        let err =
            resume_from(5, vec![vec![0.0; 4]]).expect_err("one decision against a space of two");
        assert!(matches!(err, DriverError::Resume(_)), "{err}");
    }

    #[test]
    fn resume_with_the_wrong_choice_count_is_a_resume_error() {
        // The right number of decisions, but the second row has 4 choices
        // where the space's decision "b" has 3: every stage would sample a
        // choice the space does not have.
        let err = resume_from(5, vec![vec![0.0; 4], vec![0.0; 4]])
            .expect_err("a policy row of the wrong length");
        assert!(matches!(err, DriverError::Resume(_)), "{err}");
    }

    /// A sink that accepts a configured number of snapshots, then fails.
    struct FlakySink {
        accepted: usize,
        budget: usize,
    }

    impl crate::resume::CheckpointSink for FlakySink {
        fn should_checkpoint(&self, _steps_done: usize) -> bool {
            true
        }
        fn on_checkpoint(&mut self, _snapshot: &SearchSnapshot<'_>) -> Result<(), String> {
            if self.accepted < self.budget {
                self.accepted += 1;
                Ok(())
            } else {
                Err("disk full".to_string())
            }
        }
    }

    #[test]
    fn failed_checkpoint_write_returns_a_typed_error() {
        let space = space();
        let reward = RewardFn::new(RewardKind::Relu, vec![]);
        let config = ControllerConfig {
            steps: 10,
            shards: 2,
            seed: 1,
            ..Default::default()
        };
        let mut stage = ToyStage {
            shards: config.shards,
            seed: config.seed,
            nan_on_even_shards: false,
        };
        let mut sink = FlakySink {
            accepted: 0,
            budget: 3,
        };
        let err = SearchDriver::new(&space, &reward, config)
            .run(&mut stage, None, Some(&mut sink))
            .expect_err("the fourth checkpoint write fails");
        assert_eq!(
            err,
            DriverError::Checkpoint {
                steps_done: 4,
                message: "disk full".to_string(),
            }
        );
        let shown = err.to_string();
        assert!(
            shown.contains("step 4") && shown.contains("disk full"),
            "{shown}"
        );
    }

    /// A stage that evaluates normally until a configured step, then fails
    /// like a dead remote node would.
    struct DyingStage {
        inner: ToyStage,
        dies_at: usize,
    }

    impl CandidateStage for DyingStage {
        fn steps_counter_name(&self) -> &'static str {
            "h2o_core_driver_test_steps_total"
        }
        fn collect(
            &mut self,
            step: usize,
            policy: &Policy,
        ) -> Result<Vec<(ArchSample, EvalResult)>, String> {
            if step >= self.dies_at {
                return Err("node 1 hung up".to_string());
            }
            self.inner.collect(step, policy)
        }
    }

    #[test]
    fn failed_collect_returns_a_typed_eval_error() {
        let space = space();
        let reward = RewardFn::new(RewardKind::Relu, vec![]);
        let config = ControllerConfig {
            steps: 10,
            shards: 2,
            seed: 1,
            ..Default::default()
        };
        let mut stage = DyingStage {
            inner: ToyStage {
                shards: config.shards,
                seed: config.seed,
                nan_on_even_shards: false,
            },
            dies_at: 3,
        };
        let err = SearchDriver::new(&space, &reward, config)
            .run(&mut stage, None, None)
            .expect_err("collection dies at step 3");
        assert_eq!(
            err,
            DriverError::Eval {
                step: 3,
                message: "node 1 hung up".to_string(),
            }
        );
        let shown = err.to_string();
        assert!(
            shown.contains("step 3") && shown.contains("hung up"),
            "{shown}"
        );
    }
}
