//! Replays a finished search's controller trajectory to time the policy
//! calls and to check that the traced run reproduced the program's
//! numbers bit for bit.
//!
//! `SearchDriver` never exposes its policy between steps, but the trajectory
//! is a pure function of the recorded candidates: re-deriving each step's
//! samples through `shard_seed`, recomputing rewards and the baseline, and
//! re-applying `reinforce_update` must land on the recorded rewards and
//! entropies exactly.

use crate::record::{elapsed_ns, PolicyTimes};
use h2o_nas::core::{
    shard_seed, ControllerConfig, Policy, RewardBaseline, RewardFn, SearchOutcome,
    NON_FINITE_REWARD_PENALTY,
};
use h2o_nas::space::{ArchSample, SearchSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// How a stage derives its sample streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Streams {
    /// One RNG per `(seed, step, shard)` (parallel and distributed stages).
    PerShard,
    /// One RNG per step, tagged `u64::MAX` (the unified one-shot stage).
    PerStep,
}

/// Replay result: per-step policy timings and the first mismatch found.
#[derive(Debug, Default)]
pub struct Replay {
    pub times: Vec<PolicyTimes>,
    pub mismatch: Option<String>,
}

/// Keeps the first mismatch.
fn fail(out: &mut Replay, msg: String) {
    out.mismatch.get_or_insert(msg);
}

/// Bit-for-bit equality of two floats.
pub fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// Replays `outcome` from a uniform policy and a fresh baseline.
pub fn replay(
    outcome: &SearchOutcome,
    space: &SearchSpace,
    reward_fn: &RewardFn,
    config: &ControllerConfig,
    streams: Streams,
) -> Replay {
    let shards = config.shards;
    let mut policy = Policy::uniform(space);
    let mut baseline = RewardBaseline::new(config.baseline_momentum);
    let mut out = Replay::default();
    for (step, record) in outcome.history.iter().enumerate() {
        let recorded = &outcome.evaluated[step * shards..(step + 1) * shards];
        let t = Instant::now();
        let samples: Vec<ArchSample> = match streams {
            Streams::PerShard => (0..shards)
                .map(|shard| {
                    let mut rng =
                        StdRng::seed_from_u64(shard_seed(config.seed, step as u64, shard as u64));
                    policy.sample(&mut rng)
                })
                .collect(),
            Streams::PerStep => {
                let mut rng = StdRng::seed_from_u64(shard_seed(config.seed, step as u64, u64::MAX));
                (0..shards).map(|_| policy.sample(&mut rng)).collect()
            }
        };
        let sample_ns = elapsed_ns(t);
        if samples
            .iter()
            .zip(recorded)
            .any(|(sample, c)| *sample != c.sample)
        {
            fail(&mut out, format!("step {step}: replayed samples differ"));
        }
        let rewards: Vec<f64> = recorded
            .iter()
            .map(|c| {
                let r = reward_fn.reward(c.result.quality, &c.result.perf_values);
                if r.is_finite() {
                    r
                } else {
                    NON_FINITE_REWARD_PENALTY
                }
            })
            .collect();
        if rewards
            .iter()
            .zip(recorded)
            .any(|(&r, c)| !same(r, c.reward))
        {
            fail(&mut out, format!("step {step}: replayed rewards differ"));
        }
        let mean = rewards.iter().sum::<f64>() / rewards.len() as f64;
        let best = rewards.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if !same(mean, record.mean_reward) || !same(best, record.best_reward) {
            fail(
                &mut out,
                format!("step {step}: replayed mean/best reward differ"),
            );
        }
        let b = baseline.update(mean);
        let batch: Vec<(ArchSample, f64)> = samples
            .into_iter()
            .zip(&rewards)
            .map(|(sample, &r)| (sample, r - b))
            .collect();
        let t = Instant::now();
        policy.reinforce_update(&batch, config.policy_lr);
        let update_ns = elapsed_ns(t);
        let t = Instant::now();
        let entropy = std::hint::black_box(policy.mean_entropy());
        let entropy_ns = elapsed_ns(t);
        if !same(entropy, record.entropy) {
            fail(&mut out, format!("step {step}: replayed entropy differs"));
        }
        out.times.push(PolicyTimes {
            sample_ns,
            update_ns,
            entropy_ns,
        });
    }
    if policy.argmax() != outcome.best {
        fail(
            &mut out,
            "replayed argmax differs from the best".to_string(),
        );
    }
    out
}
