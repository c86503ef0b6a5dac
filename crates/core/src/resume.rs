//! Checkpoint/resume hooks for the search loops.
//!
//! The determinism contract (same seed ⇒ bit-identical outcomes for any
//! worker count) makes resume *verifiable*: a search interrupted at a
//! completed step `k` and restarted from a snapshot must reproduce the
//! uninterrupted run byte-for-byte. This module defines what a snapshot
//! contains ([`SearchSnapshot`] / [`ResumeState`]) and how the loops hand
//! one out ([`CheckpointSink`]); the durable, crash-safe file encoding
//! lives in the `h2o-ckpt` crate, keeping `h2o-core` storage-agnostic.
//!
//! Because per-step sample streams are derived from `(seed, step, shard)`
//! (see [`crate::search::shard_seed`]), no run-long RNG state exists to
//! save: controller state (policy logits + reward baseline), accumulated
//! telemetry, and — for one-shot loops — the supernet's shared weights are
//! the complete resumable state.

use crate::oneshot::OneShotConfig;
use crate::policy::{Policy, RewardBaseline};
use crate::search::{EvaluatedCandidate, SearchConfig, StepRecord};
use h2o_space::{Decision, SearchSpace};

/// Borrowed view of everything needed to resume a search after a completed
/// step, handed to [`CheckpointSink::on_checkpoint`].
#[derive(Debug)]
pub struct SearchSnapshot<'a> {
    /// Number of fully completed steps; the resumed run starts here.
    pub steps_done: usize,
    /// Policy after `steps_done` REINFORCE updates.
    pub policy: &'a Policy,
    /// EMA reward baseline state.
    pub baseline: &'a RewardBaseline,
    /// Per-step telemetry accumulated so far.
    pub history: &'a [StepRecord],
    /// Every candidate evaluated so far.
    pub evaluated: &'a [EvaluatedCandidate],
    /// Serialised supernet shared weights (one-shot loops only).
    pub supernet_state: Option<&'a [u8]>,
}

/// Owned counterpart of [`SearchSnapshot`]: what a restore hands back to
/// the search loops.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumeState {
    /// Number of fully completed steps; the resumed run starts here.
    pub steps_done: usize,
    /// Policy after `steps_done` REINFORCE updates.
    pub policy: Policy,
    /// EMA reward baseline state.
    pub baseline: RewardBaseline,
    /// Per-step telemetry accumulated so far.
    pub history: Vec<StepRecord>,
    /// Every candidate evaluated so far.
    pub evaluated: Vec<EvaluatedCandidate>,
    /// Serialised supernet shared weights (one-shot loops only).
    pub supernet_state: Option<Vec<u8>>,
}

impl ResumeState {
    /// Clones a borrowed snapshot into owned resume state.
    pub fn from_snapshot(snapshot: &SearchSnapshot<'_>) -> Self {
        Self {
            steps_done: snapshot.steps_done,
            policy: snapshot.policy.clone(),
            baseline: *snapshot.baseline,
            history: snapshot.history.to_vec(),
            evaluated: snapshot.evaluated.to_vec(),
            supernet_state: snapshot.supernet_state.map(|s| s.to_vec()),
        }
    }

    /// Borrows this state back as a [`SearchSnapshot`] (for re-encoding).
    pub fn as_snapshot(&self) -> SearchSnapshot<'_> {
        SearchSnapshot {
            steps_done: self.steps_done,
            policy: &self.policy,
            baseline: &self.baseline,
            history: &self.history,
            evaluated: &self.evaluated,
            supernet_state: self.supernet_state.as_deref(),
        }
    }
}

/// A hook [`SearchDriver::run`](crate::SearchDriver::run) consults after
/// every completed step.
///
/// [`CheckpointSink::should_checkpoint`] gates the (possibly expensive)
/// snapshot construction — one-shot stages only serialise the supernet
/// when the sink says yes. A sink error stops the search with
/// [`DriverError::Checkpoint`](crate::DriverError::Checkpoint): silently
/// continuing would let a run believe it is durable when it is not.
pub trait CheckpointSink {
    /// Whether a snapshot should be taken after `steps_done` completed
    /// steps.
    fn should_checkpoint(&self, steps_done: usize) -> bool;

    /// Persists (or captures) the snapshot.
    ///
    /// # Errors
    ///
    /// Any error string; `SearchDriver::run` stops the search and returns it.
    fn on_checkpoint(&mut self, snapshot: &SearchSnapshot<'_>) -> Result<(), String>;
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// FNV-1a over the 8 bytes of `value`, folded into `hash`.
fn fnv1a_u64(mut hash: u64, value: u64) -> u64 {
    for byte in value.to_le_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

fn fnv1a_str(mut hash: u64, value: &str) -> u64 {
    for byte in value.as_bytes() {
        hash ^= *byte as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Hashes the space's identity: its name plus every decision's name and
/// cardinality, in order.
fn space_fingerprint(mut hash: u64, space: &SearchSpace) -> u64 {
    hash = fnv1a_str(hash, space.name());
    hash = fnv1a_u64(hash, space.num_decisions() as u64);
    for Decision { name, choices } in space.decisions() {
        hash = fnv1a_str(hash, name);
        hash = fnv1a_u64(hash, *choices as u64);
    }
    hash
}

// Each fingerprint destructures the config it hashes, without `..`: a new
// field does not compile until it is hashed or bound as `_` beside the
// reason it cannot change the trajectory.

impl SearchConfig {
    /// A fingerprint of everything that must match for a checkpoint to be
    /// resumable under this config: the search space's shape plus the
    /// trajectory-determining hyper-parameters (`shards`, `policy_lr`,
    /// `baseline_momentum`, `seed`). `steps` and `workers` are deliberately
    /// *excluded* — a resumed run may extend the horizon or change the
    /// worker count without perturbing the outcome.
    pub fn fingerprint(&self, space: &SearchSpace) -> u64 {
        let Self {
            // A resumed run may extend the horizon.
            steps: _,
            shards,
            policy_lr,
            baseline_momentum,
            seed,
            // The outcome is bit-identical for every worker count.
            workers: _,
        } = *self;
        let mut hash = fnv1a_str(FNV_OFFSET, "parallel_search");
        hash = space_fingerprint(hash, space);
        hash = fnv1a_u64(hash, shards as u64);
        hash = fnv1a_u64(hash, policy_lr.to_bits());
        hash = fnv1a_u64(hash, baseline_momentum.to_bits());
        fnv1a_u64(hash, seed)
    }
}

impl OneShotConfig {
    /// A fingerprint of everything that must match for a checkpoint to be
    /// resumable under this config (see [`SearchConfig::fingerprint`]);
    /// additionally covers `batch_size` and `quality_scale`, which shape
    /// the supernet training trajectory. `steps` and `workers` are
    /// excluded.
    pub fn fingerprint(&self, space: &SearchSpace) -> u64 {
        let Self {
            // A resumed run may extend the horizon.
            steps: _,
            shards,
            batch_size,
            policy_lr,
            baseline_momentum,
            quality_scale,
            seed,
            // The outcome is bit-identical for every worker count.
            workers: _,
        } = *self;
        let mut hash = fnv1a_str(FNV_OFFSET, "unified_search");
        hash = space_fingerprint(hash, space);
        hash = fnv1a_u64(hash, shards as u64);
        hash = fnv1a_u64(hash, batch_size as u64);
        hash = fnv1a_u64(hash, policy_lr.to_bits());
        hash = fnv1a_u64(hash, baseline_momentum.to_bits());
        hash = fnv1a_u64(hash, quality_scale.to_bits());
        fnv1a_u64(hash, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> SearchSpace {
        let mut s = SearchSpace::new("fp");
        s.push(Decision::new("a", 3));
        s.push(Decision::new("b", 4));
        s
    }

    #[test]
    fn fingerprint_ignores_steps_and_workers() {
        let s = space();
        let base = SearchConfig {
            steps: 100,
            workers: 1,
            ..Default::default()
        };
        for other in [
            SearchConfig { steps: 500, ..base },
            SearchConfig { workers: 8, ..base },
        ] {
            assert_eq!(base.fingerprint(&s), other.fingerprint(&s), "{other:?}");
        }
        let base = OneShotConfig {
            steps: 100,
            workers: 1,
            ..Default::default()
        };
        for other in [
            OneShotConfig { steps: 500, ..base },
            OneShotConfig { workers: 8, ..base },
        ] {
            assert_eq!(base.fingerprint(&s), other.fingerprint(&s), "{other:?}");
        }
    }

    #[test]
    fn fingerprint_covers_seed_shards_and_lr() {
        let s = space();
        let base = SearchConfig::default();
        for other in [
            SearchConfig { seed: 1, ..base },
            SearchConfig { shards: 9, ..base },
            SearchConfig {
                policy_lr: 0.051,
                ..base
            },
            SearchConfig {
                baseline_momentum: 0.91,
                ..base
            },
        ] {
            assert_ne!(base.fingerprint(&s), other.fingerprint(&s), "{other:?}");
        }
        let base = OneShotConfig::default();
        for other in [
            OneShotConfig { seed: 1, ..base },
            OneShotConfig { shards: 9, ..base },
            OneShotConfig {
                batch_size: 65,
                ..base
            },
            OneShotConfig {
                policy_lr: 0.051,
                ..base
            },
            OneShotConfig {
                baseline_momentum: 0.91,
                ..base
            },
            OneShotConfig {
                quality_scale: 10.5,
                ..base
            },
        ] {
            assert_ne!(base.fingerprint(&s), other.fingerprint(&s), "{other:?}");
        }
    }

    #[test]
    fn fingerprint_covers_the_space_shape() {
        let cfg = SearchConfig::default();
        let shaped = |name: &str, b: &str, choices: usize| {
            let mut s = SearchSpace::new(name);
            s.push(Decision::new("a", 3));
            s.push(Decision::new(b, choices));
            s
        };
        for other in [
            shaped("fp", "b", 5),
            shaped("fp", "c", 4),
            shaped("fq", "b", 4),
        ] {
            assert_ne!(cfg.fingerprint(&space()), cfg.fingerprint(&other));
        }
    }

    #[test]
    fn round_trip_through_owned_state() {
        let policy = Policy::from_logits(vec![vec![0.5, -0.25], vec![1.0, 2.0, 3.0]]);
        let baseline = RewardBaseline::from_parts(0.75, 0.9, true);
        let snapshot = SearchSnapshot {
            steps_done: 7,
            policy: &policy,
            baseline: &baseline,
            history: &[],
            evaluated: &[],
            supernet_state: Some(&[1, 2, 3]),
        };
        let state = ResumeState::from_snapshot(&snapshot);
        assert_eq!(state.steps_done, 7);
        assert_eq!(state.policy, policy);
        assert_eq!(state.supernet_state.as_deref(), Some(&[1u8, 2, 3][..]));
        let again = ResumeState::from_snapshot(&state.as_snapshot());
        assert_eq!(again, state);
    }
}
