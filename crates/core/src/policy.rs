//! The RL controller's policy: independent multinomials over categorical
//! decisions, trained with REINFORCE.
//!
//! §4.1: "the RL algorithm learns a policy π, a probability distribution
//! over a collection of independent multinomial variables. Each variable
//! controls a decision of the search space." At the end of a search "the
//! final architecture is obtained by independently selecting the most
//! probable value for each categorical decision in π".

use h2o_space::{ArchSample, SearchSpace};
use rand::Rng;
use std::ops::Range;

/// Softmax policy over a search space's decisions.
///
/// Beside its logits the policy keeps their softmax, refreshed row by row
/// whenever logits change, so sampling and the entropy only read it.
///
/// # Examples
///
/// ```
/// use h2o_core::Policy;
/// use h2o_space::{SearchSpace, Decision};
/// use rand::SeedableRng;
///
/// let mut space = SearchSpace::new("toy");
/// space.push(Decision::new("k", 3));
/// let policy = Policy::uniform(&space);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let sample = policy.sample(&mut rng);
/// assert!(sample[0] < 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Policy {
    /// Every decision's logits, concatenated in decision order.
    logits: Vec<f64>,
    /// Row bounds: decision `d` owns `offsets[d]..offsets[d + 1]`.
    offsets: Vec<usize>,
    /// The softmax of `logits`, row by row, as [`softmax_into`] writes it.
    probs: Vec<f64>,
}

impl Policy {
    /// A uniform policy over the space (all logits zero).
    pub fn uniform(space: &SearchSpace) -> Self {
        Self::from_rows(space.decisions().iter().map(|d| vec![0.0; d.choices]))
    }

    /// Number of decisions.
    pub fn num_decisions(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The raw logits, one row per decision (checkpoint serialisation).
    pub fn logits(&self) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        self.rows().map(move |row| &self.logits[row])
    }

    /// Rebuilds a policy from raw logits (checkpoint restore).
    ///
    /// # Panics
    ///
    /// Panics if `logits` is empty or any decision has no choices.
    pub fn from_logits(logits: Vec<Vec<f64>>) -> Self {
        assert!(!logits.is_empty(), "policy needs at least one decision");
        assert!(
            logits.iter().all(|l| !l.is_empty()),
            "every decision needs at least one choice"
        );
        Self::from_rows(logits)
    }

    /// Flattens per-decision logit rows and fills the probability table.
    fn from_rows(rows: impl IntoIterator<Item = Vec<f64>>) -> Self {
        let mut logits = Vec::new();
        let mut offsets = vec![0];
        for row in rows {
            logits.extend(row);
            offsets.push(logits.len());
        }
        let mut probs = vec![0.0; logits.len()];
        for w in offsets.windows(2) {
            softmax_into(&logits[w[0]..w[1]], &mut probs[w[0]..w[1]]);
        }
        Self {
            logits,
            offsets,
            probs,
        }
    }

    /// Each decision's range in `logits` and `probs`.
    fn rows(&self) -> impl ExactSizeIterator<Item = Range<usize>> + '_ {
        self.offsets.windows(2).map(|w| w[0]..w[1])
    }

    /// Softmax probabilities of one decision.
    ///
    /// # Panics
    ///
    /// Panics if `decision` is out of range.
    pub fn probs(&self, decision: usize) -> &[f64] {
        &self.probs[self.offsets[decision]..self.offsets[decision + 1]]
    }

    /// Samples one architecture from the product of multinomials.
    pub fn sample(&self, rng: &mut impl Rng) -> ArchSample {
        self.rows()
            .map(|row| {
                let probs = &self.probs[row];
                let u: f64 = rng.gen();
                let mut acc = 0.0;
                for (c, p) in probs.iter().enumerate() {
                    acc += p;
                    if u < acc {
                        return c;
                    }
                }
                probs.len() - 1
            })
            .collect()
    }

    /// The most probable architecture (the search's final answer).
    pub fn argmax(&self) -> ArchSample {
        self.logits()
            .map(|logits| {
                logits
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(c, _)| c)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Log-probability of a sample under the policy.
    ///
    /// # Panics
    ///
    /// Panics if the sample shape mismatches the policy.
    pub fn log_prob(&self, sample: &ArchSample) -> f64 {
        assert_eq!(sample.len(), self.num_decisions(), "sample length mismatch");
        sample
            .iter()
            .enumerate()
            .map(|(d, &c)| self.probs(d)[c].max(1e-300).ln())
            .sum()
    }

    /// Mean per-decision entropy in nats — a convergence diagnostic.
    pub fn mean_entropy(&self) -> f64 {
        let total: f64 = self
            .rows()
            .map(|row| {
                -self.probs[row]
                    .iter()
                    .map(|p| p * p.max(1e-300).ln())
                    .sum::<f64>()
            })
            .sum();
        total / self.num_decisions().max(1) as f64
    }

    /// One cross-shard REINFORCE update (§4.2): for every (sample,
    /// advantage) pair, moves each chosen logit by
    /// `lr · advantage · (1 − p)` and the others by `−lr · advantage · p`.
    /// Advantages should already be baseline-subtracted. Pairs apply in
    /// batch order, and each decision's probabilities are refreshed as
    /// soon as its logits move, so every pair sees the ones before it.
    ///
    /// # Panics
    ///
    /// Panics if shapes mismatch.
    pub fn reinforce_update(&mut self, batch: &[(ArchSample, f64)], lr: f64) {
        for (sample, advantage) in batch {
            assert_eq!(sample.len(), self.num_decisions(), "sample length mismatch");
            for (w, &chosen) in self.offsets.windows(2).zip(sample) {
                let logits = &mut self.logits[w[0]..w[1]];
                let probs = &mut self.probs[w[0]..w[1]];
                for (c, (logit, p)) in logits.iter_mut().zip(probs.iter()).enumerate() {
                    let indicator = if c == chosen { 1.0 } else { 0.0 };
                    *logit += lr * (advantage * (indicator - p));
                }
                softmax_into(logits, probs);
            }
        }
    }
}

/// Writes the softmax of `logits` into `probs`: the max, `exp(l − max)`
/// per choice, their left-to-right sum, then one division per choice.
/// Sampled architectures depend on every bit of the result, so this
/// order of operations is part of the search output.
fn softmax_into(logits: &[f64], probs: &mut [f64]) {
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for (p, l) in probs.iter_mut().zip(logits) {
        *p = (l - max).exp();
    }
    let sum: f64 = probs.iter().sum();
    for p in probs {
        *p /= sum;
    }
}

/// Exponential-moving-average reward baseline, shared across shards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RewardBaseline {
    value: f64,
    momentum: f64,
    initialized: bool,
}

impl RewardBaseline {
    /// Creates a baseline with the given EMA momentum (e.g. 0.9).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ momentum < 1`.
    pub fn new(momentum: f64) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        Self {
            value: 0.0,
            momentum,
            initialized: false,
        }
    }

    /// Current baseline value (0 until the first update).
    pub fn value(&self) -> f64 {
        self.value
    }

    /// The EMA momentum.
    pub fn momentum(&self) -> f64 {
        self.momentum
    }

    /// Whether the first update has happened.
    pub fn initialized(&self) -> bool {
        self.initialized
    }

    /// Rebuilds a baseline from its parts (checkpoint restore).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ momentum < 1`.
    pub fn from_parts(value: f64, momentum: f64, initialized: bool) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        Self {
            value,
            momentum,
            initialized,
        }
    }

    /// Folds a new mean reward into the EMA and returns the *previous*
    /// baseline (the one advantages at this step should subtract).
    pub fn update(&mut self, mean_reward: f64) -> f64 {
        let prev = if self.initialized {
            self.value
        } else {
            mean_reward
        };
        self.value = if self.initialized {
            self.momentum * self.value + (1.0 - self.momentum) * mean_reward
        } else {
            mean_reward
        };
        self.initialized = true;
        prev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2o_space::Decision;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> SearchSpace {
        let mut s = SearchSpace::new("t");
        s.push(Decision::new("a", 3));
        s.push(Decision::new("b", 4));
        s
    }

    #[test]
    fn uniform_probs_sum_to_one() {
        let p = Policy::uniform(&space());
        for d in 0..2 {
            let sum: f64 = p.probs(d).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
        assert!((p.probs(0)[0] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn samples_are_in_range() {
        let p = Policy::uniform(&space());
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            let s = p.sample(&mut rng);
            assert!(s[0] < 3 && s[1] < 4);
        }
    }

    #[test]
    fn reinforce_concentrates_on_rewarded_choice() {
        // Reward choice 2 of decision 0; the policy must converge there.
        let mut p = Policy::uniform(&space());
        let mut rng = StdRng::seed_from_u64(1);
        let mut baseline = RewardBaseline::new(0.9);
        for _ in 0..400 {
            let samples: Vec<ArchSample> = (0..8).map(|_| p.sample(&mut rng)).collect();
            let rewards: Vec<f64> = samples
                .iter()
                .map(|s| if s[0] == 2 { 1.0 } else { 0.0 })
                .collect();
            let mean = rewards.iter().sum::<f64>() / rewards.len() as f64;
            let b = baseline.update(mean);
            let batch: Vec<(ArchSample, f64)> = samples
                .into_iter()
                .zip(rewards.iter().map(|r| r - b))
                .collect();
            p.reinforce_update(&batch, 0.1);
        }
        assert_eq!(p.argmax()[0], 2);
        assert!(p.probs(0)[2] > 0.8, "probs {:?}", p.probs(0));
    }

    #[test]
    fn entropy_decreases_as_policy_concentrates() {
        let mut p = Policy::uniform(&space());
        let before = p.mean_entropy();
        p.reinforce_update(&[(vec![0, 0], 5.0)], 1.0);
        assert!(p.mean_entropy() < before);
    }

    #[test]
    fn log_prob_uniform() {
        let p = Policy::uniform(&space());
        let lp = p.log_prob(&vec![0, 0]);
        assert!((lp - ((1.0f64 / 3.0).ln() + 0.25f64.ln())).abs() < 1e-9);
    }

    #[test]
    fn argmax_picks_highest_logit() {
        let p = Policy::from_logits(vec![vec![0.0; 3], vec![0.0, 0.0, 0.0, 2.0]]);
        assert_eq!(p.argmax()[1], 3);
    }

    #[test]
    fn baseline_returns_previous_value() {
        let mut b = RewardBaseline::new(0.5);
        assert_eq!(b.update(10.0), 10.0); // first update: baseline = first mean
        assert_eq!(b.update(20.0), 10.0); // returns pre-update value
        assert_eq!(b.value(), 15.0);
    }

    #[test]
    #[should_panic(expected = "momentum")]
    fn bad_momentum_panics() {
        RewardBaseline::new(1.5);
    }

    #[test]
    fn zero_advantage_leaves_policy_unchanged() {
        let mut p = Policy::uniform(&space());
        let before = p.clone();
        p.reinforce_update(&[(vec![1, 1], 0.0)], 0.5);
        assert_eq!(p, before);
    }
}
