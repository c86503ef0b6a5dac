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
        let total: f64 = self.rows().map(|row| row_entropy(&self.probs[row])).sum();
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
        self.check_shapes(batch);
        let rows = 0..self.num_decisions();
        update_rows(
            batch,
            lr,
            &self.offsets,
            rows,
            &mut self.logits,
            &mut self.probs,
            None,
        );
    }

    /// [`reinforce_update`](Self::reinforce_update) with the decisions
    /// split into one contiguous block per worker of `executor`, balanced
    /// by choice count; returns the updated policy's
    /// [`mean_entropy`](Self::mean_entropy), computed in the same pass.
    ///
    /// A decision's update reads and writes only its own row, so each
    /// block applies the whole batch to its rows, in batch order, and the
    /// logits, probabilities and entropy are bit-identical to the serial
    /// update's for every worker count. The per-row entropies are summed
    /// in row order, as `mean_entropy` sums them. With one worker, or one
    /// decision, the update runs on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if shapes mismatch.
    pub fn reinforce_update_on<S>(
        &mut self,
        batch: &[(S, f64)],
        lr: f64,
        executor: &h2o_exec::Executor,
    ) -> f64
    where
        S: AsRef<[usize]> + Sync,
    {
        self.check_shapes(batch);
        let mut entropy = vec![0.0; self.num_decisions()];
        let offsets = &self.offsets[..];
        let (mut logits, mut probs, mut rest) =
            (&mut self.logits[..], &mut self.probs[..], &mut entropy[..]);
        let jobs: Vec<_> = row_blocks(offsets, executor.workers())
            .map(|rows| {
                let width = offsets[rows.end] - offsets[rows.start];
                let (block_logits, tail) = std::mem::take(&mut logits).split_at_mut(width);
                logits = tail;
                let (block_probs, tail) = std::mem::take(&mut probs).split_at_mut(width);
                probs = tail;
                let (block_entropy, tail) = std::mem::take(&mut rest).split_at_mut(rows.len());
                rest = tail;
                move || {
                    update_rows(
                        batch,
                        lr,
                        offsets,
                        rows,
                        block_logits,
                        block_probs,
                        Some(block_entropy),
                    )
                }
            })
            .collect();
        // A single block runs on the calling thread, outside the executor
        // and its batch instruments.
        if jobs.len() > 1 {
            executor.execute(jobs);
        } else {
            jobs.into_iter().for_each(|job| job());
        }
        let total: f64 = entropy.into_iter().sum();
        total / self.num_decisions().max(1) as f64
    }

    /// Asserts that every sample has one choice per decision.
    fn check_shapes<S: AsRef<[usize]>>(&self, batch: &[(S, f64)]) {
        for (sample, _) in batch {
            assert_eq!(
                sample.as_ref().len(),
                self.num_decisions(),
                "sample length mismatch"
            );
        }
    }
}

/// The REINFORCE kernel over the decisions in `rows`, whose logits and
/// probabilities start at `offsets[rows.start]` of `logits` and `probs`.
/// Row by row, it applies every (sample, advantage) pair of `batch` in
/// batch order, refreshing the row's softmax after each, and then writes
/// the row's entropy into `entropy`, if given, at the row's index within
/// `rows`. Rows never read each other, so any split of the rows writes
/// the same bits.
fn update_rows<S: AsRef<[usize]>>(
    batch: &[(S, f64)],
    lr: f64,
    offsets: &[usize],
    rows: Range<usize>,
    logits: &mut [f64],
    probs: &mut [f64],
    mut entropy: Option<&mut [f64]>,
) {
    let base = offsets[rows.start];
    for (i, d) in rows.enumerate() {
        let row = offsets[d] - base..offsets[d + 1] - base;
        let logits = &mut logits[row.clone()];
        let probs = &mut probs[row];
        for (sample, advantage) in batch {
            let chosen = sample.as_ref()[d];
            for (c, (logit, p)) in logits.iter_mut().zip(probs.iter()).enumerate() {
                let indicator = if c == chosen { 1.0 } else { 0.0 };
                *logit += lr * (advantage * (indicator - p));
            }
            softmax_into(logits, probs);
        }
        if let Some(entropy) = entropy.as_deref_mut() {
            entropy[i] = row_entropy(probs);
        }
    }
}

/// Splits the decisions into at most `blocks` contiguous, non-empty ranges
/// with about equal choice counts: a block ends once it has reached its
/// share of the choices left.
fn row_blocks(offsets: &[usize], blocks: usize) -> impl Iterator<Item = Range<usize>> + '_ {
    let rows = offsets.len() - 1;
    let mut start = 0;
    let mut left = blocks.clamp(1, rows.max(1));
    std::iter::from_fn(move || {
        if start == rows {
            return None;
        }
        let total = offsets[rows] - offsets[start];
        // The rows up to `end` hold at least 1/left of the choices left,
        // and leave at least one row for every later block.
        let mut end = start + 1;
        while end < rows + 1 - left && (offsets[end] - offsets[start]) * left < total {
            end += 1;
        }
        let block = start..end;
        start = end;
        left = left.saturating_sub(1).max(1);
        Some(block)
    })
}

/// The entropy of one decision's probabilities, in nats: its terms summed
/// left to right.
fn row_entropy(probs: &[f64]) -> f64 {
    -probs.iter().map(|p| p * p.max(1e-300).ln()).sum::<f64>()
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
    fn row_blocks_split_every_decision_once_by_choice_count() {
        let offsets = [0, 4, 5, 6, 14, 16, 20];
        for blocks in 1..=8 {
            let split: Vec<Range<usize>> = row_blocks(&offsets, blocks).collect();
            assert_eq!(split.len(), blocks.min(6), "{blocks} blocks: {split:?}");
            assert!(split.iter().all(|b| !b.is_empty()), "{split:?}");
            let rows: Vec<usize> = split.iter().flat_map(Range::clone).collect();
            assert_eq!(rows, (0..6).collect::<Vec<_>>());
        }
        // Two blocks: the first ends once it holds half of the 20 choices.
        let halves: Vec<Range<usize>> = row_blocks(&offsets, 2).collect();
        assert_eq!(halves, [0..4, 4..6]);
    }

    #[test]
    fn split_update_matches_the_serial_one() {
        let batch = [(vec![2, 0], 1.5), (vec![0, 3], -0.5), (vec![1, 1], 2.0)];
        let mut serial = Policy::uniform(&space());
        serial.reinforce_update(&batch, 0.3);
        for workers in [1, 2, 3] {
            let mut split = Policy::uniform(&space());
            let executor = h2o_exec::Executor::new(workers);
            let entropy = split.reinforce_update_on(&batch, 0.3, &executor);
            assert_eq!(split, serial, "{workers} workers");
            assert_eq!(entropy.to_bits(), serial.mean_entropy().to_bits());
        }
    }

    #[test]
    fn zero_advantage_leaves_policy_unchanged() {
        let mut p = Policy::uniform(&space());
        let before = p.clone();
        p.reinforce_update(&[(vec![1, 1], 0.0)], 0.5);
        assert_eq!(p, before);
    }
}
