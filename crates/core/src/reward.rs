//! Multi-objective reward functions (§6.1).
//!
//! The paper's **single-sided ReLU reward** (Eq. 1):
//!
//! ```text
//! R(α) = Q(α) + Σᵢ βᵢ · ReLU(Tᵢ(α)/Tᵢ₀ − 1),      βᵢ < 0
//! ```
//!
//! penalises candidates *over* a performance target linearly and leaves
//! candidates at-or-under the target unpenalised — so overachieving models
//! with equal quality are preferred, which matters when several objectives
//! make the feasible region sparse. The baseline is TuNAS's **absolute
//! value reward** (Eq. 2), which also penalises overachievers; Fig. 5 shows
//! the ReLU form dominating it under multiple objectives.

/// One performance objective: a target and a penalty weight.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfObjective {
    /// Display name, e.g. `"train_step_time"` or `"model_size"`.
    pub name: String,
    /// The target `Tᵢ₀` (same unit as the measured value; must be > 0).
    pub target: f64,
    /// The weight `βᵢ` — a finite **negative** scalar.
    pub beta: f64,
}

impl PerfObjective {
    /// Creates an objective.
    ///
    /// # Panics
    ///
    /// Panics if `target <= 0` or `beta >= 0`.
    pub fn new(name: impl Into<String>, target: f64, beta: f64) -> Self {
        assert!(target > 0.0, "target must be positive");
        assert!(
            beta < 0.0 && beta.is_finite(),
            "beta must be a finite negative scalar"
        );
        Self {
            name: name.into(),
            target,
            beta,
        }
    }
}

/// The reward-combination rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewardKind {
    /// The paper's single-sided ReLU reward (Eq. 1).
    Relu,
    /// TuNAS's absolute-value reward (Eq. 2) — the Fig. 5 baseline.
    Absolute,
}

/// A multi-objective reward function.
///
/// # Examples
///
/// ```
/// use h2o_core::{RewardFn, RewardKind, PerfObjective};
///
/// let reward = RewardFn::new(
///     RewardKind::Relu,
///     vec![PerfObjective::new("latency", 1.0e-3, -2.0)],
/// );
/// // Under target: no penalty. Over target: linear penalty.
/// assert_eq!(reward.reward(90.0, &[0.5e-3]), 90.0);
/// assert!(reward.reward(90.0, &[2.0e-3]) < 90.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RewardFn {
    kind: RewardKind,
    objectives: Vec<PerfObjective>,
}

impl RewardFn {
    /// Creates a reward function over the given objectives.
    pub fn new(kind: RewardKind, objectives: Vec<PerfObjective>) -> Self {
        Self { kind, objectives }
    }

    /// The combination rule in use.
    pub fn kind(&self) -> RewardKind {
        self.kind
    }

    /// The performance objectives.
    pub fn objectives(&self) -> &[PerfObjective] {
        &self.objectives
    }

    /// Combines quality and measured performance values into the scalar
    /// reward. `perf_values[i]` corresponds to `objectives[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the value count mismatches the objective count.
    pub fn reward(&self, quality: f64, perf_values: &[f64]) -> f64 {
        assert_eq!(
            perf_values.len(),
            self.objectives.len(),
            "one measured value per objective"
        );
        let mut r = quality;
        for (objective, &value) in self.objectives.iter().zip(perf_values) {
            let deviation = value / objective.target - 1.0;
            let signal = match self.kind {
                RewardKind::Relu => deviation.max(0.0),
                RewardKind::Absolute => deviation.abs(),
            };
            r += objective.beta * signal;
        }
        r
    }

    /// Whether a candidate meets every performance target.
    pub fn feasible(&self, perf_values: &[f64]) -> bool {
        assert_eq!(
            perf_values.len(),
            self.objectives.len(),
            "value count mismatch"
        );
        self.objectives
            .iter()
            .zip(perf_values)
            .all(|(o, &v)| v <= o.target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_objective(kind: RewardKind) -> RewardFn {
        RewardFn::new(
            kind,
            vec![
                PerfObjective::new("step_time", 1.0, -1.0),
                PerfObjective::new("model_size", 100.0, -0.5),
            ],
        )
    }

    #[test]
    fn relu_no_penalty_at_or_under_target() {
        let r = two_objective(RewardKind::Relu);
        assert_eq!(r.reward(80.0, &[1.0, 100.0]), 80.0);
        assert_eq!(
            r.reward(80.0, &[0.2, 10.0]),
            80.0,
            "overachievers unpenalised"
        );
    }

    #[test]
    fn relu_linear_penalty_over_target() {
        let r = two_objective(RewardKind::Relu);
        // step_time 2x target: deviation 1.0 * beta -1.0 = -1.0
        assert!((r.reward(80.0, &[2.0, 100.0]) - 79.0).abs() < 1e-12);
    }

    #[test]
    fn absolute_penalises_overachievers() {
        let r = two_objective(RewardKind::Absolute);
        let over = r.reward(80.0, &[0.5, 100.0]); // 2x faster than target
        assert!(
            over < 80.0,
            "absolute reward penalises being better than target"
        );
        let relu = two_objective(RewardKind::Relu).reward(80.0, &[0.5, 100.0]);
        assert!(relu > over, "ReLU must dominate for overachievers");
    }

    #[test]
    fn rewards_agree_exactly_at_target() {
        let relu = two_objective(RewardKind::Relu).reward(80.0, &[1.0, 100.0]);
        let abs = two_objective(RewardKind::Absolute).reward(80.0, &[1.0, 100.0]);
        assert_eq!(relu, abs);
    }

    #[test]
    fn rewards_agree_above_target() {
        // The two forms only differ below target (§6.1).
        let relu = two_objective(RewardKind::Relu).reward(80.0, &[1.7, 250.0]);
        let abs = two_objective(RewardKind::Absolute).reward(80.0, &[1.7, 250.0]);
        assert!((relu - abs).abs() < 1e-12);
    }

    #[test]
    fn reward_is_scale_invariant_in_targets() {
        // Normalising by T0 means (value, target) scaling together is a no-op.
        let a = RewardFn::new(RewardKind::Relu, vec![PerfObjective::new("t", 1.0, -2.0)]);
        let b = RewardFn::new(RewardKind::Relu, vec![PerfObjective::new("t", 1e-3, -2.0)]);
        assert!((a.reward(50.0, &[1.5]) - b.reward(50.0, &[1.5e-3])).abs() < 1e-9);
    }

    #[test]
    fn feasibility_checks_all_objectives() {
        let r = two_objective(RewardKind::Relu);
        assert!(r.feasible(&[0.9, 99.0]));
        assert!(!r.feasible(&[0.9, 101.0]));
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn positive_beta_rejected() {
        PerfObjective::new("bad", 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "one measured value")]
    fn wrong_value_count_panics() {
        two_objective(RewardKind::Relu).reward(1.0, &[1.0]);
    }

    #[test]
    fn higher_quality_higher_reward() {
        let r = two_objective(RewardKind::Relu);
        assert!(r.reward(90.0, &[1.2, 100.0]) > r.reward(89.0, &[1.2, 100.0]));
    }

    // Golden values at the ReLU boundary. These pin the exact f64 results
    // the determinism suite depends on: a cached (memoized) perf value must
    // reproduce the reward bit-for-bit, so the reward itself must be exact
    // at and around the kink.

    #[test]
    fn golden_exactly_at_target_is_pure_quality() {
        // deviation = target/target - 1 = 0 exactly; ReLU(0) = 0.
        let r = RewardFn::new(RewardKind::Relu, vec![PerfObjective::new("t", 2.0, -4.0)]);
        assert_eq!(r.reward(3.25, &[2.0]), 3.25);
    }

    #[test]
    fn golden_one_ulp_side_of_the_kink() {
        // With target 1.0 the division is exact, so value 1 + 2^-20 gives
        // deviation exactly 2^-20 and the whole reward stays exact binary
        // arithmetic — assert with `==`, not a tolerance.
        let r = RewardFn::new(RewardKind::Relu, vec![PerfObjective::new("t", 1.0, -8.0)]);
        let eps = 2.0_f64.powi(-20);
        assert_eq!(r.reward(5.0, &[1.0 + eps]), 5.0 - 8.0 * eps);
        // Just *under* the kink clamps to zero penalty.
        assert_eq!(r.reward(5.0, &[1.0 - eps]), 5.0);
    }

    #[test]
    fn golden_multi_objective_all_over() {
        // Power-of-two targets keep every deviation exact:
        //   2/1−1 = 1, 3/2−1 = 0.5, 6/4−1 = 0.5
        //   R = 10 + (−1·1) + (−2·0.5) + (−4·0.5) = 6 exactly.
        let r = RewardFn::new(
            RewardKind::Relu,
            vec![
                PerfObjective::new("a", 1.0, -1.0),
                PerfObjective::new("b", 2.0, -2.0),
                PerfObjective::new("c", 4.0, -4.0),
            ],
        );
        assert_eq!(r.reward(10.0, &[2.0, 3.0, 6.0]), 6.0);
    }

    #[test]
    fn golden_mixed_over_and_under() {
        // Only the violated objective contributes: first is at 0.5× target
        // (clamped), second is at 1.5× target (penalty −2·0.5 = −1).
        let r = RewardFn::new(
            RewardKind::Relu,
            vec![
                PerfObjective::new("a", 2.0, -8.0),
                PerfObjective::new("b", 2.0, -2.0),
            ],
        );
        assert_eq!(r.reward(7.0, &[1.0, 3.0]), 6.0);
    }
}
