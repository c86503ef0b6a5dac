//! Multi-trial search baselines: random search and regularized evolution.
//!
//! §2.1 of the paper taxonomises search algorithms into RL, gradient and
//! evolution families and argues evolution **cannot** drive one-shot NAS
//! (its rewards must be comparable across steps, which weight-sharing
//! rewards are not). These baselines therefore run in the *multi-trial*
//! regime — each candidate is evaluated independently — and exist to
//! quantify the RL controller's sample efficiency (the
//! `ext_search_baselines` experiment of `repro_all`).

use crate::driver::NON_FINITE_REWARD_PENALTY;
use crate::reward::RewardFn;
use crate::search::{ArchEvaluator, EvalResult, EvaluatedCandidate};
use h2o_space::{ArchSample, SearchSpace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Result of a multi-trial baseline run.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineOutcome {
    /// The highest-reward candidate found.
    pub best: EvaluatedCandidate,
    /// Reward of the best candidate after each evaluation (monotone
    /// non-decreasing) — the sample-efficiency curve.
    pub best_so_far: Vec<f64>,
    /// Every evaluated candidate.
    pub evaluated: Vec<EvaluatedCandidate>,
}

/// The same non-finite guard the [`crate::driver::SearchDriver`] applies:
/// a NaN/±∞ reward (diverged evaluator, pathological objective) becomes a
/// hard penalty instead of poisoning `best_so_far` and the tournament
/// comparisons. Finite rewards pass through bit-unchanged.
fn clamp_reward(reward: f64) -> f64 {
    if reward.is_finite() {
        reward
    } else {
        NON_FINITE_REWARD_PENALTY
    }
}

fn record(
    evaluated: &mut Vec<EvaluatedCandidate>,
    best_so_far: &mut Vec<f64>,
    sample: ArchSample,
    result: EvalResult,
    reward: f64,
) {
    let prev = best_so_far.last().copied().unwrap_or(f64::NEG_INFINITY);
    best_so_far.push(prev.max(reward));
    evaluated.push(EvaluatedCandidate {
        sample,
        result,
        reward,
    });
}

fn finish(evaluated: Vec<EvaluatedCandidate>, best_so_far: Vec<f64>) -> BaselineOutcome {
    let best = evaluated
        .iter()
        .max_by(|a, b| a.reward.total_cmp(&b.reward))
        // h2o-lint: allow(panic-hygiene) -- non-empty: both entry points assert a positive budget before recording
        .expect("at least one evaluation")
        .clone();
    BaselineOutcome {
        best,
        best_so_far,
        evaluated,
    }
}

/// Uniform random search: `budget` independent uniform samples.
///
/// # Panics
///
/// Panics if `budget == 0`.
pub fn random_search<E: ArchEvaluator>(
    space: &SearchSpace,
    reward_fn: &RewardFn,
    evaluator: &mut E,
    budget: usize,
    seed: u64,
) -> BaselineOutcome {
    assert!(budget > 0, "need a positive budget");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut evaluated = Vec::with_capacity(budget);
    let mut best_so_far = Vec::with_capacity(budget);
    for _ in 0..budget {
        let sample = space.sample_uniform(&mut rng);
        let result = evaluator.evaluate(&sample);
        let reward = clamp_reward(reward_fn.reward(result.quality, &result.perf_values));
        record(&mut evaluated, &mut best_so_far, sample, result, reward);
    }
    finish(evaluated, best_so_far)
}

/// Configuration of regularized evolution (Real et al., AAAI'19 — the
/// paper's reference evolution algorithm).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvolutionConfig {
    /// Population size (a FIFO queue; the oldest individual dies).
    pub population: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Per-decision mutation probability.
    pub mutation_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EvolutionConfig {
    fn default() -> Self {
        Self {
            population: 32,
            tournament: 8,
            mutation_rate: 0.05,
            seed: 0,
        }
    }
}

/// Regularized (aging) evolution under a fixed evaluation budget.
///
/// # Panics
///
/// Panics if the budget is smaller than the population, or the population
/// is empty.
pub fn evolution_search<E: ArchEvaluator>(
    space: &SearchSpace,
    reward_fn: &RewardFn,
    evaluator: &mut E,
    budget: usize,
    config: &EvolutionConfig,
) -> BaselineOutcome {
    assert!(config.population > 0, "population must be positive");
    assert!(
        budget >= config.population,
        "budget must cover the initial population"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut evaluated = Vec::with_capacity(budget);
    let mut best_so_far = Vec::with_capacity(budget);
    let mut population: VecDeque<(ArchSample, f64)> = VecDeque::with_capacity(config.population);

    // Seed the population with uniform samples.
    for _ in 0..config.population {
        let sample = space.sample_uniform(&mut rng);
        let result = evaluator.evaluate(&sample);
        let reward = clamp_reward(reward_fn.reward(result.quality, &result.perf_values));
        population.push_back((sample.clone(), reward));
        record(&mut evaluated, &mut best_so_far, sample, result, reward);
    }
    // Tournament + mutate + age out.
    while evaluated.len() < budget {
        let parent = (0..config.tournament.max(1))
            .map(|_| &population[rng.gen_range(0..population.len())])
            .max_by(|a, b| a.1.total_cmp(&b.1))
            // h2o-lint: allow(panic-hygiene) -- non-empty: tournament draws at least one contestant
            .expect("population non-empty")
            .0
            .clone();
        let mut child = parent;
        for (d, decision) in space.decisions().iter().enumerate() {
            if rng.gen::<f64>() < config.mutation_rate {
                child[d] = rng.gen_range(0..decision.choices);
            }
        }
        let result = evaluator.evaluate(&child);
        let reward = clamp_reward(reward_fn.reward(result.quality, &result.perf_values));
        population.push_back((child.clone(), reward));
        population.pop_front(); // aging: the oldest dies, fit or not
        record(&mut evaluated, &mut best_so_far, child, result, reward);
    }
    finish(evaluated, best_so_far)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reward::{PerfObjective, RewardKind};
    use h2o_space::Decision;

    fn space() -> SearchSpace {
        let mut s = SearchSpace::new("t");
        for i in 0..6 {
            s.push(Decision::new(format!("d{i}"), 8));
        }
        s
    }

    /// Quality = sum of choices; cost = choice 0 (target 4).
    fn evaluator() -> impl ArchEvaluator {
        |sample: &ArchSample| EvalResult {
            quality: sample.iter().sum::<usize>() as f64,
            perf_values: vec![sample[0] as f64],
        }
    }

    fn reward() -> RewardFn {
        RewardFn::new(RewardKind::Relu, vec![PerfObjective::new("c", 4.0, -10.0)])
    }

    #[test]
    fn random_search_best_so_far_is_monotone() {
        let mut eval = evaluator();
        let outcome = random_search(&space(), &reward(), &mut eval, 100, 1);
        assert_eq!(outcome.best_so_far.len(), 100);
        assert!(outcome.best_so_far.windows(2).all(|w| w[1] >= w[0]));
        assert_eq!(
            outcome.best.reward,
            *outcome.best_so_far.last().unwrap(),
            "best matches the curve's end"
        );
    }

    #[test]
    fn evolution_beats_random_on_structured_problem() {
        let budget = 400;
        let mut e1 = evaluator();
        let random = random_search(&space(), &reward(), &mut e1, budget, 3);
        let mut e2 = evaluator();
        let evo = evolution_search(
            &space(),
            &reward(),
            &mut e2,
            budget,
            &EvolutionConfig {
                seed: 3,
                ..Default::default()
            },
        );
        assert!(
            evo.best.reward >= random.best.reward,
            "evolution {} vs random {}",
            evo.best.reward,
            random.best.reward
        );
    }

    #[test]
    fn evolution_respects_budget_exactly() {
        let mut eval = evaluator();
        let outcome = evolution_search(
            &space(),
            &reward(),
            &mut eval,
            97,
            &EvolutionConfig {
                population: 16,
                ..Default::default()
            },
        );
        assert_eq!(outcome.evaluated.len(), 97);
    }

    #[test]
    fn evolution_finds_near_optimum() {
        // Optimum: choice 0 = 4 (cost target), rest = 7. Reward = 4+35 = 39.
        let mut eval = evaluator();
        let outcome = evolution_search(
            &space(),
            &reward(),
            &mut eval,
            600,
            &EvolutionConfig {
                seed: 9,
                ..Default::default()
            },
        );
        assert!(
            outcome.best.reward >= 36.0,
            "reward {}",
            outcome.best.reward
        );
    }

    #[test]
    #[should_panic(expected = "budget must cover")]
    fn evolution_rejects_tiny_budget() {
        let mut eval = evaluator();
        evolution_search(
            &space(),
            &reward(),
            &mut eval,
            4,
            &EvolutionConfig::default(),
        );
    }

    #[test]
    fn nan_rewards_are_clamped_on_both_baseline_paths() {
        // Regression: same NaN-panic class PR 4 fixed in `best_evaluated`
        // — a NaN quality used to reach partial_cmp().expect() in the
        // tournament and in finish(), aborting the whole baseline run.
        let nan_evaluator = |sample: &ArchSample| EvalResult {
            quality: if sample[0].is_multiple_of(2) {
                f64::NAN
            } else {
                sample.iter().sum::<usize>() as f64
            },
            perf_values: vec![sample[0] as f64],
        };
        let mut e1 = nan_evaluator;
        let random = random_search(&space(), &reward(), &mut e1, 80, 5);
        let mut e2 = nan_evaluator;
        let evo = evolution_search(
            &space(),
            &reward(),
            &mut e2,
            80,
            &EvolutionConfig {
                population: 16,
                seed: 5,
                ..Default::default()
            },
        );
        for outcome in [&random, &evo] {
            assert!(
                outcome.evaluated.iter().all(|c| c.reward.is_finite()),
                "every recorded reward is clamped finite"
            );
            assert!(
                outcome.best_so_far.iter().all(|r| r.is_finite()),
                "the sample-efficiency curve stays finite"
            );
            assert!(outcome.best.reward.is_finite());
        }
    }

    #[test]
    fn random_search_deterministic_per_seed() {
        let mut e1 = evaluator();
        let mut e2 = evaluator();
        let a = random_search(&space(), &reward(), &mut e1, 50, 7);
        let b = random_search(&space(), &reward(), &mut e2, 50, 7);
        assert_eq!(a.best.sample, b.best.sample);
    }
}
