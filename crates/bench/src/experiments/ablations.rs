//! Ablation benches for the design choices DESIGN.md calls out (beyond
//! Fig. 5's reward ablation, which has its own experiment):
//!
//! * **Unified single-step vs TuNAS alternating two-step** (Fig. 2): at an
//!   equal *total data budget*, the unified algorithm gets twice the policy
//!   updates because it does not burn a separate validation stream.
//! * **Weight sharing vs per-candidate training**: under an equal batch
//!   budget, a shared super-network gives every candidate far more
//!   effective training than isolated per-candidate training — the premise
//!   of one-shot NAS (§5.1.2).

use crate::report::Table;
use h2o_core::{OneShotConfig, PerfObjective, RewardFn, RewardKind, TunasStage, UnifiedStage};
use h2o_data::{CtrTraffic, CtrTrafficConfig, InMemoryPipeline, TrafficSource};
use h2o_space::{ArchSample, DlrmSpaceConfig, DlrmSupernet};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Step budget of the single-step ablation.
const STEPS: usize = 120;
/// Training-batch budget of the weight-sharing ablation.
const BUDGET: usize = 160;

fn reward_and_perf(supernet: &DlrmSupernet) -> (RewardFn, impl Fn(&ArchSample) -> Vec<f64> + Sync) {
    let space = supernet.space().clone();
    let base_size = space.decode(&space.baseline()).model_size_bytes();
    let reward = RewardFn::new(
        RewardKind::Relu,
        vec![PerfObjective::new("size", base_size, -2.0)],
    );
    (reward, move |sample: &ArchSample| {
        vec![space.decode(sample).model_size_bytes()]
    })
}

/// Evaluates an architecture's AUC after applying it to a trained supernet,
/// averaged over fresh evaluation batches.
fn eval_auc(supernet: &mut DlrmSupernet, arch: &ArchSample, seed: u64) -> f64 {
    let mut stream = CtrTraffic::new(CtrTrafficConfig::tiny(), seed);
    supernet.apply_sample(arch);
    let mut total = 0.0;
    const BATCHES: usize = 8;
    for _ in 0..BATCHES {
        let batch = stream.next_batch(256);
        let (_, auc) = supernet.evaluate(&batch);
        total += auc;
    }
    total / BATCHES as f64
}

/// Unified vs TuNAS at equal data budgets. Returns
/// `(unified_auc, tunas_auc, unified_examples, tunas_examples)`.
pub fn single_step_ablation(steps: usize) -> (f64, f64, u64, u64) {
    let cfg = OneShotConfig {
        steps,
        shards: 4,
        batch_size: 64,
        seed: 1,
        ..Default::default()
    };

    // Unified: one stream, every batch used for both α and W.
    let mut rng = StdRng::seed_from_u64(21);
    let mut supernet_u = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut rng);
    let pipeline = InMemoryPipeline::new(CtrTraffic::new(CtrTrafficConfig::tiny(), 50));
    let (reward, perf) = reward_and_perf(&supernet_u);
    // Both supernets below cover this one tiny DLRM space.
    let space = supernet_u.space().space().clone();
    let outcome_u = super::run_search(
        &space,
        &reward,
        cfg.controller(),
        &mut UnifiedStage::new(&mut supernet_u, &pipeline, perf, &cfg),
    );
    let unified_examples = pipeline.stats().examples;

    // TuNAS: two streams; halve the steps so the total examples consumed
    // match the unified run.
    let mut rng = StdRng::seed_from_u64(21);
    let mut supernet_t = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut rng);
    let mut train = CtrTraffic::new(CtrTrafficConfig::tiny(), 51);
    let mut valid = CtrTraffic::new(CtrTrafficConfig::tiny(), 52);
    let cfg_t = OneShotConfig {
        steps: steps / 2,
        ..cfg
    };
    let (reward, perf) = reward_and_perf(&supernet_t);
    let outcome_t = super::run_search(
        &space,
        &reward,
        cfg_t.controller(),
        &mut TunasStage::new(&mut supernet_t, &mut train, &mut valid, perf, &cfg_t),
    );
    let tunas_examples = train.examples_produced() + valid.examples_produced();

    let auc_u = eval_auc(&mut supernet_u, &outcome_u.best, 99);
    let auc_t = eval_auc(&mut supernet_t, &outcome_t.best, 99);
    (auc_u, auc_t, unified_examples, tunas_examples)
}

/// Weight sharing vs isolated training at an equal batch budget. Returns
/// `(shared_mean_auc, isolated_mean_auc)` over the same candidate set.
pub fn weight_sharing_ablation(budget_batches: usize) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(7);
    let space = h2o_space::DlrmSpace::new(DlrmSpaceConfig::tiny());
    let candidates: Vec<ArchSample> = (0..4)
        .map(|_| space.space().sample_uniform(&mut rng))
        .collect();

    // Shared: one supernet, the whole budget, candidates interleaved.
    let mut shared = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut rng);
    let mut stream = CtrTraffic::new(CtrTrafficConfig::tiny(), 60);
    for i in 0..budget_batches {
        shared.apply_sample(&candidates[i % candidates.len()]);
        let batch = stream.next_batch(64);
        shared.train_step(&batch);
    }
    let shared_auc: f64 = candidates
        .iter()
        .map(|c| eval_auc(&mut shared, c, 98))
        .sum::<f64>()
        / candidates.len() as f64;

    // Isolated: a fresh network per candidate, budget split evenly.
    let per_candidate = budget_batches / candidates.len();
    let mut isolated_auc = 0.0;
    for candidate in &candidates {
        let mut net = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut rng);
        let mut stream = CtrTraffic::new(CtrTrafficConfig::tiny(), 61);
        net.apply_sample(candidate);
        for _ in 0..per_candidate {
            let batch = stream.next_batch(64);
            net.train_step(&batch);
        }
        isolated_auc += eval_auc(&mut net, candidate, 98);
    }
    (shared_auc, isolated_auc / candidates.len() as f64)
}

/// Runs both ablations and renders the report.
pub fn run() -> String {
    let (auc_u, auc_t, ex_u, ex_t) = single_step_ablation(STEPS);
    let mut t1 = Table::new(
        "Ablation: unified single-step vs TuNAS alternating (equal data budget)",
        &[
            "algorithm",
            "final-arch AUC",
            "examples consumed",
            "streams needed",
        ],
    );
    t1.row(&[
        "unified (H2O-NAS)".into(),
        format!("{auc_u:.4}"),
        ex_u.to_string(),
        "1".into(),
    ]);
    t1.row(&[
        "alternating (TuNAS)".into(),
        format!("{auc_t:.4}"),
        ex_t.to_string(),
        "2".into(),
    ]);
    let mut out = t1.render();

    let (shared, isolated) = weight_sharing_ablation(BUDGET);
    let mut t2 = Table::new(
        "Ablation: weight sharing vs isolated candidate training (equal batch budget)",
        &["scheme", "mean candidate AUC"],
    );
    t2.row(&["shared super-network".into(), format!("{shared:.4}")]);
    t2.row(&["isolated per-candidate".into(), format!("{isolated:.4}")]);
    out.push_str(&t2.render());
    out.push_str(
        "\nExpected shape: unified ≥ alternating at equal data (no validation stream tax);\n\
         shared ≫ isolated (every batch trains weights some candidate reuses).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unified_matches_or_beats_tunas_at_equal_data() {
        let (auc_u, auc_t, ex_u, ex_t) = single_step_ablation(60);
        // Budgets must actually match (within one step's worth).
        let budget_gap = (ex_u as f64 - ex_t as f64).abs() / ex_u as f64;
        assert!(budget_gap < 0.05, "{ex_u} vs {ex_t}");
        assert!(auc_u > auc_t - 0.03, "unified {auc_u} vs tunas {auc_t}");
    }

    #[test]
    fn weight_sharing_beats_isolated_training() {
        let (shared, isolated) = weight_sharing_ablation(80);
        assert!(
            shared > isolated - 0.01,
            "shared {shared} vs isolated {isolated}"
        );
    }
}
