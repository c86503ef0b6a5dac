//! Fig. 5 — the single-sided ReLU reward vs the absolute-value reward
//! (TuNAS) on multi-objective DLRM search.
//!
//! Paper setup (§6.1, footnote 3): training step time is the primary
//! objective with targets swept from 0.75× to 1.5× of the baseline DLRM's
//! step time; model size is the secondary objective with a neutral target.
//! Results: the ReLU reward yields a better Pareto front (5a), up to ~13 %
//! better step time per quality bucket (5b), up to ~0.4 % better quality
//! per step-time bucket (5c), and ~1.6 % smaller serving memory.

use crate::report::{pct, Table};
use h2o_core::pareto::{bucketize_by_cost, bucketize_by_quality, pareto_front, ParetoPoint};
use h2o_core::{EvalResult, ParallelStage, PerfObjective, RewardFn, RewardKind, SearchConfig};
use h2o_hwsim::{HardwareConfig, Simulator, SystemConfig};
use h2o_models::quality::DlrmQualityModel;
use h2o_space::{ArchSample, DlrmSpace, DlrmSpaceConfig};

/// DLRM tables in the sweep's production-scale space.
const TABLES: usize = 60;
/// Search steps per reward kind and step-time target.
const STEPS: usize = 80;

/// A candidate evaluated during the sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Quality (surrogate percentage).
    pub quality: f64,
    /// Training step time, seconds.
    pub step_time: f64,
    /// Model size, bytes.
    pub size: f64,
}

/// Search space used by the sweep: the production space cut to its first
/// `tables` tables.
fn sweep_space(tables: usize) -> DlrmSpace {
    let mut config = DlrmSpaceConfig::production();
    config.tables.truncate(tables);
    DlrmSpace::new(config)
}

/// Runs the reward sweep for one reward kind over the first `tables`
/// tables; returns all evaluated points.
pub fn sweep(kind: RewardKind, steps: usize, tables: usize) -> Vec<SweepPoint> {
    let space = sweep_space(tables);
    let baseline_arch = space.decode(&space.baseline());
    let sim = Simulator::new(HardwareConfig::tpu_v4());
    let pod = SystemConfig::training_pod();
    let base_time = sim
        .simulate_training(&baseline_arch.build_graph(64, 128), &pod)
        .time;
    let base_size = baseline_arch.model_size_bytes();
    let quality_model = DlrmQualityModel::new(&baseline_arch, 85.0);

    let mut all = Vec::new();
    for (t_idx, target_ratio) in [0.75f64, 1.0, 1.25, 1.5].into_iter().enumerate() {
        let reward = RewardFn::new(
            kind,
            vec![
                PerfObjective::new("step_time", base_time * target_ratio, -4.0),
                PerfObjective::new("model_size", base_size, -2.0),
            ],
        );
        let cfg = SearchConfig {
            steps,
            shards: 8,
            policy_lr: 0.06,
            baseline_momentum: 0.9,
            seed: 100 + t_idx as u64,
            workers: 0,
        };
        let make_evaluator = |_shard: usize| {
            let space = sweep_space(tables);
            let sim = Simulator::new(HardwareConfig::tpu_v4());
            let quality_model = quality_model.clone();
            move |sample: &ArchSample| {
                let arch = space.decode(sample);
                let step = sim
                    .simulate_training(&arch.build_graph(64, 128), &SystemConfig::training_pod())
                    .time;
                EvalResult {
                    quality: quality_model.quality(&arch),
                    perf_values: vec![step, arch.model_size_bytes()],
                }
            }
        };
        let mut stage = ParallelStage::new(make_evaluator, &cfg);
        let outcome = super::run_search(space.space(), &reward, cfg, &mut stage);
        // Keep the later (converged) half of the search's candidates.
        let half = outcome.evaluated.len() / 2;
        for c in &outcome.evaluated[half..] {
            all.push(SweepPoint {
                quality: c.result.quality,
                step_time: c.result.perf_values[0],
                size: c.result.perf_values[1],
            });
        }
    }
    all
}

fn to_pareto(points: &[SweepPoint]) -> Vec<ParetoPoint> {
    points
        .iter()
        .enumerate()
        .map(|(i, p)| ParetoPoint {
            quality: p.quality,
            cost: p.step_time,
            index: i,
        })
        .collect()
}

/// Runs the experiment and renders the report.
pub fn run() -> String {
    let relu = sweep(RewardKind::Relu, STEPS, TABLES);
    let abs = sweep(RewardKind::Absolute, STEPS, TABLES);
    let mut out = String::new();

    // --- 5a: Pareto fronts ---
    let front_relu = pareto_front(&to_pareto(&relu));
    let front_abs = pareto_front(&to_pareto(&abs));
    let mut t5a = Table::new(
        "Fig. 5a: Pareto fronts (quality vs training step time)",
        &[
            "reward",
            "front size",
            "best quality",
            "fastest front point (ms)",
        ],
    );
    for (name, front) in [("ReLU", &front_relu), ("Absolute", &front_abs)] {
        let best_q = front
            .iter()
            .map(|p| p.quality)
            .fold(f64::NEG_INFINITY, f64::max);
        let fastest = front.iter().map(|p| p.cost).fold(f64::INFINITY, f64::min);
        t5a.row(&[
            name.into(),
            front.len().to_string(),
            format!("{best_q:.2}%"),
            format!("{:.2}", fastest * 1e3),
        ]);
    }
    out.push_str(&t5a.render());

    // --- 5b: step time per quality bucket ---
    let buckets_relu = bucketize_by_quality(&to_pareto(&relu), 6);
    let buckets_abs = bucketize_by_quality(&to_pareto(&abs), 6);
    let mut t5b = Table::new(
        "Fig. 5b: mean step time per quality bucket (lower is better; paper: ReLU up to 13% better)",
        &["quality bucket", "ReLU (ms)", "Absolute (ms)", "ReLU advantage"],
    );
    let mut best_time_adv = 0.0f64;
    for (q, t_relu, _) in &buckets_relu {
        // Find the matching absolute bucket by nearest quality midpoint.
        if let Some((_, t_abs, _)) = buckets_abs
            .iter()
            .min_by(|a, b| (a.0 - q).abs().total_cmp(&(b.0 - q).abs()))
        {
            let adv = 1.0 - t_relu / t_abs;
            best_time_adv = best_time_adv.max(adv);
            t5b.row(&[
                format!("{q:.2}%"),
                format!("{:.2}", t_relu * 1e3),
                format!("{:.2}", t_abs * 1e3),
                pct(adv),
            ]);
        }
    }
    out.push_str(&t5b.render());

    // --- 5c: quality per step-time bucket ---
    let qb_relu = bucketize_by_cost(&to_pareto(&relu), 6);
    let qb_abs = bucketize_by_cost(&to_pareto(&abs), 6);
    let mut t5c = Table::new(
        "Fig. 5c: mean quality per step-time bucket (higher is better; paper: ReLU up to +0.4%)",
        &[
            "step-time bucket (ms)",
            "ReLU quality",
            "Absolute quality",
            "ReLU advantage",
        ],
    );
    let mut best_q_adv = f64::NEG_INFINITY;
    for (t, q_relu, _) in &qb_relu {
        if let Some((_, q_abs, _)) = qb_abs
            .iter()
            .min_by(|a, b| (a.0 - t).abs().total_cmp(&(b.0 - t).abs()))
        {
            let adv = q_relu - q_abs;
            best_q_adv = best_q_adv.max(adv);
            t5c.row(&[
                format!("{:.2}", t * 1e3),
                format!("{q_relu:.2}%"),
                format!("{q_abs:.2}%"),
                format!("{adv:+.2}pp"),
            ]);
        }
    }
    out.push_str(&t5c.render());

    // --- serving memory comparison (paper: ReLU 1.6% smaller) ---
    let mean_size = |pts: &[SweepPoint]| pts.iter().map(|p| p.size).sum::<f64>() / pts.len() as f64;
    let size_adv = 1.0 - mean_size(&relu) / mean_size(&abs);
    out.push_str(&format!(
        "\nSummary: max ReLU step-time advantage {} (paper up to 13%); max quality advantage\n\
         {best_q_adv:+.2}pp (paper up to +0.4%); mean model size advantage {} (paper 1.6%).\n",
        pct(best_time_adv),
        pct(size_adv),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::geomean;

    #[test]
    fn relu_front_dominates_absolute_front() {
        // Small-budget smoke version of Fig. 5a: compare dominated areas.
        let relu = sweep(RewardKind::Relu, 30, 12);
        let abs = sweep(RewardKind::Absolute, 30, 12);
        let fr = pareto_front(&to_pareto(&relu));
        let fa = pareto_front(&to_pareto(&abs));
        let ref_cost = relu
            .iter()
            .chain(&abs)
            .map(|p| p.step_time)
            .fold(f64::NEG_INFINITY, f64::max);
        let floor = relu
            .iter()
            .chain(&abs)
            .map(|p| p.quality)
            .fold(f64::INFINITY, f64::min);
        let area_relu = h2o_core::pareto::dominated_area(&fr, ref_cost, floor);
        let area_abs = h2o_core::pareto::dominated_area(&fa, ref_cost, floor);
        assert!(
            area_relu > 0.9 * area_abs,
            "ReLU front should not be dominated: {area_relu} vs {area_abs}"
        );
        let _ = geomean(&[1.0]);
    }
}
