//! Fig. 10 — zero-touch H2O-NAS over the production fleet.
//!
//! Paper: five production CV models improve 1.29× in training performance
//! and +2.83 % in quality on average; three production DLRMs improve 1.22×
//! and +0.12 %. Quality is the first priority: some models (CV5, DLRM3)
//! accept a performance regression for quality.

use crate::report::{geomean, ratio, Table};
use h2o_core::{EvalResult, ParallelStage, PerfObjective, RewardFn, RewardKind, SearchConfig};
use h2o_hwsim::{HardwareConfig, Simulator, SystemConfig};
use h2o_models::production::{fleet, ProductionDomain, ProductionModel};
use h2o_models::quality::{DatasetScale, DlrmQualityModel, VisionQualityModel};
use h2o_space::{ArchSample, CnnSpace, DlrmSpace};

/// Search steps per fleet model.
const STEPS: usize = 120;

/// The per-decision baseline sample of the CNN space: MBConv, 3×3,
/// baseline stride, expansion 6, swish, SE 0.25, skip, depth delta 0,
/// width +1 step, no reshape; resolution 224.
pub fn cnn_baseline_sample(space: &CnnSpace) -> ArchSample {
    let blocks = space.config().stages.len();
    let mut sample = Vec::with_capacity(blocks * 10 + 1);
    for _ in 0..blocks {
        sample.extend_from_slice(&[0, 0, 0, 3, 1, 3, 1, 3, 5, 0]);
    }
    sample.push(0);
    sample
}

/// Outcome for one fleet model.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Model name (CV1..DLRM3).
    pub name: String,
    /// Step-time speedup of the searched model over the baseline.
    pub perf_gain: f64,
    /// Quality delta in percentage points.
    pub quality_gain: f64,
}

/// Searches one fleet model and reports its gains.
pub fn optimize(model: &ProductionModel, steps: usize) -> FleetResult {
    let sim = Simulator::new(HardwareConfig::tpu_v4());
    let pod = SystemConfig::training_pod();
    match &model.domain {
        ProductionDomain::Vision(cfg) => {
            let space = CnnSpace::new(cfg.clone());
            let baseline_sample = cnn_baseline_sample(&space);
            let base_arch = space.decode(&baseline_sample);
            let base_graph = base_arch.build_graph(64);
            let base_time = sim.simulate_training(&base_graph, &pod).time;
            let base_size = base_graph.param_count() * 4.0;
            let quality_model = VisionQualityModel::new(DatasetScale::Medium);
            let base_q = quality_model.accuracy_of_cnn(&base_arch, base_graph.param_count() / 1e6);
            let reward = RewardFn::new(
                RewardKind::Relu,
                vec![
                    PerfObjective::new("step_time", base_time * model.perf_target_ratio, -6.0),
                    PerfObjective::new("model_size", base_size * 1.2, -2.0),
                ],
            );
            let qw = model.quality_weight;
            let make = |_shard: usize| {
                let space = CnnSpace::new(cfg.clone());
                let sim = Simulator::new(HardwareConfig::tpu_v4());
                move |sample: &ArchSample| {
                    let arch = space.decode(sample);
                    let graph = arch.build_graph(64);
                    let report = sim.simulate_training(&graph, &SystemConfig::training_pod());
                    let q = quality_model.accuracy_of_cnn(&arch, graph.param_count() / 1e6);
                    EvalResult {
                        quality: qw * q,
                        perf_values: vec![report.time, graph.param_count() * 4.0],
                    }
                }
            };
            let cfg_search = SearchConfig {
                steps,
                shards: 8,
                policy_lr: 0.06,
                baseline_momentum: 0.9,
                seed: 31,
                workers: 0,
            };
            let mut stage = ParallelStage::new(make, &cfg_search);
            let outcome = super::run_search(space.space(), &reward, cfg_search, &mut stage);
            let final_arch = space.decode(&outcome.best);
            let final_graph = final_arch.build_graph(64);
            let final_time = sim.simulate_training(&final_graph, &pod).time;
            let final_q =
                quality_model.accuracy_of_cnn(&final_arch, final_graph.param_count() / 1e6);
            FleetResult {
                name: model.name.clone(),
                perf_gain: base_time / final_time,
                quality_gain: final_q - base_q,
            }
        }
        ProductionDomain::Dlrm(cfg) => {
            let space = DlrmSpace::new(cfg.clone());
            let base_arch = space.decode(&space.baseline());
            let base_time = sim
                .simulate_training(&base_arch.build_graph(64, 128), &pod)
                .time;
            let base_size = base_arch.model_size_bytes();
            let quality_model = DlrmQualityModel::new(&base_arch, 85.0);
            let reward = RewardFn::new(
                RewardKind::Relu,
                vec![
                    PerfObjective::new("step_time", base_time * model.perf_target_ratio, -6.0),
                    PerfObjective::new("model_size", base_size * 1.1, -2.0),
                ],
            );
            let qw = model.quality_weight;
            let make = |_shard: usize| {
                let space = DlrmSpace::new(cfg.clone());
                let sim = Simulator::new(HardwareConfig::tpu_v4());
                let quality_model = quality_model.clone();
                move |sample: &ArchSample| {
                    let arch = space.decode(sample);
                    let report = sim.simulate_training(
                        &arch.build_graph(64, 128),
                        &SystemConfig::training_pod(),
                    );
                    EvalResult {
                        quality: qw * quality_model.quality(&arch),
                        perf_values: vec![report.time, arch.model_size_bytes()],
                    }
                }
            };
            let cfg_search = SearchConfig {
                steps,
                shards: 8,
                policy_lr: 0.06,
                baseline_momentum: 0.9,
                seed: 32,
                workers: 0,
            };
            let mut stage = ParallelStage::new(make, &cfg_search);
            let outcome = super::run_search(space.space(), &reward, cfg_search, &mut stage);
            let final_arch = space.decode(&outcome.best);
            let final_time = sim
                .simulate_training(&final_arch.build_graph(64, 128), &pod)
                .time;
            FleetResult {
                name: model.name.clone(),
                perf_gain: base_time / final_time,
                quality_gain: quality_model.quality(&final_arch) - quality_model.base_quality,
            }
        }
    }
}

/// Runs the experiment and renders the report.
pub fn run() -> String {
    let mut table = Table::new(
        "Fig. 10: production fleet gains (quality first; perf target per model)",
        &["model", "perf gain", "quality gain (pp)"],
    );
    let mut cv_perf = Vec::new();
    let mut cv_q = Vec::new();
    let mut dlrm_perf = Vec::new();
    let mut dlrm_q = Vec::new();
    for model in fleet() {
        let result = optimize(&model, STEPS);
        table.row(&[
            result.name.clone(),
            ratio(result.perf_gain),
            format!("{:+.2}", result.quality_gain),
        ]);
        if result.name.starts_with("CV") {
            cv_perf.push(result.perf_gain);
            cv_q.push(result.quality_gain);
        } else {
            dlrm_perf.push(result.perf_gain);
            dlrm_q.push(result.quality_gain);
        }
    }
    let mut out = table.render();
    out.push_str(&format!(
        "\nCV mean: {} perf, {:+.2}pp quality (paper: 1.29x, +2.83pp)\n\
         DLRM mean: {} perf, {:+.2}pp quality (paper: 1.22x, +0.12pp)\n\
         Quality-first models (CV5, DLRM3) may trade performance for quality, as in the paper.\n",
        ratio(geomean(&cv_perf)),
        cv_q.iter().sum::<f64>() / cv_q.len() as f64,
        ratio(geomean(&dlrm_perf)),
        dlrm_q.iter().sum::<f64>() / dlrm_q.len() as f64,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cv1_search_improves_performance_without_losing_quality() {
        let model = fleet().into_iter().find(|m| m.name == "CV1").unwrap();
        let result = optimize(&model, 60);
        assert!(result.perf_gain > 1.0, "perf gain {}", result.perf_gain);
        assert!(
            result.quality_gain > -1.0,
            "quality {}",
            result.quality_gain
        );
    }

    #[test]
    fn dlrm1_search_improves_performance() {
        let model = fleet().into_iter().find(|m| m.name == "DLRM1").unwrap();
        let result = optimize(&model, 60);
        assert!(result.perf_gain > 1.0, "perf gain {}", result.perf_gain);
    }

    #[test]
    fn cnn_baseline_sample_is_valid() {
        let model = fleet().into_iter().find(|m| m.name == "CV1").unwrap();
        if let ProductionDomain::Vision(cfg) = &model.domain {
            let space = CnnSpace::new(cfg.clone());
            assert!(space.space().validate(&cnn_baseline_sample(&space)).is_ok());
        }
    }
}
