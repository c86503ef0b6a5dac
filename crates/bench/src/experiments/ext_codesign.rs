//! Extension: hardware/model co-design — the paper's concluding vision.
//!
//! §9: "H2O-NAS enables late binding of model architectures to hardware
//! architectures. This empowers architects to focus more on optimizing
//! hardware for peak performance, silicon area, and power constraints,
//! while H2O-NAS can later optimize future models to run on the hardware."
//!
//! This bench plays hardware architect: it sweeps hypothetical TPUv4
//! variants (compute-rich, bandwidth-rich, CMEM-rich) and re-runs the same
//! CNN search against each. The *searched architecture changes with the
//! hardware* — compute-rich chips attract more fused (dense-convolution)
//! blocks, bandwidth-starved chips push the search toward classic MBConv —
//! demonstrating the late-binding workflow.

use crate::report::Table;
use h2o_core::{EvalResult, ParallelStage, PerfObjective, RewardFn, RewardKind, SearchConfig};
use h2o_hwsim::{HardwareConfig, Simulator, SystemConfig};
use h2o_models::quality::{DatasetScale, VisionQualityModel};
use h2o_space::cnn::BlockType;
use h2o_space::{ArchSample, CnnSpace, CnnSpaceConfig};

/// Search steps per hardware variant.
const STEPS: usize = 120;

/// A hypothetical future-hardware variant.
fn variant(name: &str, flops_scale: f64, hbm_scale: f64, cmem_scale: f64) -> HardwareConfig {
    let mut hw = HardwareConfig::tpu_v4();
    hw.name = name.to_string();
    hw.peak_flops *= flops_scale;
    hw.hbm_bw *= hbm_scale;
    hw.cmem_capacity *= cmem_scale;
    hw.cmem_bw *= cmem_scale;
    hw
}

/// The hypothetical platform sweep.
pub fn variants() -> Vec<HardwareConfig> {
    vec![
        variant("TPUv4 (baseline)", 1.0, 1.0, 1.0),
        variant("compute-rich (4x FLOPS)", 4.0, 1.0, 1.0),
        variant("bandwidth-starved (1/4 HBM)", 1.0, 0.25, 1.0),
        variant("CMEM-rich (4x on-chip)", 1.0, 1.0, 4.0),
    ]
}

/// Search outcome summary on one platform.
#[derive(Debug, Clone)]
pub struct CodesignResult {
    /// Platform name.
    pub hw: String,
    /// Fraction of blocks choosing Fused-MBConv.
    pub fused_fraction: f64,
    /// Chosen input resolution.
    pub resolution: usize,
    /// Mean chosen expansion ratio.
    pub mean_expansion: f64,
    /// Searched model's step time on that platform, ms.
    pub step_ms: f64,
    /// Quality estimate.
    pub quality: f64,
}

/// Runs the same quality-first search against one hardware variant.
pub fn search_on(hw: &HardwareConfig, steps: usize) -> CodesignResult {
    let space = CnnSpace::new(CnnSpaceConfig::default());
    let quality = VisionQualityModel::new(DatasetScale::Medium);
    // Budget: a fixed wall-clock step target, identical across platforms —
    // faster hardware leaves headroom the search can spend on capacity.
    let budget = 0.08;
    let reward = RewardFn::new(
        RewardKind::Relu,
        vec![PerfObjective::new("step_time", budget, -8.0)],
    );
    let make = |_shard: usize| {
        let space = CnnSpace::new(CnnSpaceConfig::default());
        let sim = Simulator::new(hw.clone());
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
    };
    let cfg = SearchConfig {
        steps,
        shards: 8,
        policy_lr: 0.07,
        baseline_momentum: 0.9,
        seed: 23,
        workers: 0,
    };
    let mut stage = ParallelStage::new(make, &cfg);
    let outcome = super::run_search(space.space(), &reward, cfg, &mut stage);
    let arch = space.decode(&outcome.best);
    let graph = arch.build_graph(64);
    let sim = Simulator::new(hw.clone());
    let step = sim
        .simulate_training(&graph, &SystemConfig::training_pod())
        .time;
    let fused = arch
        .blocks
        .iter()
        .filter(|b| b.block_type == BlockType::FusedMbConv)
        .count() as f64
        / arch.blocks.len() as f64;
    CodesignResult {
        hw: hw.name.clone(),
        fused_fraction: fused,
        resolution: arch.resolution,
        mean_expansion: arch.blocks.iter().map(|b| b.expansion as f64).sum::<f64>()
            / arch.blocks.len() as f64,
        step_ms: step * 1e3,
        quality: quality.accuracy_of_cnn(&arch, graph.param_count() / 1e6),
    }
}

/// Runs the experiment and renders the report.
pub fn run() -> String {
    let mut table = Table::new(
        "Extension (§9 vision): the searched architecture re-binds to future hardware",
        &[
            "hardware variant",
            "fused blocks",
            "resolution",
            "mean expansion",
            "step (ms)",
            "quality",
        ],
    );
    for hw in variants() {
        let r = search_on(&hw, STEPS);
        table.row(&[
            r.hw,
            format!("{:.0}%", r.fused_fraction * 100.0),
            r.resolution.to_string(),
            format!("{:.1}", r.mean_expansion),
            format!("{:.1}", r.step_ms),
            format!("{:.1}%", r.quality),
        ]);
    }
    let mut out = table.render();
    let mut real = Table::new(
        "Same sweep on real next-generation chips (late binding across GPU generations)",
        &[
            "hardware",
            "fused blocks",
            "resolution",
            "mean expansion",
            "step (ms)",
            "quality",
        ],
    );
    for hw in [
        HardwareConfig::gpu_v100(),
        HardwareConfig::gpu_a100(),
        HardwareConfig::gpu_h100(),
    ] {
        let r = search_on(&hw, STEPS);
        real.row(&[
            r.hw,
            format!("{:.0}%", r.fused_fraction * 100.0),
            r.resolution.to_string(),
            format!("{:.1}", r.mean_expansion),
            format!("{:.1}", r.step_ms),
            format!("{:.1}%", r.quality),
        ]);
    }
    out.push_str(&real.render());
    out.push_str(
        "\nReading: the same search, same budget, different chips — the controller spends a\n\
         compute-rich chip's headroom on capacity (resolution/expansion/fused convs) and\n\
         retreats to low-arithmetic blocks when bandwidth is scarce. Architects can commit\n\
         hardware first and let NAS bind the models later (§9).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn searched_architecture_depends_on_hardware() {
        let steps = 60;
        let base = search_on(&variants()[0], steps);
        let rich = search_on(&variants()[1], steps);
        // Compute-rich hardware must buy more capacity at the same wall
        // budget: quality at least matches, step stays within budget-ish.
        assert!(
            rich.quality >= base.quality - 0.3,
            "{} vs {}",
            rich.quality,
            base.quality
        );
        // And the *architectures* differ (late binding is non-trivial).
        let differs = rich.fused_fraction != base.fused_fraction
            || rich.resolution != base.resolution
            || (rich.mean_expansion - base.mean_expansion).abs() > 0.1;
        assert!(differs, "architectures should re-bind to the hardware");
    }

    #[test]
    fn variants_are_distinct_platforms() {
        let v = variants();
        assert_eq!(v.len(), 4);
        assert!(v[1].peak_flops > v[0].peak_flops);
        assert!(v[2].hbm_bw < v[0].hbm_bw);
        assert!(v[3].cmem_capacity > v[0].cmem_capacity);
    }
}
