//! Quickstart: hardware-aware NAS over the convolutional search space in
//! under a minute.
//!
//! Searches the paper's CNN space (Table 5) for an architecture that is as
//! accurate as possible while meeting a training-step-time target on a
//! TPUv4 pod — the core H2O-NAS loop with the ReLU multi-objective reward.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use h2o_nas::core::{
    DriverError, EvalResult, ParallelStage, PerfObjective, RewardFn, RewardKind, SearchConfig,
    SearchDriver,
};
use h2o_nas::hwsim::{HardwareConfig, Simulator, SystemConfig};
use h2o_nas::models::quality::{DatasetScale, VisionQualityModel};
use h2o_nas::space::{ArchSample, CnnSpace, CnnSpaceConfig};

fn main() -> Result<(), DriverError> {
    // 1. The search space: 7 searchable blocks, O(10^39) candidates.
    let space = CnnSpace::new(CnnSpaceConfig::default());
    println!(
        "search space: {} decisions, O(10^{:.0}) candidates",
        space.space().num_decisions(),
        space.space().log10_size()
    );

    // 2. Objectives: a training-step-time budget on TPUv4 (ReLU reward —
    //    candidates under budget are not penalised) plus a size guard.
    let sim = Simulator::new(HardwareConfig::tpu_v4());
    let pod = SystemConfig::training_pod();
    let step_budget = 0.15; // seconds per training step
    let reward = RewardFn::new(
        RewardKind::Relu,
        vec![
            PerfObjective::new("train_step_time", step_budget, -8.0),
            PerfObjective::new("model_size_bytes", 400e6, -2.0),
        ],
    );

    // 3. The evaluator: quality from the calibrated vision surrogate,
    //    performance from the hardware simulator (one per shard).
    let quality = VisionQualityModel::new(DatasetScale::Medium);
    let make_evaluator = |_shard: usize| {
        let space = CnnSpace::new(CnnSpaceConfig::default());
        let sim = Simulator::new(HardwareConfig::tpu_v4());
        move |sample: &ArchSample| {
            let arch = space.decode(sample);
            let graph = arch.build_graph(64);
            let report = sim.simulate_training(&graph, &SystemConfig::training_pod());
            EvalResult {
                quality: quality.accuracy_of_cnn(&arch, graph.param_count() / 1e6),
                perf_values: vec![report.time, graph.param_count() * 4.0],
            }
        }
    };

    // 4. Run the massively parallel single-step search: one evaluator per
    //    shard in a `ParallelStage`, driven by the controller loop.
    let config = SearchConfig {
        steps: 150,
        shards: 8,
        policy_lr: 0.06,
        ..Default::default()
    };
    let mut stage = ParallelStage::new(make_evaluator, &config);
    let outcome = SearchDriver::new(space.space(), &reward, config).run(&mut stage, None, None)?;

    // 5. Inspect the winner (the per-decision argmax of the policy).
    let best = space.decode(&outcome.best);
    let graph = best.build_graph(64);
    let report = sim.simulate_training(&graph, &pod);
    println!("\nbest architecture after {} steps:", config.steps);
    println!("  resolution      : {}", best.resolution);
    for (i, block) in best.blocks.iter().enumerate() {
        println!(
            "  block {i}: {:?} k{} e{} d{} w{} se={:.2} {}",
            block.block_type,
            block.kernel,
            block.expansion,
            block.depth,
            block.width,
            block.se_ratio,
            if block.swish { "swish" } else { "relu" },
        );
    }
    println!(
        "\n  estimated accuracy : {:.1}%",
        quality.accuracy_of_cnn(&best, graph.param_count() / 1e6)
    );
    println!("  params             : {:.1} M", graph.param_count() / 1e6);
    println!(
        "  train step time    : {:.1} ms (budget {:.0} ms)",
        report.time * 1e3,
        step_budget * 1e3
    );
    println!("  step within budget : {}", report.time <= step_budget);
    println!(
        "  policy entropy     : {:.3} -> {:.3} nats",
        outcome.history.first().map(|h| h.entropy).unwrap_or(0.0),
        outcome.history.last().map(|h| h.entropy).unwrap_or(0.0)
    );
    Ok(())
}
