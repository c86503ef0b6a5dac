//! Bring your own search loop: plug a custom `CandidateStage` into the
//! `SearchDriver` controller engine.
//!
//! Every search runs as a stage handed to `SearchDriver::run`, and the
//! built-in stages (`ParallelStage`, `UnifiedStage`, `TunasStage`,
//! `DistributedStage`) are ordinary implementations of the same trait;
//! this example writes a *new* flavor from scratch — successive-halving
//! evaluation, where each step cheaply screens a wide pool of samples and
//! only the surviving half gets the expensive hardware simulation — and
//! gets the controller invariants (baseline EMA, cross-shard REINFORCE,
//! telemetry, checkpointing, determinism) for free.
//!
//! ```text
//! cargo run --example driver_custom_stage --release
//! ```

use h2o_nas::core::{
    shard_seed, CandidateStage, ControllerConfig, DriverError, EvalResult, PerfObjective, Policy,
    RewardFn, RewardKind, SearchDriver,
};
use h2o_nas::hwsim::{HardwareConfig, Simulator, SystemConfig};
use h2o_nas::models::quality::{DatasetScale, VisionQualityModel};
use h2o_nas::space::{ArchSample, CnnSpace, CnnSpaceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Successive-halving stage: per step, sample `2 × shards` candidates,
/// rank them by an analytic size proxy, and run the full roofline
/// simulation only for the better half. The driver never knows — it just
/// receives `shards` evaluated candidates per step.
struct HalvingStage {
    space: CnnSpace,
    sim: Simulator,
    quality: VisionQualityModel,
    shards: usize,
    seed: u64,
    simulations: usize,
    screened: usize,
}

impl HalvingStage {
    fn new(shards: usize, seed: u64) -> Self {
        Self {
            space: CnnSpace::new(CnnSpaceConfig::default()),
            sim: Simulator::new(HardwareConfig::tpu_v4()),
            quality: VisionQualityModel::new(DatasetScale::Medium),
            shards,
            seed,
            simulations: 0,
            screened: 0,
        }
    }
}

impl CandidateStage for HalvingStage {
    fn steps_counter_name(&self) -> &'static str {
        "example_halving_steps_total"
    }

    fn collect(
        &mut self,
        step: usize,
        policy: &Policy,
    ) -> Result<Vec<(ArchSample, EvalResult)>, String> {
        // One RNG per (seed, step): the whole stage stays deterministic and
        // resumable without storing any run-long RNG state.
        let mut rng = StdRng::seed_from_u64(shard_seed(self.seed, step as u64, u64::MAX));
        let mut pool: Vec<(ArchSample, f64)> = (0..2 * self.shards)
            .map(|_| {
                let sample = policy.sample(&mut rng);
                let proxy = self.space.decode(&sample).build_graph(64).param_count();
                (sample, proxy)
            })
            .collect();
        // Cheap screen: smaller models first; ties broken by sample order
        // via stable sort, keeping the stage deterministic.
        pool.sort_by(|a, b| a.1.total_cmp(&b.1));
        self.screened += pool.len();
        pool.truncate(self.shards);
        Ok(pool
            .into_iter()
            .map(|(sample, _)| {
                self.simulations += 1;
                let arch = self.space.decode(&sample);
                let graph = arch.build_graph(64);
                let report = self
                    .sim
                    .simulate_training(&graph, &SystemConfig::training_pod());
                let quality = self
                    .quality
                    .accuracy_of_cnn(&arch, graph.param_count() / 1e6);
                (
                    sample,
                    EvalResult {
                        quality,
                        perf_values: vec![report.time],
                    },
                )
            })
            .collect())
    }
}

fn main() -> Result<(), DriverError> {
    let space = CnnSpace::new(CnnSpaceConfig::default());
    let reward = RewardFn::new(
        RewardKind::Relu,
        vec![PerfObjective::new("train_step_time", 0.15, -8.0)],
    );
    let config = ControllerConfig {
        steps: 60,
        shards: 8,
        policy_lr: 0.06,
        ..Default::default()
    };

    let mut stage = HalvingStage::new(config.shards, config.seed);
    let outcome = SearchDriver::new(space.space(), &reward, config).run(&mut stage, None, None)?;

    let best = space.decode(&outcome.best);
    let report = stage
        .sim
        .simulate_training(&best.build_graph(64), &SystemConfig::training_pod());
    println!(
        "screened {} candidates, simulated {} ({}% of the naive cost)",
        stage.screened,
        stage.simulations,
        100 * stage.simulations / stage.screened
    );
    println!(
        "best: resolution {}, {:.1} ms/step (budget 150 ms), entropy {:.3} -> {:.3} nats",
        best.resolution,
        report.time * 1e3,
        outcome.history.first().map(|h| h.entropy).unwrap_or(0.0),
        outcome.history.last().map(|h| h.entropy).unwrap_or(0.0),
    );
    Ok(())
}
