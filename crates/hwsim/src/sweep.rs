//! Batch-size sweeps and load-aware serving latency.
//!
//! Two practitioner tools on top of the raw simulator:
//!
//! * [`batch_sweep`] — throughput/latency/utilisation curves over batch
//!   size, the standard way to pick a serving batch (§6.2.2's "serving
//!   throughput under P99 target latency" is a point on this curve).
//! * [`ServingLoadModel`] — an M/M/1 queueing layer over the simulated
//!   service time: production serving runs at some utilisation ρ, and the
//!   P99 seen by users includes queueing delay, not just the accelerator's
//!   isolated latency.

use crate::config::HardwareConfig;
use crate::simulator::Simulator;
use h2o_graph::Graph;

/// One point of a batch-size sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchSweepPoint {
    /// Batch size.
    pub batch: usize,
    /// Isolated per-batch latency, seconds.
    pub latency: f64,
    /// Throughput, examples/s.
    pub throughput: f64,
    /// Matrix-unit utilisation in `[0, 1]`.
    pub mxu_utilization: f64,
    /// Average power, watts.
    pub power: f64,
    /// Energy per example, joules.
    pub energy_per_example: f64,
}

/// Sweeps serving batch sizes; `graph_at_batch` builds the serving graph
/// per batch size.
pub fn batch_sweep(
    sim: &Simulator,
    mut graph_at_batch: impl FnMut(usize) -> Graph,
    batches: &[usize],
) -> Vec<BatchSweepPoint> {
    batches
        .iter()
        .map(|&batch| {
            let report = sim.simulate(&graph_at_batch(batch));
            BatchSweepPoint {
                batch,
                latency: report.time,
                throughput: batch as f64 / report.time,
                mxu_utilization: report.mxu_utilization(),
                power: report.avg_power,
                energy_per_example: report.energy / batch.max(1) as f64,
            }
        })
        .collect()
}

/// M/M/1 queueing model over a simulated service time: at utilisation
/// `rho`, the mean sojourn time is `service / (1 − ρ)` and quantiles are
/// exponential (`P99 = −ln(0.01) × mean ≈ 4.6 × mean`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingLoadModel {
    /// Offered load as a fraction of capacity, in `[0, 1)`.
    pub utilization: f64,
}

impl ServingLoadModel {
    /// Creates a load model.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ utilization < 1` (an M/M/1 queue diverges at 1).
    pub fn new(utilization: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&utilization),
            "utilization must be in [0, 1): the queue diverges at saturation"
        );
        Self { utilization }
    }

    /// Mean sojourn (queue + service) time for a given service time.
    pub fn mean_sojourn(&self, service_time: f64) -> f64 {
        service_time / (1.0 - self.utilization)
    }

    /// P99 sojourn time (exponential sojourn distribution of M/M/1).
    pub fn p99_sojourn(&self, service_time: f64) -> f64 {
        -(0.01f64).ln() * self.mean_sojourn(service_time)
    }

    /// Simulated P99 latency of a serving graph under this load.
    pub fn p99_latency(&self, sim: &Simulator, graph: &Graph) -> f64 {
        self.p99_sojourn(sim.simulate(graph).time)
    }

    /// The highest utilisation at which the graph still meets a P99
    /// target — the headroom a capacity planner cares about. Returns 0 if
    /// even an unloaded server misses the target.
    pub fn max_utilization_for_target(sim: &Simulator, graph: &Graph, target_p99: f64) -> f64 {
        let service = sim.simulate(graph).time;
        let unloaded_p99 = -(0.01f64).ln() * service;
        if unloaded_p99 >= target_p99 {
            return 0.0;
        }
        // p99(ρ) = 4.605 · service / (1−ρ)  ⇒  ρ = 1 − 4.605·service/target
        (1.0 - unloaded_p99 / target_p99).clamp(0.0, 1.0)
    }
}

/// Convenience wrapper: sweep + the platform it ran on (for reports).
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Platform name.
    pub hardware: String,
    /// The sweep points.
    pub points: Vec<BatchSweepPoint>,
}

/// Runs a sweep on a platform preset by name.
///
/// # Panics
///
/// Panics if the platform name is unknown.
pub fn sweep_on(
    hw_name: &str,
    graph_at_batch: impl FnMut(usize) -> Graph,
    batches: &[usize],
) -> SweepReport {
    let hw = HardwareConfig::by_name(hw_name)
        // h2o-lint: allow(panic-hygiene) -- documented panic on an unknown preset name: this is a
        // config-time entry point (bench/CLI), never reached from a running search
        .unwrap_or_else(|| panic!("unknown hardware '{hw_name}'"));
    let name = hw.name.clone();
    let sim = Simulator::new(hw);
    SweepReport {
        hardware: name,
        points: batch_sweep(&sim, graph_at_batch, batches),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2o_graph::{DType, OpKind};

    fn graph_at(batch: usize) -> Graph {
        let mut g = Graph::new("serve", DType::Bf16);
        g.add(
            OpKind::MatMul {
                m: batch * 16,
                k: 1024,
                n: 1024,
            },
            &[],
        );
        g
    }

    #[test]
    fn throughput_grows_then_saturates_with_batch() {
        let sim = Simulator::new(HardwareConfig::tpu_v4i());
        let points = batch_sweep(&sim, graph_at, &[1, 4, 16, 64, 256]);
        assert!(points
            .windows(2)
            .all(|w| w[1].throughput >= w[0].throughput * 0.99));
        // Large batches approach a plateau: the last doubling gains little.
        let gain = points[4].throughput / points[3].throughput;
        assert!(gain < 3.0, "gain {gain} should be sub-linear by batch 256");
    }

    #[test]
    fn latency_grows_with_batch() {
        let sim = Simulator::new(HardwareConfig::tpu_v4i());
        let points = batch_sweep(&sim, graph_at, &[1, 64, 512]);
        assert!(points[2].latency > points[0].latency);
    }

    #[test]
    fn energy_per_example_improves_with_batching() {
        let sim = Simulator::new(HardwareConfig::tpu_v4i());
        let points = batch_sweep(&sim, graph_at, &[1, 128]);
        assert!(
            points[1].energy_per_example < points[0].energy_per_example,
            "batching amortises idle energy"
        );
    }

    #[test]
    fn queueing_inflates_latency_with_load() {
        let light = ServingLoadModel::new(0.1);
        let heavy = ServingLoadModel::new(0.9);
        assert!(heavy.mean_sojourn(1e-3) > 5.0 * light.mean_sojourn(1e-3));
        assert!((heavy.p99_sojourn(1e-3) / heavy.mean_sojourn(1e-3) - 4.605).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "diverges")]
    fn saturation_rejected() {
        ServingLoadModel::new(1.0);
    }

    #[test]
    fn max_utilization_headroom_is_consistent() {
        let sim = Simulator::new(HardwareConfig::tpu_v4i());
        let g = graph_at(8);
        let service = sim.simulate(&g).time;
        let target = 20.0 * service;
        let rho = ServingLoadModel::max_utilization_for_target(&sim, &g, target);
        assert!(rho > 0.0 && rho < 1.0, "rho {rho}");
        // At that utilisation the P99 hits the target (within rounding).
        let p99 = ServingLoadModel::new(rho.min(0.999)).p99_sojourn(service);
        assert!((p99 - target).abs() / target < 0.05, "{p99} vs {target}");
    }

    #[test]
    fn impossible_target_gives_zero_headroom() {
        let sim = Simulator::new(HardwareConfig::tpu_v4i());
        let g = graph_at(8);
        assert_eq!(
            ServingLoadModel::max_utilization_for_target(&sim, &g, 1e-12),
            0.0
        );
    }

    #[test]
    fn sweep_on_resolves_presets() {
        let report = sweep_on("v100", graph_at, &[1, 8]);
        assert_eq!(report.hardware, "GPUv100");
        assert_eq!(report.points.len(), 2);
    }
}
