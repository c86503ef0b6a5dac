//! Whole-graph simulation: critical-path execution time, hardware counters,
//! power and energy.
//!
//! Mirrors §6.2.3 of the paper: the simulator "walks through a
//! TensorFlow/HLO graph, simulates run-time of each operator, and finally
//! sums the total run-time on the critical path as the execution time".
//! On top of the per-op rooflines it adds the counters needed for the
//! Fig. 7 hardware analysis and the power/energy model behind Fig. 9.

use crate::config::{HardwareConfig, SystemConfig};
use crate::roofline::{roofline_point, time_op, RooflinePoint};
use h2o_graph::{Graph, OpCost, OpKind};
use std::collections::BTreeMap;

/// Aggregated result of simulating one graph execution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimReport {
    /// Critical-path execution time in seconds.
    pub time: f64,
    /// Total matrix-unit FLOPs executed.
    pub flops: f64,
    /// Achieved compute rate FLOP/s (`flops / time`).
    pub achieved_flops_rate: f64,
    /// Bytes moved through HBM.
    pub hbm_bytes: f64,
    /// Bytes moved through on-chip CMEM.
    pub cmem_bytes: f64,
    /// Bytes moved over the interconnect.
    pub ici_bytes: f64,
    /// Average HBM bandwidth consumed, bytes/s.
    pub hbm_bw_used: f64,
    /// Average CMEM bandwidth consumed, bytes/s.
    pub cmem_bw_used: f64,
    /// Total dynamic + idle energy in joules.
    pub energy: f64,
    /// Average power draw in watts (`energy / time`).
    pub avg_power: f64,
    /// Trainable parameters of the simulated graph.
    pub params: f64,
    /// Sum of per-op busy time on the matrix units (utilisation proxy).
    pub mxu_busy: f64,
}

impl SimReport {
    /// Total memory traffic (HBM + CMEM).
    pub fn total_mem_bytes(&self) -> f64 {
        self.hbm_bytes + self.cmem_bytes
    }

    /// Total average memory bandwidth (HBM + CMEM), bytes/s.
    pub fn total_mem_bw(&self) -> f64 {
        self.hbm_bw_used + self.cmem_bw_used
    }

    /// Matrix-unit utilisation in `[0, 1]` (busy time over wall time).
    pub fn mxu_utilization(&self) -> f64 {
        if self.time > 0.0 {
            (self.mxu_busy / self.time).min(1.0)
        } else {
            0.0
        }
    }

    /// The roofline point of the whole execution on `hw` (Fig. 4b / Fig. 7).
    pub fn roofline(&self, hw: &HardwareConfig) -> RooflinePoint {
        let cost = OpCost {
            flops: self.flops,
            bytes_read: self.hbm_bytes, // intensity w.r.t. off-chip traffic
            bytes_written: 0.0,
            ..OpCost::default()
        };
        roofline_point(&cost, self.time, hw)
    }
}

/// The hardware performance simulator (§6.2.3).
///
/// # Examples
///
/// ```
/// use h2o_hwsim::{Simulator, HardwareConfig};
/// use h2o_graph::{Graph, OpKind, DType};
///
/// let mut g = Graph::new("gemm", DType::Bf16);
/// g.add(OpKind::MatMul { m: 1024, k: 1024, n: 1024 }, &[]);
/// let sim = Simulator::new(HardwareConfig::tpu_v4());
/// let report = sim.simulate(&g);
/// assert!(report.time > 0.0 && report.avg_power > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    hw: HardwareConfig,
}

impl Simulator {
    /// Creates a simulator for the given platform.
    pub fn new(hw: HardwareConfig) -> Self {
        Self { hw }
    }

    /// The platform being simulated.
    pub fn hardware(&self) -> &HardwareConfig {
        &self.hw
    }

    /// Simulates one forward execution (a serving step) of the graph.
    pub fn simulate(&self, graph: &Graph) -> SimReport {
        self.walk(graph, None, |_, _| {})
    }

    /// Simulates one *training* step of the graph on a (possibly
    /// multi-chip, data-parallel) system.
    ///
    /// The backward pass is modelled as 2× the forward work (the standard
    /// fwd:bwd FLOP ratio for dense nets), and data parallelism adds a
    /// gradient all-reduce of the *data-parallel* parameter bytes over the
    /// interconnect. Embedding tables are model-parallel (sharded across
    /// chips with all-to-all exchange, as in production DLRM systems), so
    /// their parameters are excluded from the all-reduce.
    pub fn simulate_training(&self, graph: &Graph, system: &SystemConfig) -> SimReport {
        self.walk(graph, Some(system), |_, _| {})
    }

    /// Per-op-label time breakdown in seconds of the walk that
    /// [`Simulator::simulate`] (`system` is `None`) or
    /// [`Simulator::simulate_training`] (`Some`) makes. The training view
    /// adds the exposed gradient all-reduce to the `all_reduce` entry.
    pub fn breakdown(&self, graph: &Graph, system: Option<&SystemConfig>) -> BTreeMap<String, f64> {
        let mut breakdown = BTreeMap::new();
        self.walk(graph, system, |label, time| {
            *breakdown.entry(label.to_string()).or_insert(0.0) += time;
        });
        breakdown
    }

    /// The one pass over the graph behind every public method: prices each
    /// node once, accumulates the report, folds the critical path and hands
    /// each op's label and time to `sink`. `system` selects the training
    /// view: 3× the forward work plus the data-parallel all-reduce.
    fn walk(
        &self,
        graph: &Graph,
        system: Option<&SystemConfig>,
        mut sink: impl FnMut(&str, f64),
    ) -> SimReport {
        let walk_span = h2o_obs::span("simulator_walk");
        h2o_obs::counter("h2o_hwsim_graphs_walked_total").inc();
        h2o_obs::counter("h2o_hwsim_ops_visited_total").add(graph.len() as u64);
        let work_scale = if system.is_some() { 3.0 } else { 1.0 };
        let mut report = SimReport::default();
        let mut dense_params = 0.0;
        let mut time = graph.critical_path_time(|id| {
            let kind = &graph.node(id).kind;
            let cost = graph.node_cost(id);
            let t = time_op(kind, &cost, &self.hw);
            report.flops += cost.flops * work_scale;
            report.hbm_bytes += t.hbm_bytes * work_scale;
            report.cmem_bytes += t.cmem_bytes * work_scale;
            report.ici_bytes += t.ici_bytes * work_scale;
            report.params += cost.params;
            report.mxu_busy += t.mxu_time * work_scale;
            let vpu_energy = cost.vpu_ops * work_scale * self.hw.pj_per_vpu_op;
            report.energy += cost.flops * work_scale * self.hw.pj_per_flop
                + t.hbm_bytes * work_scale * self.hw.pj_per_hbm_byte
                + t.cmem_bytes * work_scale * self.hw.pj_per_cmem_byte
                + t.ici_bytes * work_scale * self.hw.pj_per_ici_byte
                + vpu_energy;
            if !matches!(kind, OpKind::EmbeddingLookup { .. }) {
                dense_params += cost.params;
            }
            sink(kind.label(), t.time * work_scale);
            t.time * work_scale
        });
        let allreduce_bytes = match system {
            Some(system) if system.chips > 1 => 2.0 * (dense_params * graph.dtype().bytes() as f64),
            _ => 0.0,
        };
        if allreduce_bytes > 0.0 {
            let allreduce = OpKind::AllReduce {
                bytes_per_chip: allreduce_bytes / 2.0,
            };
            let t = time_op(&allreduce, &allreduce.cost(graph.dtype()), &self.hw);
            // Gradient all-reduce partially overlaps the backward pass; model
            // half of it as exposed.
            time += 0.5 * t.time;
            report.ici_bytes += allreduce_bytes;
            report.energy += allreduce_bytes * self.hw.pj_per_ici_byte;
            sink("all_reduce", t.time);
        }
        report.time = time;
        report.energy += self.hw.idle_watts * time;
        if time > 0.0 {
            report.achieved_flops_rate = report.flops / time;
            report.hbm_bw_used = report.hbm_bytes / time;
            report.cmem_bw_used = report.cmem_bytes / time;
            report.avg_power = report.energy / time;
        }
        h2o_obs::histogram("h2o_hwsim_walk_seconds").record(walk_span.finish());
        report
    }

    /// Memory-capacity feasibility (§6.1 lists memory capacity among the
    /// launch constraints): a model is servable on one chip only if its
    /// parameters fit in HBM alongside an activation working set, and
    /// trainable on a system only if parameters + optimizer state (Adam
    /// keeps two moment buffers) fit across the chips with the embedding
    /// tables sharded.
    pub fn fits_for_serving(&self, graph: &Graph) -> bool {
        let param_bytes = graph.param_count() * graph.dtype().bytes() as f64;
        let activation_slack = 0.1 * self.hw.hbm_capacity;
        param_bytes + activation_slack <= self.hw.hbm_capacity
    }

    /// Whether a training job fits in aggregate system memory (parameters,
    /// gradients and two Adam moments; embeddings sharded across chips).
    pub fn fits_for_training(&self, graph: &Graph, system: &SystemConfig) -> bool {
        let param_bytes = graph.param_count() * graph.dtype().bytes() as f64;
        // params + grads + 2 optimizer moments = 4x, sharded across chips.
        let per_chip = 4.0 * param_bytes / system.chips.max(1) as f64;
        let activation_slack = 0.2 * self.hw.hbm_capacity;
        per_chip + activation_slack <= self.hw.hbm_capacity
    }

    /// Serving latency percentile model: production serving sees queueing
    /// and co-tenancy jitter, so P99 ≈ 1.35× the isolated mean plus a fixed
    /// host-side overhead.
    pub fn p99_latency(&self, graph: &Graph) -> f64 {
        let mean = self.simulate(graph).time;
        1.35 * mean + 150e-6
    }

    /// Serving throughput (queries/s) under a P99 latency target, the
    /// paper's serving metric (§6.2.2): batch is scaled up until P99 would
    /// exceed the target.
    ///
    /// `graph_at_batch` must build the serving graph for a given batch size.
    /// Returns `(best_batch, throughput_qps)`; `(0, 0.0)` if even batch 1
    /// misses the target.
    pub fn serving_throughput_under_p99(
        &self,
        target_latency: f64,
        mut graph_at_batch: impl FnMut(usize) -> Graph,
    ) -> (usize, f64) {
        let mut best = (0usize, 0.0f64);
        let mut batch = 1usize;
        while batch <= 4096 {
            let g = graph_at_batch(batch);
            let p99 = self.p99_latency(&g);
            if p99 <= target_latency {
                let qps = batch as f64 / self.simulate(&g).time;
                if qps > best.1 {
                    best = (batch, qps);
                }
            } else if batch > 1 {
                break;
            }
            batch *= 2;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2o_graph::DType;

    fn gemm_graph(n: usize) -> Graph {
        let mut g = Graph::new("gemm", DType::Bf16);
        g.add(OpKind::MatMul { m: n, k: n, n }, &[]);
        g
    }

    #[test]
    fn bigger_graph_takes_longer() {
        let sim = Simulator::new(HardwareConfig::tpu_v4());
        assert!(sim.simulate(&gemm_graph(2048)).time > sim.simulate(&gemm_graph(512)).time);
    }

    #[test]
    fn training_step_costs_about_3x_forward() {
        let sim = Simulator::new(HardwareConfig::tpu_v4());
        let g = gemm_graph(2048);
        let fwd = sim.simulate(&g);
        let train = sim.simulate_training(&g, &SystemConfig::single(64));
        assert!(train.time > 2.5 * fwd.time && train.time < 4.0 * fwd.time);
    }

    #[test]
    fn data_parallel_training_adds_allreduce_traffic() {
        let sim = Simulator::new(HardwareConfig::tpu_v4());
        let g = gemm_graph(1024);
        let single = sim.simulate_training(&g, &SystemConfig::single(64));
        let pod = sim.simulate_training(&g, &SystemConfig::training_pod());
        assert!(pod.ici_bytes > single.ici_bytes);
        assert!(pod.time > single.time);
    }

    #[test]
    fn energy_is_time_times_power() {
        let sim = Simulator::new(HardwareConfig::tpu_v4());
        let r = sim.simulate(&gemm_graph(1024));
        assert!((r.energy - r.time * r.avg_power).abs() / r.energy < 1e-9);
    }

    #[test]
    fn idle_power_dominates_tiny_graphs() {
        let sim = Simulator::new(HardwareConfig::tpu_v4());
        let mut g = Graph::new("tiny", DType::Bf16);
        g.add(
            OpKind::Elementwise {
                elems: 8,
                ops_per_elem: 1.0,
                label: "relu".into(),
            },
            &[],
        );
        let r = sim.simulate(&g);
        assert!((r.avg_power - sim.hardware().idle_watts).abs() < 5.0);
    }

    #[test]
    fn compute_bound_graph_draws_more_power_than_idle() {
        let sim = Simulator::new(HardwareConfig::tpu_v4());
        let r = sim.simulate(&gemm_graph(4096));
        assert!(
            r.avg_power > sim.hardware().idle_watts * 1.5,
            "power {}",
            r.avg_power
        );
    }

    #[test]
    fn achieved_rate_below_peak() {
        let sim = Simulator::new(HardwareConfig::tpu_v4());
        let r = sim.simulate(&gemm_graph(4096));
        assert!(r.achieved_flops_rate < sim.hardware().peak_flops);
        assert!(r.achieved_flops_rate > 0.1 * sim.hardware().peak_flops);
    }

    #[test]
    fn breakdown_accounts_labels() {
        let sim = Simulator::new(HardwareConfig::tpu_v4());
        let mut g = gemm_graph(512);
        g.add(
            OpKind::Elementwise {
                elems: 512 * 512,
                ops_per_elem: 1.0,
                label: "relu".into(),
            },
            &[],
        );
        let breakdown = sim.breakdown(&g, None);
        assert!(breakdown.contains_key("matmul"));
        assert!(breakdown.contains_key("relu"));
    }

    #[test]
    fn p99_exceeds_mean() {
        let sim = Simulator::new(HardwareConfig::tpu_v4i());
        let g = gemm_graph(1024);
        assert!(sim.p99_latency(&g) > sim.simulate(&g).time);
    }

    #[test]
    fn serving_throughput_grows_with_looser_target() {
        let sim = Simulator::new(HardwareConfig::tpu_v4i());
        let builder = |batch: usize| {
            let mut g = Graph::new("serve", DType::Bf16);
            g.add(
                OpKind::MatMul {
                    m: batch * 64,
                    k: 1024,
                    n: 1024,
                },
                &[],
            );
            g
        };
        let (b_tight, q_tight) = sim.serving_throughput_under_p99(1e-3, builder);
        let (b_loose, q_loose) = sim.serving_throughput_under_p99(20e-3, builder);
        assert!(b_loose >= b_tight);
        assert!(q_loose >= q_tight);
        assert!(q_loose > 0.0);
    }

    #[test]
    fn serving_throughput_impossible_target_is_zero() {
        let sim = Simulator::new(HardwareConfig::tpu_v4i());
        let builder = |batch: usize| {
            let mut g = Graph::new("serve", DType::Bf16);
            g.add(
                OpKind::MatMul {
                    m: batch * 64,
                    k: 8192,
                    n: 8192,
                },
                &[],
            );
            g
        };
        let (b, q) = sim.serving_throughput_under_p99(1e-9, builder);
        assert_eq!(b, 0);
        assert_eq!(q, 0.0);
    }

    #[test]
    fn small_model_fits_everywhere() {
        let sim = Simulator::new(HardwareConfig::tpu_v4i());
        let g = gemm_graph(512);
        assert!(sim.fits_for_serving(&g));
        assert!(sim.fits_for_training(&g, &SystemConfig::single(64)));
    }

    #[test]
    fn giant_model_fails_single_chip_but_fits_a_pod() {
        // ~8B params at bf16 = 16 GB of weights: over a TPUv4i's 8 GB HBM,
        // trainable once sharded across a 128-chip pod.
        let mut g = Graph::new("giant", DType::Bf16);
        let mut prev = g.add(
            OpKind::MatMul {
                m: 64,
                k: 16384,
                n: 16384,
            },
            &[],
        );
        for _ in 0..29 {
            prev = g.add(
                OpKind::MatMul {
                    m: 64,
                    k: 16384,
                    n: 16384,
                },
                &[prev],
            );
        }
        let serve = Simulator::new(HardwareConfig::tpu_v4i());
        assert!(
            !serve.fits_for_serving(&g),
            "giant model must not fit one TPUv4i"
        );
        let train = Simulator::new(HardwareConfig::tpu_v4());
        assert!(!train.fits_for_training(&g, &SystemConfig::single(64)));
        assert!(train.fits_for_training(&g, &SystemConfig::training_pod()));
    }

    #[test]
    fn parallel_branches_overlap_in_time() {
        // Two equal matmuls in parallel should take about as long as one,
        // not two (critical-path semantics, Fig. 8's max(embedding, MLP)).
        let sim = Simulator::new(HardwareConfig::tpu_v4());
        let serial = {
            let mut g = Graph::new("serial", DType::Bf16);
            let a = g.add(
                OpKind::MatMul {
                    m: 1024,
                    k: 1024,
                    n: 1024,
                },
                &[],
            );
            g.add(
                OpKind::MatMul {
                    m: 1024,
                    k: 1024,
                    n: 1024,
                },
                &[a],
            );
            sim.simulate(&g).time
        };
        let parallel = {
            let mut g = Graph::new("parallel", DType::Bf16);
            g.add(
                OpKind::MatMul {
                    m: 1024,
                    k: 1024,
                    n: 1024,
                },
                &[],
            );
            g.add(
                OpKind::MatMul {
                    m: 1024,
                    k: 1024,
                    n: 1024,
                },
                &[],
            );
            sim.simulate(&g).time
        };
        assert!(parallel < 0.6 * serial);
    }
}
