//! Per-operator roofline timing: compute / vector / memory / network rails
//! with an MXU tiling-efficiency model.
//!
//! This is where the paper's Fig. 4 behaviour comes from. An operator's
//! time is `max(rail times)` (subsystems overlap on TPUs/GPUs); the matrix
//! rail is derated by how well the operator's dimensions tile onto the
//! 128×128 systolic arrays. Small channel counts pad badly and strand
//! matrix-unit lanes — which is why a Fused-MBConv at depth 32 beats the
//! MBConv despite ~5× the FLOPs, while at depth 128 the MBConv wins
//! (Fig. 4c).

use crate::config::HardwareConfig;
use h2o_graph::{DType, OpCost, OpKind};

/// Achieved fraction of peak for a GEMM of logical shape `(m, k, n)` on a
/// `tile`-wide systolic array.
///
/// Padding model: each dimension is padded up to its hardware granularity
/// (the full tile for `k`/`n`, 8 rows for `m`), and the efficiency is the
/// ratio of useful to padded work, capped at a realistic 90 % of peak.
pub fn mxu_efficiency(m: usize, k: usize, n: usize, tile: usize) -> f64 {
    let pad = |dim: usize, granule: usize| -> f64 {
        let padded = dim.div_ceil(granule) * granule;
        dim as f64 / padded as f64
    };
    let eff = pad(m, 8) * pad(k, tile) * pad(n, tile);
    (0.90 * eff).clamp(0.0, 0.90)
}

/// GEMM-equivalent logical shape of a matrix-unit operator, if any.
pub fn gemm_shape(kind: &OpKind) -> Option<(usize, usize, usize)> {
    match *kind {
        OpKind::MatMul { m, k, n } => Some((m, k, n)),
        OpKind::BatchedMatMul { batches, m, k, n } => Some((batches * m, k, n)),
        OpKind::Conv2d {
            batch,
            h,
            w,
            c_in,
            c_out,
            kh,
            kw,
            stride,
        } => {
            let (ho, wo) = (h.div_ceil(stride), w.div_ceil(stride));
            Some((batch * ho * wo, c_in * kh * kw, c_out))
        }
        _ => None,
    }
}

/// Timing and traffic breakdown of a single operator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OpTiming {
    /// Wall-clock time of the operator in seconds (max over rails, plus
    /// launch overhead).
    pub time: f64,
    /// Matrix-unit rail time.
    pub mxu_time: f64,
    /// Vector-unit rail time.
    pub vpu_time: f64,
    /// HBM rail time.
    pub hbm_time: f64,
    /// On-chip memory rail time.
    pub cmem_time: f64,
    /// Interconnect rail time.
    pub ici_time: f64,
    /// Bytes served by HBM.
    pub hbm_bytes: f64,
    /// Bytes served by CMEM.
    pub cmem_bytes: f64,
    /// Bytes crossing the interconnect.
    pub ici_bytes: f64,
    /// Achieved MXU efficiency (0 for non-matrix ops).
    pub mxu_efficiency: f64,
}

/// Computes the roofline timing of one operator.
///
/// `cost` must be the operator's [`OpCost`] (already honouring fusion);
/// `kind` supplies the dimensions for the tiling model.
pub fn time_op(kind: &OpKind, cost: &OpCost, hw: &HardwareConfig) -> OpTiming {
    // --- Matrix rail ---
    let (mxu_time, eff) = if let Some((m, k, n)) = gemm_shape(kind) {
        let eff = mxu_efficiency(m, k, n, hw.mxu_dim);
        let t = if cost.flops > 0.0 {
            cost.flops / (hw.peak_flops * eff.max(1e-6))
        } else {
            0.0
        };
        (t, eff)
    } else {
        (0.0, 0.0)
    };

    // --- Vector rail ---
    let vpu_time = cost.vpu_ops / hw.vpu_ops_per_sec;

    // --- Memory rails: activation traffic is served from on-chip CMEM up
    //     to a per-op budget (the compiler tiles working sets through the
    //     scratchpad), spilling the remainder to HBM. Embedding-table
    //     gathers and weights always stream from HBM. ---
    let act_bytes = (cost.bytes_read - cost.weight_bytes).max(0.0) + cost.bytes_written;
    let cmem_budget = 0.5 * hw.cmem_capacity;
    let (cmem_bytes, mut hbm_bytes) = if matches!(kind, OpKind::EmbeddingLookup { .. }) {
        (0.0, act_bytes)
    } else if act_bytes <= cmem_budget {
        (act_bytes, 0.0)
    } else {
        (cmem_budget, act_bytes - cmem_budget)
    };
    hbm_bytes += cost.weight_bytes;
    let hbm_time = hbm_bytes / hw.hbm_bw;
    let cmem_time = cmem_bytes / hw.cmem_bw;

    // --- Network rail ---
    let ici_time = cost.network_bytes / hw.ici_bw;

    let busy = mxu_time
        .max(vpu_time)
        .max(hbm_time)
        .max(cmem_time)
        .max(ici_time);
    let overhead = if busy > 0.0 || cost.network_bytes > 0.0 {
        hw.op_overhead
    } else {
        0.0
    };
    OpTiming {
        time: busy + overhead,
        mxu_time,
        vpu_time,
        hbm_time,
        cmem_time,
        ici_time,
        hbm_bytes,
        cmem_bytes,
        ici_bytes: cost.network_bytes,
        mxu_efficiency: eff,
    }
}

/// A point on the classic roofline plot: operational intensity (x) and
/// achieved FLOP/s (y). Used directly by the Fig. 4b bench.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RooflinePoint {
    /// FLOPs per byte of memory traffic.
    pub operational_intensity: f64,
    /// Achieved compute rate in FLOP/s.
    pub achieved_flops: f64,
    /// Fraction of the platform peak.
    pub fraction_of_peak: f64,
}

/// Evaluates a whole-kernel roofline point for an operator set with
/// aggregate cost `cost` executing in `time` seconds.
pub fn roofline_point(cost: &OpCost, time: f64, hw: &HardwareConfig) -> RooflinePoint {
    let achieved = if time > 0.0 { cost.flops / time } else { 0.0 };
    RooflinePoint {
        operational_intensity: cost.operational_intensity(),
        achieved_flops: achieved,
        fraction_of_peak: achieved / hw.peak_flops,
    }
}

/// The ideal roofline envelope `min(peak, intensity × bw)` — the reference
/// curve drawn on Fig. 4b.
pub fn roofline_envelope(intensity: f64, hw: &HardwareConfig) -> f64 {
    (intensity * hw.hbm_bw).min(hw.peak_flops)
}

/// Convenience: cost + timing for a standalone op at a dtype.
pub fn time_standalone(kind: &OpKind, dtype: DType, hw: &HardwareConfig) -> OpTiming {
    time_op(kind, &kind.cost(dtype), hw)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hw() -> HardwareConfig {
        HardwareConfig::tpu_v4i()
    }

    #[test]
    fn efficiency_full_tiles_is_max() {
        assert!((mxu_efficiency(1024, 128, 128, 128) - 0.90).abs() < 1e-9);
    }

    #[test]
    fn efficiency_small_k_penalised() {
        let small = mxu_efficiency(1024, 32, 128, 128);
        let full = mxu_efficiency(1024, 128, 128, 128);
        assert!((small - full * 32.0 / 128.0).abs() < 1e-9);
    }

    #[test]
    fn conv_gemm_shape_contracts_over_kernel_and_cin() {
        let k = OpKind::Conv2d {
            batch: 2,
            h: 8,
            w: 8,
            c_in: 16,
            c_out: 32,
            kh: 3,
            kw: 3,
            stride: 1,
        };
        assert_eq!(gemm_shape(&k), Some((2 * 64, 144, 32)));
    }

    #[test]
    fn compute_bound_matmul_hits_mxu_rail() {
        let k = OpKind::MatMul {
            m: 4096,
            k: 4096,
            n: 4096,
        };
        let t = time_standalone(&k, DType::Bf16, &hw());
        assert!(t.mxu_time > t.hbm_time, "{t:?}");
        assert!(t.mxu_time > t.cmem_time);
    }

    #[test]
    fn embedding_lookup_is_memory_bound_on_hbm() {
        let k = OpKind::EmbeddingLookup {
            lookups: 1_000_000,
            width: 128,
            vocab: 10_000_000,
        };
        let t = time_standalone(&k, DType::F32, &hw());
        assert!(t.hbm_time > t.mxu_time);
        assert_eq!(t.cmem_bytes, 0.0, "embedding gathers must not claim CMEM");
    }

    #[test]
    fn small_activations_served_from_cmem() {
        let k = OpKind::Elementwise {
            elems: 1000,
            ops_per_elem: 1.0,
            label: "relu".into(),
        };
        let t = time_standalone(&k, DType::Bf16, &hw());
        assert!(t.cmem_bytes > 0.0);
        assert_eq!(t.hbm_bytes, 0.0);
    }

    #[test]
    fn huge_activations_spill_to_hbm() {
        let k = OpKind::Elementwise {
            elems: 200_000_000,
            ops_per_elem: 1.0,
            label: "relu".into(),
        };
        let t = time_standalone(&k, DType::Bf16, &hw());
        assert!(t.hbm_bytes > t.cmem_bytes, "most traffic spills off-chip");
        // The tiled slice stays on-chip at exactly the CMEM budget.
        assert!((t.cmem_bytes - 0.5 * hw().cmem_capacity).abs() < 1.0);
    }

    #[test]
    fn fig4c_crossover_emerges_from_tiling() {
        // F-MBC(32) faster than MBC(32); F-MBC(128) slower than MBC(128).
        use h2o_graph::blocks::{fused_mbconv, mbconv, MbConvConfig};
        use h2o_graph::Graph;
        let time_of = |fused: bool, depth: usize| {
            let cfg = MbConvConfig::square(56, depth, 8);
            let mut g = Graph::new("b", DType::Bf16);
            let i = g.add(OpKind::Reshape { elems: 1 }, &[]);
            if fused {
                fused_mbconv(&mut g, &cfg, i);
            } else {
                mbconv(&mut g, &cfg, i);
            }
            g.fuse_elementwise();
            let hw = hw();
            g.critical_path_time(|id| time_op(&g.node(id).kind, &g.node_cost(id), &hw).time)
        };
        assert!(
            time_of(true, 32) < time_of(false, 32),
            "fused must win at depth 32: {} vs {}",
            time_of(true, 32),
            time_of(false, 32)
        );
        assert!(
            time_of(true, 128) > time_of(false, 128),
            "classic must win at depth 128: {} vs {}",
            time_of(true, 128),
            time_of(false, 128)
        );
    }

    #[test]
    fn roofline_envelope_has_ridge() {
        let h = hw();
        let low = roofline_envelope(1.0, &h);
        let high = roofline_envelope(1e6, &h);
        assert!((low - h.hbm_bw).abs() / h.hbm_bw < 1e-9);
        assert_eq!(high, h.peak_flops);
    }

    #[test]
    fn network_op_rides_ici_rail() {
        let k = OpKind::AllToAll {
            bytes_per_chip: 1e9,
        };
        let t = time_standalone(&k, DType::Bf16, &hw());
        assert!(t.ici_time > 0.0);
        assert!(t.time >= t.ici_time);
    }

    #[test]
    fn more_bandwidth_never_slower() {
        let k = OpKind::EmbeddingLookup {
            lookups: 100_000,
            width: 64,
            vocab: 1_000_000,
        };
        let mut fast = hw();
        fast.hbm_bw *= 2.0;
        let slow_t = time_standalone(&k, DType::F32, &hw()).time;
        let fast_t = time_standalone(&k, DType::F32, &fast).time;
        assert!(fast_t <= slow_t);
    }
}
