//! Hardware platform descriptions.
//!
//! Presets are parameterised from published numbers for the accelerators the
//! paper targets: TPUv4 (training, [Cloud TPU docs]), TPUv4i (serving,
//! Jouppi et al. ISCA'21) and the NVIDIA V100 (Choquette et al., IEEE
//! Micro'18). Power/energy coefficients are representative datacenter
//! values; EXPERIMENTS.md compares *shapes*, not absolute watts.

/// A datacenter ML accelerator chip model.
///
/// All rates are peak per chip. The simulator derates matrix-unit throughput
/// with a tiling-efficiency model (see [`crate::roofline`]).
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareConfig {
    /// Platform name, e.g. `"TPUv4"`.
    pub name: String,
    /// Peak matrix-unit throughput in FLOP/s (bf16/fp16 with fp32 accumulate).
    pub peak_flops: f64,
    /// Matrix-unit systolic tile dimension (128 for TPU MXUs and, close
    /// enough, for tensor-core GEMM tiling).
    pub mxu_dim: usize,
    /// Peak vector-processing-unit throughput in scalar op/s.
    pub vpu_ops_per_sec: f64,
    /// Off-chip HBM bandwidth in bytes/s.
    pub hbm_bw: f64,
    /// HBM capacity in bytes.
    pub hbm_capacity: f64,
    /// On-chip scratchpad (CMEM / L2) capacity in bytes.
    pub cmem_capacity: f64,
    /// On-chip scratchpad bandwidth in bytes/s.
    pub cmem_bw: f64,
    /// Inter-chip interconnect (ICI / NVLink) bandwidth in bytes/s per chip.
    pub ici_bw: f64,
    /// Fixed per-operator launch/dispatch overhead in seconds.
    pub op_overhead: f64,
    /// Chip idle power in watts (clock gating, HBM refresh, host share).
    pub idle_watts: f64,
    /// Dynamic energy per matrix-unit FLOP, joules.
    pub pj_per_flop: f64,
    /// Dynamic energy per vector op, joules.
    pub pj_per_vpu_op: f64,
    /// Dynamic energy per HBM byte, joules.
    pub pj_per_hbm_byte: f64,
    /// Dynamic energy per CMEM byte, joules (an order of magnitude below
    /// HBM — the reason Fig. 9's faster models can use *less* power).
    pub pj_per_cmem_byte: f64,
    /// Dynamic energy per interconnect byte, joules.
    pub pj_per_ici_byte: f64,
}

const PJ: f64 = 1e-12;

impl HardwareConfig {
    /// Google TPUv4 — the paper's training platform (275 TFLOPS bf16,
    /// 1.2 TB/s HBM, 128 MB CMEM).
    pub fn tpu_v4() -> Self {
        Self {
            name: "TPUv4".to_string(),
            peak_flops: 275e12,
            mxu_dim: 128,
            vpu_ops_per_sec: 4e12,
            hbm_bw: 1.2e12,
            hbm_capacity: 32e9,
            cmem_capacity: 128e6,
            cmem_bw: 7.0e12,
            ici_bw: 300e9,
            op_overhead: 1.2e-6,
            idle_watts: 90.0,
            pj_per_flop: 0.28 * PJ,
            pj_per_vpu_op: 0.8 * PJ,
            pj_per_hbm_byte: 28.0 * PJ,
            pj_per_cmem_byte: 2.5 * PJ,
            pj_per_ici_byte: 35.0 * PJ,
        }
    }

    /// Google TPUv4i — the paper's serving platform (~138 TFLOPS bf16,
    /// 614 GB/s HBM, 128 MB CMEM; Jouppi et al. ISCA'21).
    pub fn tpu_v4i() -> Self {
        Self {
            name: "TPUv4i".to_string(),
            peak_flops: 138e12,
            mxu_dim: 128,
            vpu_ops_per_sec: 2e12,
            hbm_bw: 614e9,
            hbm_capacity: 8e9,
            cmem_capacity: 128e6,
            cmem_bw: 3.6e12,
            ici_bw: 100e9,
            op_overhead: 1.0e-6,
            idle_watts: 55.0,
            pj_per_flop: 0.26 * PJ,
            pj_per_vpu_op: 0.8 * PJ,
            pj_per_hbm_byte: 30.0 * PJ,
            pj_per_cmem_byte: 2.5 * PJ,
            pj_per_ici_byte: 35.0 * PJ,
        }
    }

    /// NVIDIA V100 — the paper's GPU serving comparison point (125 TFLOPS
    /// fp16 tensor cores, 900 GB/s HBM2, 6 MB L2).
    pub fn gpu_v100() -> Self {
        Self {
            name: "GPUv100".to_string(),
            peak_flops: 125e12,
            mxu_dim: 128,
            vpu_ops_per_sec: 7e12,
            hbm_bw: 900e9,
            hbm_capacity: 16e9,
            cmem_capacity: 6e6,
            cmem_bw: 2.5e12,
            ici_bw: 150e9,
            op_overhead: 3.0e-6,
            idle_watts: 70.0,
            pj_per_flop: 0.45 * PJ,
            pj_per_vpu_op: 1.0 * PJ,
            pj_per_hbm_byte: 32.0 * PJ,
            pj_per_cmem_byte: 4.0 * PJ,
            pj_per_ici_byte: 40.0 * PJ,
        }
    }

    /// NVIDIA A100 (Ampere whitepaper: 312 TFLOPS bf16 tensor cores,
    /// 1.6 TB/s HBM2e on the 40 GB part, 40 MB L2).
    pub fn gpu_a100() -> Self {
        Self {
            name: "GPUa100".to_string(),
            peak_flops: 312e12,
            mxu_dim: 128,
            vpu_ops_per_sec: 19e12,
            hbm_bw: 1.6e12,
            hbm_capacity: 40e9,
            cmem_capacity: 40e6,
            cmem_bw: 4.8e12,
            ici_bw: 300e9,
            op_overhead: 2.5e-6,
            idle_watts: 80.0,
            pj_per_flop: 0.32 * PJ,
            pj_per_vpu_op: 0.9 * PJ,
            pj_per_hbm_byte: 30.0 * PJ,
            pj_per_cmem_byte: 3.5 * PJ,
            pj_per_ici_byte: 38.0 * PJ,
        }
    }

    /// NVIDIA H100 SXM (Hopper whitepaper: ~990 TFLOPS bf16 dense,
    /// 3.35 TB/s HBM3, 50 MB L2).
    pub fn gpu_h100() -> Self {
        Self {
            name: "GPUh100".to_string(),
            peak_flops: 990e12,
            mxu_dim: 128,
            vpu_ops_per_sec: 60e12,
            hbm_bw: 3.35e12,
            hbm_capacity: 80e9,
            cmem_capacity: 50e6,
            cmem_bw: 12.0e12,
            ici_bw: 450e9,
            op_overhead: 2.0e-6,
            idle_watts: 110.0,
            pj_per_flop: 0.22 * PJ,
            pj_per_vpu_op: 0.7 * PJ,
            pj_per_hbm_byte: 24.0 * PJ,
            pj_per_cmem_byte: 3.0 * PJ,
            pj_per_ici_byte: 32.0 * PJ,
        }
    }

    /// Google TPUv3 (Jouppi et al. CACM'20: 123 TFLOPS bf16, 900 GB/s HBM,
    /// no CMEM scratchpad beyond small on-chip buffers).
    pub fn tpu_v3() -> Self {
        Self {
            name: "TPUv3".to_string(),
            peak_flops: 123e12,
            mxu_dim: 128,
            vpu_ops_per_sec: 3e12,
            hbm_bw: 900e9,
            hbm_capacity: 32e9,
            cmem_capacity: 32e6,
            cmem_bw: 2.0e12,
            ici_bw: 162e9,
            op_overhead: 1.5e-6,
            idle_watts: 85.0,
            pj_per_flop: 0.40 * PJ,
            pj_per_vpu_op: 1.0 * PJ,
            pj_per_hbm_byte: 34.0 * PJ,
            pj_per_cmem_byte: 4.0 * PJ,
            pj_per_ici_byte: 40.0 * PJ,
        }
    }

    /// Looks a preset up by (case-insensitive) name.
    ///
    /// # Errors
    ///
    /// Returns `None` for unknown platform names.
    pub fn by_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "tpuv3" | "tpu_v3" => Some(Self::tpu_v3()),
            "tpuv4" | "tpu_v4" => Some(Self::tpu_v4()),
            "tpuv4i" | "tpu_v4i" => Some(Self::tpu_v4i()),
            "gpuv100" | "v100" | "gpu_v100" => Some(Self::gpu_v100()),
            "gpua100" | "a100" | "gpu_a100" => Some(Self::gpu_a100()),
            "gpuh100" | "h100" | "gpu_h100" => Some(Self::gpu_h100()),
            _ => None,
        }
    }

    /// The ridge point of the HBM roofline, FLOPs/byte: operational
    /// intensities above this are compute-bound.
    pub fn ridge_intensity(&self) -> f64 {
        self.peak_flops / self.hbm_bw
    }
}

/// A multi-chip training/serving system (e.g. the paper's 128-chip TPUv4
/// training pods, Table 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Number of accelerator chips.
    pub chips: usize,
    /// Global batch size (split evenly across chips for data parallelism).
    pub global_batch: usize,
}

impl SystemConfig {
    /// A single-chip system at the given batch size.
    pub fn single(batch: usize) -> Self {
        Self {
            chips: 1,
            global_batch: batch,
        }
    }

    /// The paper's standard 128-chip training pod (Table 2) at per-chip
    /// batch 64 (Table 3's throughput footnote), i.e. global batch 8192.
    pub fn training_pod() -> Self {
        Self {
            chips: 128,
            global_batch: 128 * 64,
        }
    }

    /// Per-chip batch size.
    ///
    /// # Panics
    ///
    /// Panics if `chips == 0`.
    pub fn per_chip_batch(&self) -> usize {
        assert!(self.chips > 0, "system must have at least one chip");
        (self.global_batch / self.chips).max(1)
    }
}

impl HardwareConfig {
    /// Every built-in platform preset, for sweeps and reports.
    pub fn all_presets() -> Vec<HardwareConfig> {
        vec![
            Self::tpu_v3(),
            Self::tpu_v4(),
            Self::tpu_v4i(),
            Self::gpu_v100(),
            Self::gpu_a100(),
            Self::gpu_h100(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_sane_rooflines() {
        for hw in HardwareConfig::all_presets() {
            assert!(hw.peak_flops > 1e13, "{}", hw.name);
            assert!(hw.hbm_bw > 1e11);
            assert!(
                hw.cmem_bw > hw.hbm_bw,
                "on-chip must beat off-chip bandwidth"
            );
            assert!(
                hw.pj_per_cmem_byte < hw.pj_per_hbm_byte,
                "on-chip must be cheaper energy"
            );
            assert!(hw.ridge_intensity() > 50.0 && hw.ridge_intensity() < 1000.0);
        }
    }

    #[test]
    fn tpu_v4_faster_than_v4i() {
        assert!(HardwareConfig::tpu_v4().peak_flops > HardwareConfig::tpu_v4i().peak_flops);
    }

    #[test]
    fn generational_ordering_holds() {
        assert!(HardwareConfig::tpu_v3().peak_flops < HardwareConfig::tpu_v4().peak_flops);
        assert!(HardwareConfig::gpu_v100().peak_flops < HardwareConfig::gpu_a100().peak_flops);
        assert!(HardwareConfig::gpu_a100().peak_flops < HardwareConfig::gpu_h100().peak_flops);
        assert!(HardwareConfig::gpu_a100().hbm_bw > HardwareConfig::gpu_v100().hbm_bw);
    }

    #[test]
    fn new_presets_resolve_by_name() {
        assert_eq!(HardwareConfig::by_name("a100").unwrap().name, "GPUa100");
        assert_eq!(HardwareConfig::by_name("H100").unwrap().name, "GPUh100");
        assert_eq!(HardwareConfig::by_name("tpuv3").unwrap().name, "TPUv3");
    }

    #[test]
    fn by_name_resolves_aliases() {
        assert_eq!(HardwareConfig::by_name("TPUv4").unwrap().name, "TPUv4");
        assert_eq!(HardwareConfig::by_name("v100").unwrap().name, "GPUv100");
        assert!(HardwareConfig::by_name("tpu9000").is_none());
    }

    #[test]
    fn training_pod_matches_table2() {
        let sys = SystemConfig::training_pod();
        assert_eq!(sys.chips, 128);
        assert_eq!(sys.per_chip_batch(), 64);
    }

    #[test]
    fn per_chip_batch_never_zero() {
        let sys = SystemConfig {
            chips: 16,
            global_batch: 8,
        };
        assert_eq!(sys.per_chip_batch(), 1);
    }
}
