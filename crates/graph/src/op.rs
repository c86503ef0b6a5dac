//! Operator kinds and their hardware-relevant cost accounting.
//!
//! Every operator knows how to report an [`OpCost`]: FLOPs, bytes moved,
//! vector-unit work, network traffic and parameter count. The hardware
//! simulator (`h2o-hwsim`) converts these into time via a roofline model
//! (§6.2.3 of the paper: "walks through a TensorFlow/HLO graph, simulates
//! run-time of each operator").

use std::borrow::Cow;

/// Numeric element type of a tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DType {
    /// 16-bit brain float — the TPU matrix-unit native type.
    #[default]
    Bf16,
    /// 32-bit IEEE float.
    F32,
    /// 32-bit integer (embedding indices).
    I32,
}

impl DType {
    /// Size of one element in bytes.
    pub fn bytes(self) -> usize {
        match self {
            DType::Bf16 => 2,
            DType::F32 => 4,
            DType::I32 => 4,
        }
    }
}

/// Aggregate hardware cost of one operator instance.
///
/// All quantities are totals for the operator at its configured batch size.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OpCost {
    /// Matrix/tensor-unit floating-point operations (multiply-adds × 2).
    pub flops: f64,
    /// Bytes read from memory (activations + weights).
    pub bytes_read: f64,
    /// Bytes written to memory.
    pub bytes_written: f64,
    /// Bytes of weights among `bytes_read` (eligible for on-chip caching).
    pub weight_bytes: f64,
    /// Vector-processing-unit scalar operations (activations, norms, ...).
    pub vpu_ops: f64,
    /// Bytes crossing the inter-chip interconnect (all-to-all / all-reduce).
    pub network_bytes: f64,
    /// Trainable parameter count.
    pub params: f64,
}

impl OpCost {
    /// Total bytes moved through the memory system.
    pub fn total_bytes(&self) -> f64 {
        self.bytes_read + self.bytes_written
    }

    /// Operational intensity in FLOPs per byte (the roofline x-axis).
    /// Returns 0 for pure-memory ops.
    pub fn operational_intensity(&self) -> f64 {
        let b = self.total_bytes();
        if b <= 0.0 {
            0.0
        } else {
            self.flops / b
        }
    }

    /// Element-wise sum of two costs.
    pub fn combine(&self, other: &OpCost) -> OpCost {
        OpCost {
            flops: self.flops + other.flops,
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
            weight_bytes: self.weight_bytes + other.weight_bytes,
            vpu_ops: self.vpu_ops + other.vpu_ops,
            network_bytes: self.network_bytes + other.network_bytes,
            params: self.params + other.params,
        }
    }
}

/// The operator vocabulary of the IR.
///
/// Shapes are given per *batch element* where a `batch` field exists; the
/// cost methods multiply batch in. Dimensions are in elements, not bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Dense matrix product `(m×k) · (k×n)`, with the `k×n` operand being
    /// trainable weights (an MLP or projection layer).
    MatMul {
        /// Rows of the left operand (usually batch × sequence).
        m: usize,
        /// Contraction dimension.
        k: usize,
        /// Columns of the weight operand.
        n: usize,
    },
    /// Batched matrix product with *no* trainable weights (attention
    /// `QKᵀ` / `AV` products).
    BatchedMatMul {
        /// Number of independent products (batch × heads).
        batches: usize,
        /// Rows per product.
        m: usize,
        /// Contraction dimension.
        k: usize,
        /// Columns per product.
        n: usize,
    },
    /// 2-D convolution in NHWC layout.
    Conv2d {
        /// Batch size.
        batch: usize,
        /// Input spatial height.
        h: usize,
        /// Input spatial width.
        w: usize,
        /// Input channels.
        c_in: usize,
        /// Output channels.
        c_out: usize,
        /// Kernel height.
        kh: usize,
        /// Kernel width.
        kw: usize,
        /// Spatial stride.
        stride: usize,
    },
    /// Depthwise 2-D convolution (one filter per channel).
    DepthwiseConv2d {
        /// Batch size.
        batch: usize,
        /// Input spatial height.
        h: usize,
        /// Input spatial width.
        w: usize,
        /// Channels.
        c: usize,
        /// Kernel height.
        kh: usize,
        /// Kernel width.
        kw: usize,
        /// Spatial stride.
        stride: usize,
    },
    /// Embedding-bag lookup: `lookups` row gathers of width `width`, summed.
    /// Memory- and network-bound; runs outside the matrix units (§5.1.1).
    EmbeddingLookup {
        /// Total number of row gathers across the batch.
        lookups: usize,
        /// Embedding width (columns per row).
        width: usize,
        /// Table rows (contributes to params, not to per-step traffic).
        vocab: usize,
    },
    /// Element-wise map (activation, bias add, batch-norm apply, ...).
    Elementwise {
        /// Total elements processed.
        elems: usize,
        /// VPU scalar ops per element (see
        /// `h2o_tensor::Activation::vpu_ops_per_element` for typical values).
        ops_per_elem: f64,
        /// Human-readable label, e.g. `"swish"`. The built-in builders
        /// borrow a static label; a parsed graph owns its own.
        label: Cow<'static, str>,
    },
    /// Spatial pooling (average/max); vector-unit work plus memory traffic.
    Pool {
        /// Batch size.
        batch: usize,
        /// Input spatial height.
        h: usize,
        /// Input spatial width.
        w: usize,
        /// Channels.
        c: usize,
        /// Pooling window (window × window).
        window: usize,
    },
    /// Concatenation along the feature axis — pure memory traffic.
    Concat {
        /// Total elements in the concatenated output.
        elems: usize,
    },
    /// Cross-chip all-to-all (distributed embedding exchange in DLRM).
    AllToAll {
        /// Bytes each chip sends (== receives) per step.
        bytes_per_chip: f64,
    },
    /// Cross-chip all-reduce (gradient synchronisation).
    AllReduce {
        /// Bytes reduced per chip per step.
        bytes_per_chip: f64,
    },
    /// Data reformatting (space-to-depth, space-to-batch, reshape-copy) —
    /// pure memory traffic, used by the CNN search space's tensor-reshaping
    /// dimension (Table 5).
    Reshape {
        /// Total elements copied.
        elems: usize,
    },
}

impl OpKind {
    /// Short lowercase operator label for reports.
    pub fn label(&self) -> &str {
        match self {
            OpKind::MatMul { .. } => "matmul",
            OpKind::BatchedMatMul { .. } => "batched_matmul",
            OpKind::Conv2d { .. } => "conv2d",
            OpKind::DepthwiseConv2d { .. } => "depthwise_conv2d",
            OpKind::EmbeddingLookup { .. } => "embedding_lookup",
            OpKind::Elementwise { label, .. } => label,
            OpKind::Pool { .. } => "pool",
            OpKind::Concat { .. } => "concat",
            OpKind::AllToAll { .. } => "all_to_all",
            OpKind::AllReduce { .. } => "all_reduce",
            OpKind::Reshape { .. } => "reshape",
        }
    }

    /// Whether this operator runs on the matrix units (MXU / tensor cores).
    pub fn uses_matrix_unit(&self) -> bool {
        matches!(
            self,
            OpKind::MatMul { .. } | OpKind::BatchedMatMul { .. } | OpKind::Conv2d { .. }
        )
    }

    /// Computes the operator's cost at the given element type.
    pub fn cost(&self, dtype: DType) -> OpCost {
        let eb = dtype.bytes() as f64;
        match *self {
            OpKind::MatMul { m, k, n } => {
                let (m, k, n) = (m as f64, k as f64, n as f64);
                OpCost {
                    flops: 2.0 * m * k * n,
                    bytes_read: (m * k + k * n) * eb,
                    bytes_written: m * n * eb,
                    weight_bytes: k * n * eb,
                    params: k * n + n,
                    ..OpCost::default()
                }
            }
            OpKind::BatchedMatMul { batches, m, k, n } => {
                let (b, m, k, n) = (batches as f64, m as f64, k as f64, n as f64);
                OpCost {
                    flops: 2.0 * b * m * k * n,
                    bytes_read: b * (m * k + k * n) * eb,
                    bytes_written: b * m * n * eb,
                    ..OpCost::default()
                }
            }
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
                let (ho, wo) = (h.div_ceil(stride) as f64, w.div_ceil(stride) as f64);
                let (b, ci, co, kh_f, kw_f) = (
                    batch as f64,
                    c_in as f64,
                    c_out as f64,
                    kh as f64,
                    kw as f64,
                );
                let weight = kh_f * kw_f * ci * co;
                OpCost {
                    flops: 2.0 * b * ho * wo * co * ci * kh_f * kw_f,
                    bytes_read: (b * h as f64 * w as f64 * ci + weight) * eb,
                    bytes_written: b * ho * wo * co * eb,
                    weight_bytes: weight * eb,
                    params: weight + co,
                    ..OpCost::default()
                }
            }
            OpKind::DepthwiseConv2d {
                batch,
                h,
                w,
                c,
                kh,
                kw,
                stride,
            } => {
                let (ho, wo) = (h.div_ceil(stride) as f64, w.div_ceil(stride) as f64);
                let (b, c_f, kh_f, kw_f) = (batch as f64, c as f64, kh as f64, kw as f64);
                let weight = kh_f * kw_f * c_f;
                OpCost {
                    // Depthwise convs have no channel contraction: they run on
                    // the vector units on TPUs, hence counted as vpu_ops too.
                    flops: 2.0 * b * ho * wo * c_f * kh_f * kw_f,
                    bytes_read: (b * h as f64 * w as f64 * c_f + weight) * eb,
                    bytes_written: b * ho * wo * c_f * eb,
                    weight_bytes: weight * eb,
                    vpu_ops: 2.0 * b * ho * wo * c_f * kh_f * kw_f,
                    params: weight + c_f,
                    ..OpCost::default()
                }
            }
            OpKind::EmbeddingLookup {
                lookups,
                width,
                vocab,
            } => {
                let (l, w) = (lookups as f64, width as f64);
                OpCost {
                    flops: 0.0,
                    bytes_read: l * w * eb,
                    bytes_written: l * w * eb,
                    vpu_ops: l * w, // pooling adds
                    params: vocab as f64 * w,
                    ..OpCost::default()
                }
            }
            OpKind::Elementwise {
                elems,
                ops_per_elem,
                ..
            } => {
                let e = elems as f64;
                OpCost {
                    bytes_read: e * eb,
                    bytes_written: e * eb,
                    vpu_ops: e * ops_per_elem,
                    ..OpCost::default()
                }
            }
            OpKind::Pool {
                batch,
                h,
                w,
                c,
                window,
            } => {
                let e = (batch * h * w * c) as f64;
                let out = e / (window * window) as f64;
                OpCost {
                    bytes_read: e * eb,
                    bytes_written: out * eb,
                    vpu_ops: e,
                    ..OpCost::default()
                }
            }
            OpKind::Concat { elems } => {
                let e = elems as f64;
                OpCost {
                    bytes_read: e * eb,
                    bytes_written: e * eb,
                    ..OpCost::default()
                }
            }
            OpKind::AllToAll { bytes_per_chip } => OpCost {
                network_bytes: bytes_per_chip,
                ..OpCost::default()
            },
            OpKind::AllReduce { bytes_per_chip } => OpCost {
                // Ring all-reduce moves ~2× the payload over the links.
                network_bytes: 2.0 * bytes_per_chip,
                ..OpCost::default()
            },
            OpKind::Reshape { elems } => {
                let e = elems as f64;
                OpCost {
                    bytes_read: e * eb,
                    bytes_written: e * eb,
                    ..OpCost::default()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_flops_formula() {
        let c = OpKind::MatMul { m: 8, k: 16, n: 4 }.cost(DType::Bf16);
        assert_eq!(c.flops, 2.0 * 8.0 * 16.0 * 4.0);
        assert_eq!(c.params, 16.0 * 4.0 + 4.0);
        assert_eq!(c.weight_bytes, 16.0 * 4.0 * 2.0);
    }

    #[test]
    fn conv_flops_and_params() {
        let c = OpKind::Conv2d {
            batch: 1,
            h: 32,
            w: 32,
            c_in: 16,
            c_out: 32,
            kh: 3,
            kw: 3,
            stride: 1,
        }
        .cost(DType::Bf16);
        assert_eq!(c.flops, 2.0 * 32.0 * 32.0 * 32.0 * 16.0 * 9.0);
        assert_eq!(c.params, 9.0 * 16.0 * 32.0 + 32.0);
    }

    #[test]
    fn conv_stride_reduces_output_and_flops() {
        let mk = |stride| {
            OpKind::Conv2d {
                batch: 1,
                h: 32,
                w: 32,
                c_in: 8,
                c_out: 8,
                kh: 3,
                kw: 3,
                stride,
            }
            .cost(DType::Bf16)
        };
        assert!((mk(2).flops - mk(1).flops / 4.0).abs() < 1.0);
    }

    #[test]
    fn depthwise_much_cheaper_than_full_conv() {
        let full = OpKind::Conv2d {
            batch: 1,
            h: 16,
            w: 16,
            c_in: 64,
            c_out: 64,
            kh: 3,
            kw: 3,
            stride: 1,
        }
        .cost(DType::Bf16);
        let dw = OpKind::DepthwiseConv2d {
            batch: 1,
            h: 16,
            w: 16,
            c: 64,
            kh: 3,
            kw: 3,
            stride: 1,
        }
        .cost(DType::Bf16);
        assert!(dw.flops * 32.0 < full.flops);
    }

    #[test]
    fn depthwise_has_lower_operational_intensity_than_conv() {
        // The core hardware insight behind Fused-MBConv (Fig. 4b).
        let full = OpKind::Conv2d {
            batch: 1,
            h: 16,
            w: 16,
            c_in: 64,
            c_out: 64,
            kh: 3,
            kw: 3,
            stride: 1,
        }
        .cost(DType::Bf16);
        let dw = OpKind::DepthwiseConv2d {
            batch: 1,
            h: 16,
            w: 16,
            c: 64,
            kh: 3,
            kw: 3,
            stride: 1,
        }
        .cost(DType::Bf16);
        assert!(dw.operational_intensity() < full.operational_intensity());
    }

    #[test]
    fn embedding_is_pure_memory() {
        let c = OpKind::EmbeddingLookup {
            lookups: 100,
            width: 64,
            vocab: 1000,
        }
        .cost(DType::F32);
        assert_eq!(c.flops, 0.0);
        assert!(c.bytes_read > 0.0);
        assert_eq!(c.params, 64_000.0);
    }

    #[test]
    fn elementwise_costs_scale_with_ops_per_elem() {
        let relu = OpKind::Elementwise {
            elems: 100,
            ops_per_elem: 1.0,
            label: "relu".into(),
        }
        .cost(DType::Bf16);
        let gelu = OpKind::Elementwise {
            elems: 100,
            ops_per_elem: 14.0,
            label: "gelu".into(),
        }
        .cost(DType::Bf16);
        assert_eq!(gelu.vpu_ops, 14.0 * relu.vpu_ops);
        assert_eq!(gelu.bytes_read, relu.bytes_read);
    }

    #[test]
    fn allreduce_doubles_payload() {
        let c = OpKind::AllReduce {
            bytes_per_chip: 100.0,
        }
        .cost(DType::Bf16);
        assert_eq!(c.network_bytes, 200.0);
    }

    #[test]
    fn operational_intensity_zero_for_no_bytes() {
        let c = OpCost::default();
        assert_eq!(c.operational_intensity(), 0.0);
    }

    #[test]
    fn combine_adds_fields() {
        let a = OpKind::MatMul { m: 2, k: 2, n: 2 }.cost(DType::Bf16);
        let b = a.combine(&a);
        assert_eq!(b.flops, 2.0 * a.flops);
        assert_eq!(b.params, 2.0 * a.params);
    }

    #[test]
    fn dtype_bytes() {
        assert_eq!(DType::Bf16.bytes(), 2);
        assert_eq!(DType::F32.bytes(), 4);
        assert_eq!(DType::I32.bytes(), 4);
    }

    #[test]
    fn matrix_unit_classification() {
        assert!(OpKind::MatMul { m: 1, k: 1, n: 1 }.uses_matrix_unit());
        assert!(!OpKind::EmbeddingLookup {
            lookups: 1,
            width: 1,
            vocab: 1
        }
        .uses_matrix_unit());
        assert!(!OpKind::DepthwiseConv2d {
            batch: 1,
            h: 1,
            w: 1,
            c: 1,
            kh: 1,
            kw: 1,
            stride: 1
        }
        .uses_matrix_unit());
    }
}
