//! Reusable macro-block builders: MBConv, Fused-MBConv, transformer blocks
//! and DLRM layer groups.
//!
//! These are the composable units the H2O-NAS search spaces assemble
//! (Fig. 4a of the paper shows MBConv vs Fused-MBConv; Table 5 lists the
//! searchable knobs each block exposes).

use crate::graph::{Graph, NodeId};
use crate::op::OpKind;

/// Element-wise activation descriptor for graph construction: a label plus
/// its vector-unit cost per element. Mirrors
/// `h2o_tensor::Activation::vpu_ops_per_element` without coupling the IR to
/// the training crate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActDesc {
    /// Display label, e.g. `"swish"`.
    pub label: &'static str,
    /// VPU scalar operations per element.
    pub ops_per_elem: f64,
}

impl ActDesc {
    /// `max(0, x)`.
    pub const RELU: ActDesc = ActDesc {
        label: "relu",
        ops_per_elem: 1.0,
    };
    /// `x · sigmoid(x)`.
    pub const SWISH: ActDesc = ActDesc {
        label: "swish",
        ops_per_elem: 10.0,
    };
    /// Gaussian error linear unit.
    pub const GELU: ActDesc = ActDesc {
        label: "gelu",
        ops_per_elem: 14.0,
    };
    /// `max(0, x)²` — the CoAtNet-H activation (Table 3).
    pub const SQUARED_RELU: ActDesc = ActDesc {
        label: "squared_relu",
        ops_per_elem: 2.0,
    };
    /// Logistic sigmoid.
    pub const SIGMOID: ActDesc = ActDesc {
        label: "sigmoid",
        ops_per_elem: 8.0,
    };
}

/// Configuration of an (optionally fused) MBConv block — Fig. 4a.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MbConvConfig {
    /// Batch size.
    pub batch: usize,
    /// Input feature-map height.
    pub h: usize,
    /// Input feature-map width.
    pub w: usize,
    /// Input channel depth.
    pub c_in: usize,
    /// Output channel depth.
    pub c_out: usize,
    /// Expansion ratio of the inverted bottleneck (Table 5: 1, 3, 4, 6).
    pub expansion: usize,
    /// Depthwise (or fused) kernel size (Table 5: 3, 5, 7).
    pub kernel: usize,
    /// Spatial stride (Table 5: 1, 2, 4).
    pub stride: usize,
    /// Squeeze-and-excite ratio; 0.0 removes the SE layer (Table 5).
    pub se_ratio: f64,
    /// Activation between layers.
    pub act: ActDesc,
}

impl MbConvConfig {
    /// A canonical block used in tests and the Fig. 4 roofline bench:
    /// square feature map, equal in/out depth, expansion 6, 3×3 kernel.
    pub fn square(hw: usize, depth: usize, batch: usize) -> Self {
        Self {
            batch,
            h: hw,
            w: hw,
            c_in: depth,
            c_out: depth,
            expansion: 6,
            kernel: 3,
            stride: 1,
            se_ratio: 0.25,
            act: ActDesc::SWISH,
        }
    }

    fn out_hw(&self) -> (usize, usize) {
        (self.h.div_ceil(self.stride), self.w.div_ceil(self.stride))
    }
}

fn elementwise(g: &mut Graph, elems: usize, act: ActDesc, input: NodeId) -> NodeId {
    g.add(
        OpKind::Elementwise {
            elems,
            ops_per_elem: act.ops_per_elem,
            label: act.label.into(),
        },
        &[input],
    )
}

fn squeeze_excite(g: &mut Graph, cfg: &MbConvConfig, c_mid: usize, input: NodeId) -> NodeId {
    let (ho, wo) = cfg.out_hw();
    let se_c = ((c_mid as f64 * cfg.se_ratio).round() as usize).max(1);
    let pooled = g.add(
        OpKind::Pool {
            batch: cfg.batch,
            h: ho,
            w: wo,
            c: c_mid,
            window: ho.max(1),
        },
        &[input],
    );
    let squeeze = g.add(
        OpKind::MatMul {
            m: cfg.batch,
            k: c_mid,
            n: se_c,
        },
        &[pooled],
    );
    let act = elementwise(g, cfg.batch * se_c, cfg.act, squeeze);
    let excite = g.add(
        OpKind::MatMul {
            m: cfg.batch,
            k: se_c,
            n: c_mid,
        },
        &[act],
    );
    let gate = elementwise(g, cfg.batch * c_mid, ActDesc::SIGMOID, excite);
    // Broadcast-multiply the gate over the feature map.
    g.add(
        OpKind::Elementwise {
            elems: cfg.batch * ho * wo * c_mid,
            ops_per_elem: 1.0,
            label: "se_scale".into(),
        },
        &[gate, input],
    )
}

/// Builds a classic **MBConv**: 1×1 expand → depthwise k×k → (SE) →
/// 1×1 project, with activations between. Returns the output node.
///
/// Lower total FLOPs but lower operational intensity than
/// [`fused_mbconv`] — the depthwise stage starves the matrix units
/// (Fig. 4b).
pub fn mbconv(g: &mut Graph, cfg: &MbConvConfig, input: NodeId) -> NodeId {
    let c_mid = cfg.c_in * cfg.expansion;
    let (ho, wo) = cfg.out_hw();
    let mut x = input;
    if cfg.expansion != 1 {
        x = g.add(
            OpKind::Conv2d {
                batch: cfg.batch,
                h: cfg.h,
                w: cfg.w,
                c_in: cfg.c_in,
                c_out: c_mid,
                kh: 1,
                kw: 1,
                stride: 1,
            },
            &[x],
        );
        x = elementwise(g, cfg.batch * cfg.h * cfg.w * c_mid, cfg.act, x);
    }
    x = g.add(
        OpKind::DepthwiseConv2d {
            batch: cfg.batch,
            h: cfg.h,
            w: cfg.w,
            c: c_mid,
            kh: cfg.kernel,
            kw: cfg.kernel,
            stride: cfg.stride,
        },
        &[x],
    );
    x = elementwise(g, cfg.batch * ho * wo * c_mid, cfg.act, x);
    if cfg.se_ratio > 0.0 {
        x = squeeze_excite(g, cfg, c_mid, x);
    }
    x = g.add(
        OpKind::Conv2d {
            batch: cfg.batch,
            h: ho,
            w: wo,
            c_in: c_mid,
            c_out: cfg.c_out,
            kh: 1,
            kw: 1,
            stride: 1,
        },
        &[x],
    );
    if cfg.stride == 1 && cfg.c_in == cfg.c_out {
        x = g.add(
            OpKind::Elementwise {
                elems: cfg.batch * ho * wo * cfg.c_out,
                ops_per_elem: 1.0,
                label: "residual_add".into(),
            },
            &[x, input],
        );
    }
    x
}

/// Builds a **Fused-MBConv**: full k×k convolution (expand + depthwise
/// merged) → (SE) → 1×1 project. Returns the output node.
///
/// More total FLOPs than [`mbconv`] but higher operational intensity, so it
/// can be faster or slower depending on channel depth — the dynamic-fusion
/// trade-off H2O-NAS searches over (Fig. 4b/4c).
pub fn fused_mbconv(g: &mut Graph, cfg: &MbConvConfig, input: NodeId) -> NodeId {
    let c_mid = cfg.c_in * cfg.expansion;
    let (ho, wo) = cfg.out_hw();
    let mut x = g.add(
        OpKind::Conv2d {
            batch: cfg.batch,
            h: cfg.h,
            w: cfg.w,
            c_in: cfg.c_in,
            c_out: c_mid,
            kh: cfg.kernel,
            kw: cfg.kernel,
            stride: cfg.stride,
        },
        &[input],
    );
    x = elementwise(g, cfg.batch * ho * wo * c_mid, cfg.act, x);
    if cfg.se_ratio > 0.0 {
        x = squeeze_excite(g, cfg, c_mid, x);
    }
    x = g.add(
        OpKind::Conv2d {
            batch: cfg.batch,
            h: ho,
            w: wo,
            c_in: c_mid,
            c_out: cfg.c_out,
            kh: 1,
            kw: 1,
            stride: 1,
        },
        &[x],
    );
    if cfg.stride == 1 && cfg.c_in == cfg.c_out {
        x = g.add(
            OpKind::Elementwise {
                elems: cfg.batch * ho * wo * cfg.c_out,
                ops_per_elem: 1.0,
                label: "residual_add".into(),
            },
            &[x, input],
        );
    }
    x
}

/// Configuration of a transformer encoder block (the ViT search space's
/// unit, Table 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransformerConfig {
    /// Batch size.
    pub batch: usize,
    /// Sequence length (tokens).
    pub seq: usize,
    /// Hidden size (Table 5: multiples of 64 up to 1024).
    pub hidden: usize,
    /// Attention heads.
    pub heads: usize,
    /// FFN inner width (usually 4 × hidden).
    pub ffn: usize,
    /// FFN activation.
    pub act: ActDesc,
    /// Low-rank factor on the attention projections in (0, 1]; 1.0 = full
    /// rank (Table 5's "Low rank" dimension).
    pub low_rank: f64,
    /// Primer-style depthwise convolution after the QKV projections
    /// (Table 5's "Primer transformer options").
    pub primer_dconv: bool,
}

/// Builds one multi-head self-attention + FFN transformer block.
/// Returns the output node.
pub fn transformer_block(g: &mut Graph, cfg: &TransformerConfig, input: NodeId) -> NodeId {
    let tokens = cfg.batch * cfg.seq;
    let head_dim = cfg.hidden / cfg.heads.max(1);
    let proj_n = ((cfg.hidden as f64 * cfg.low_rank).round() as usize).max(1);
    // Pre-norm.
    let mut x = g.add(
        OpKind::Elementwise {
            elems: tokens * cfg.hidden,
            ops_per_elem: 4.0,
            label: "layer_norm".into(),
        },
        &[input],
    );
    // QKV projections (possibly low-rank: hidden -> r -> hidden pairs).
    let qkv = if cfg.low_rank < 1.0 {
        let down = g.add(
            OpKind::MatMul {
                m: tokens,
                k: cfg.hidden,
                n: 3 * proj_n,
            },
            &[x],
        );
        g.add(
            OpKind::MatMul {
                m: tokens,
                k: 3 * proj_n,
                n: 3 * cfg.hidden,
            },
            &[down],
        )
    } else {
        g.add(
            OpKind::MatMul {
                m: tokens,
                k: cfg.hidden,
                n: 3 * cfg.hidden,
            },
            &[x],
        )
    };
    x = qkv;
    if cfg.primer_dconv {
        // Primer's depthwise conv over the sequence axis, per channel.
        x = g.add(
            OpKind::DepthwiseConv2d {
                batch: cfg.batch,
                h: cfg.seq,
                w: 1,
                c: 3 * cfg.hidden,
                kh: 3,
                kw: 1,
                stride: 1,
            },
            &[x],
        );
    }
    // Attention scores and weighted values.
    let scores = g.add(
        OpKind::BatchedMatMul {
            batches: cfg.batch * cfg.heads,
            m: cfg.seq,
            k: head_dim,
            n: cfg.seq,
        },
        &[x],
    );
    let softmax = g.add(
        OpKind::Elementwise {
            elems: cfg.batch * cfg.heads * cfg.seq * cfg.seq,
            ops_per_elem: 10.0,
            label: "softmax".into(),
        },
        &[scores],
    );
    let attend = g.add(
        OpKind::BatchedMatMul {
            batches: cfg.batch * cfg.heads,
            m: cfg.seq,
            k: cfg.seq,
            n: head_dim,
        },
        &[softmax],
    );
    let out_proj = g.add(
        OpKind::MatMul {
            m: tokens,
            k: cfg.hidden,
            n: cfg.hidden,
        },
        &[attend],
    );
    let res1 = g.add(
        OpKind::Elementwise {
            elems: tokens * cfg.hidden,
            ops_per_elem: 1.0,
            label: "residual_add".into(),
        },
        &[out_proj, input],
    );
    // FFN.
    let norm2 = g.add(
        OpKind::Elementwise {
            elems: tokens * cfg.hidden,
            ops_per_elem: 4.0,
            label: "layer_norm".into(),
        },
        &[res1],
    );
    let ffn1 = g.add(
        OpKind::MatMul {
            m: tokens,
            k: cfg.hidden,
            n: cfg.ffn,
        },
        &[norm2],
    );
    let act = elementwise(g, tokens * cfg.ffn, cfg.act, ffn1);
    let ffn2 = g.add(
        OpKind::MatMul {
            m: tokens,
            k: cfg.ffn,
            n: cfg.hidden,
        },
        &[act],
    );
    g.add(
        OpKind::Elementwise {
            elems: tokens * cfg.hidden,
            ops_per_elem: 1.0,
            label: "residual_add".into(),
        },
        &[ffn2, res1],
    )
}

/// Builds a plain MLP stack (DLRM bottom/top towers). `layers` yields each
/// layer's output width and low-rank fraction in (0, 1]; `input_width`
/// feeds the first layer. A fraction below 1.0 factorises the layer's
/// matmul into a down/up pair. Returns the output node.
pub fn mlp_stack(
    g: &mut Graph,
    batch: usize,
    input_width: usize,
    layers: impl IntoIterator<Item = (usize, f64)>,
    act: ActDesc,
    input: NodeId,
) -> NodeId {
    let mut x = input;
    let mut k = input_width;
    for (n, rank) in layers {
        if rank < 1.0 {
            let r = ((k.min(n) as f64 * rank).round() as usize).max(1);
            let down = g.add(OpKind::MatMul { m: batch, k, n: r }, &[x]);
            x = g.add(OpKind::MatMul { m: batch, k: r, n }, &[down]);
        } else {
            x = g.add(OpKind::MatMul { m: batch, k, n }, &[x]);
        }
        x = elementwise(g, batch * n, act, x);
        k = n;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::DType;

    #[test]
    fn mbconv_has_fewer_flops_than_fused() {
        let cfg = MbConvConfig::square(56, 64, 1);
        let mut g1 = Graph::new("mbc", DType::Bf16);
        let i1 = g1.add(OpKind::Reshape { elems: 1 }, &[]);
        mbconv(&mut g1, &cfg, i1);
        let mut g2 = Graph::new("fmbc", DType::Bf16);
        let i2 = g2.add(OpKind::Reshape { elems: 1 }, &[]);
        fused_mbconv(&mut g2, &cfg, i2);
        assert!(
            g1.total_flops() < g2.total_flops(),
            "MBConv must have less total compute"
        );
    }

    #[test]
    fn fused_mbconv_has_higher_operational_intensity() {
        // Fig. 4b: fused MBConvs always have better FLOPs/byte.
        for depth in [32usize, 64, 128] {
            let cfg = MbConvConfig::square(56, depth, 1);
            let mut g1 = Graph::new("mbc", DType::Bf16);
            let i1 = g1.add(OpKind::Reshape { elems: 1 }, &[]);
            mbconv(&mut g1, &cfg, i1);
            let mut g2 = Graph::new("fmbc", DType::Bf16);
            let i2 = g2.add(OpKind::Reshape { elems: 1 }, &[]);
            fused_mbconv(&mut g2, &cfg, i2);
            assert!(
                g2.total_cost().operational_intensity() > g1.total_cost().operational_intensity(),
                "depth {depth}"
            );
        }
    }

    #[test]
    fn se_ratio_zero_removes_se_ops() {
        let mut cfg = MbConvConfig::square(14, 32, 1);
        cfg.se_ratio = 0.0;
        let mut g = Graph::new("t", DType::Bf16);
        let i = g.add(OpKind::Reshape { elems: 1 }, &[]);
        mbconv(&mut g, &cfg, i);
        assert!(!g.nodes().iter().any(|n| n.kind.label() == "se_scale"));
    }

    #[test]
    fn residual_only_when_shapes_match() {
        let mut cfg = MbConvConfig::square(14, 32, 1);
        cfg.stride = 2;
        let mut g = Graph::new("t", DType::Bf16);
        let i = g.add(OpKind::Reshape { elems: 1 }, &[]);
        mbconv(&mut g, &cfg, i);
        assert!(!g.nodes().iter().any(|n| n.kind.label() == "residual_add"));
    }

    #[test]
    fn expansion_one_skips_expand_conv() {
        let mut cfg = MbConvConfig::square(14, 32, 1);
        cfg.expansion = 1;
        let mut g = Graph::new("t", DType::Bf16);
        let i = g.add(OpKind::Reshape { elems: 1 }, &[]);
        mbconv(&mut g, &cfg, i);
        let convs = g
            .nodes()
            .iter()
            .filter(|n| n.kind.label() == "conv2d")
            .count();
        assert_eq!(convs, 1, "only the projection conv remains");
    }

    #[test]
    fn transformer_block_flops_scale_with_hidden() {
        let mk = |hidden| {
            let cfg = TransformerConfig {
                batch: 1,
                seq: 196,
                hidden,
                heads: 8,
                ffn: hidden * 4,
                act: ActDesc::GELU,
                low_rank: 1.0,
                primer_dconv: false,
            };
            let mut g = Graph::new("t", DType::Bf16);
            let i = g.add(OpKind::Reshape { elems: 1 }, &[]);
            transformer_block(&mut g, &cfg, i);
            g.total_flops()
        };
        assert!(mk(512) > 3.0 * mk(256));
    }

    #[test]
    fn low_rank_attention_reduces_flops() {
        let mk = |low_rank| {
            let cfg = TransformerConfig {
                batch: 1,
                seq: 196,
                hidden: 512,
                heads: 8,
                ffn: 2048,
                act: ActDesc::GELU,
                low_rank,
                primer_dconv: false,
            };
            let mut g = Graph::new("t", DType::Bf16);
            let i = g.add(OpKind::Reshape { elems: 1 }, &[]);
            transformer_block(&mut g, &cfg, i);
            g.total_flops()
        };
        assert!(mk(0.2) < mk(1.0));
    }

    #[test]
    fn primer_dconv_adds_depthwise_op() {
        let mut cfg = TransformerConfig {
            batch: 1,
            seq: 64,
            hidden: 256,
            heads: 4,
            ffn: 1024,
            act: ActDesc::RELU,
            low_rank: 1.0,
            primer_dconv: false,
        };
        let count = |cfg: &TransformerConfig| {
            let mut g = Graph::new("t", DType::Bf16);
            let i = g.add(OpKind::Reshape { elems: 1 }, &[]);
            transformer_block(&mut g, cfg, i);
            g.nodes()
                .iter()
                .filter(|n| n.kind.label() == "depthwise_conv2d")
                .count()
        };
        assert_eq!(count(&cfg), 0);
        cfg.primer_dconv = true;
        assert_eq!(count(&cfg), 1);
    }

    #[test]
    fn mlp_stack_builds_one_matmul_per_layer_full_rank() {
        let mut g = Graph::new("t", DType::Bf16);
        let i = g.add(OpKind::Reshape { elems: 1 }, &[]);
        mlp_stack(
            &mut g,
            256,
            128,
            [(512, 1.0), (256, 1.0), (1, 1.0)],
            ActDesc::RELU,
            i,
        );
        let matmuls = g
            .nodes()
            .iter()
            .filter(|n| n.kind.label() == "matmul")
            .count();
        assert_eq!(matmuls, 3);
    }

    #[test]
    fn mlp_stack_low_rank_splits_matmuls() {
        let mut g = Graph::new("t", DType::Bf16);
        let i = g.add(OpKind::Reshape { elems: 1 }, &[]);
        mlp_stack(&mut g, 256, 128, [(512, 0.25)], ActDesc::RELU, i);
        let matmuls = g
            .nodes()
            .iter()
            .filter(|n| n.kind.label() == "matmul")
            .count();
        assert_eq!(matmuls, 2);
    }

    #[test]
    fn mlp_stack_low_rank_cuts_flops() {
        let flops = |rank| {
            let mut g = Graph::new("t", DType::Bf16);
            let i = g.add(OpKind::Reshape { elems: 1 }, &[]);
            mlp_stack(&mut g, 1024, 1024, [(1024, rank)], ActDesc::RELU, i);
            g.total_flops()
        };
        assert!(flops(0.2) < 0.5 * flops(1.0));
    }
}
