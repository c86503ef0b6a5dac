//! The CoAtNet baseline family and the H2O-NAS-designed CoAtNet-H family
//! (§7.1.1, Table 3, Figs. 6 and 7).
//!
//! CoAtNet is a hybrid network: two MBConv stages followed by two
//! transformer stages. The H2O-NAS redesign (CoAtNet-H) applies three
//! changes the paper ablates in Table 3:
//!
//! 1. **Deeper convolution** (12 → 16 conv layers): +quality, −throughput.
//! 2. **Resolution shrink** (224 → 160 for pre-training): −53 % FLOPs,
//!    −quality.
//! 3. **Squared ReLU** in the transformer FFNs: +quality at ~no cost.
//!
//! Net effect: neutral accuracy at ~1.8× the training throughput, with the
//! counter-intuitive hardware behaviour analysed in Fig. 7 (lower achieved
//! FLOPS yet much faster, more CMEM traffic yet less power).

use h2o_graph::blocks::{mbconv, transformer_block, ActDesc, MbConvConfig, TransformerConfig};
use h2o_graph::{DType, Graph, OpKind};

/// A concrete CoAtNet-style hybrid architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct CoAtNet {
    /// Variant name, e.g. `"CoAtNet-5"` or `"CoAtNet-H5"`.
    pub name: String,
    /// Input resolution (square).
    pub resolution: usize,
    /// Stem output channels.
    pub stem_width: usize,
    /// Channels of the two MBConv stages.
    pub conv_widths: [usize; 2],
    /// Layer counts of the two MBConv stages.
    pub conv_depths: [usize; 2],
    /// Hidden sizes of the two transformer stages.
    pub tfm_hidden: [usize; 2],
    /// Layer counts of the two transformer stages.
    pub tfm_depths: [usize; 2],
    /// FFN activation of the transformer stages.
    pub ffn_act: FfnAct,
}

/// Transformer FFN activation — the Table 3 ablation knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FfnAct {
    /// Baseline CoAtNet activation.
    Gelu,
    /// Pre-Squared-ReLU ablation step (Table 3 swaps ReLU → Squared ReLU).
    Relu,
    /// The CoAtNet-H activation.
    SquaredRelu,
}

impl FfnAct {
    fn desc(self) -> ActDesc {
        match self {
            FfnAct::Gelu => ActDesc::GELU,
            FfnAct::Relu => ActDesc::RELU,
            FfnAct::SquaredRelu => ActDesc::SQUARED_RELU,
        }
    }
}

impl CoAtNet {
    /// The baseline family C0..C5 (sizes chosen to land on Table 2's
    /// 25 M–688 M parameter range, with C5 matching Table 3's 688 M /
    /// ~1012 B FLOPs).
    pub fn family() -> Vec<CoAtNet> {
        vec![
            Self::variant(
                "CoAtNet-0",
                [96, 192],
                [2, 3],
                [384, 768],
                [5, 2],
                224,
                FfnAct::Gelu,
            ),
            Self::variant(
                "CoAtNet-1",
                [96, 192],
                [2, 6],
                [384, 768],
                [14, 2],
                224,
                FfnAct::Gelu,
            ),
            Self::variant(
                "CoAtNet-2",
                [128, 256],
                [2, 6],
                [512, 1024],
                [14, 2],
                224,
                FfnAct::Gelu,
            ),
            Self::variant(
                "CoAtNet-3",
                [192, 384],
                [2, 6],
                [768, 1536],
                [14, 2],
                224,
                FfnAct::Gelu,
            ),
            Self::variant(
                "CoAtNet-4",
                [192, 384],
                [2, 12],
                [768, 1536],
                [28, 2],
                224,
                FfnAct::Gelu,
            ),
            Self::variant(
                "CoAtNet-5",
                [256, 512],
                [2, 12],
                [1280, 2048],
                [28, 2],
                224,
                FfnAct::Gelu,
            ),
        ]
    }

    /// The H2O-NAS family: deeper convolution (+4 conv layers), resolution
    /// shrink (224 → 160) and Squared-ReLU FFNs, applied to each baseline.
    pub fn h_family() -> Vec<CoAtNet> {
        Self::family()
            .into_iter()
            .map(|mut m| {
                m.name = m.name.replace("CoAtNet-", "CoAtNet-H");
                m.conv_depths[1] += (m.conv_depths[1] / 3).max(1);
                m.resolution = 160;
                m.ffn_act = FfnAct::SquaredRelu;
                m
            })
            .collect()
    }

    /// One variant by explicit dimensions.
    pub fn variant(
        name: &str,
        conv_widths: [usize; 2],
        conv_depths: [usize; 2],
        tfm_hidden: [usize; 2],
        tfm_depths: [usize; 2],
        resolution: usize,
        ffn_act: FfnAct,
    ) -> Self {
        Self {
            name: name.to_string(),
            resolution,
            stem_width: 64,
            conv_widths,
            conv_depths,
            tfm_hidden,
            tfm_depths,
            ffn_act,
        }
    }

    /// The Table 3 ablation ladder: baseline C5, +DeeperConv, +ResShrink,
    /// +SquaredReLU (= CoAtNet-H5).
    pub fn table3_ablation() -> Vec<CoAtNet> {
        // h2o-lint: allow(panic-hygiene) -- family() returns a fixed non-empty ladder by construction
        let base = Self::family().pop().expect("family non-empty");
        let mut deeper = base.clone();
        deeper.name = "+DeeperConv".to_string();
        deeper.conv_depths[1] += 4;
        let mut shrink = deeper.clone();
        shrink.name = "+ResShrink".to_string();
        shrink.resolution = 160;
        let mut sq = shrink.clone();
        sq.name = "+SquaredReLU (CoAtNet-H5)".to_string();
        sq.ffn_act = FfnAct::SquaredRelu;
        vec![base, deeper, shrink, sq]
    }

    /// Total convolutional layer count (the Table 3 "convolution part").
    pub fn conv_layers(&self) -> usize {
        self.conv_depths.iter().sum()
    }

    /// Builds the forward graph at a batch size.
    ///
    /// Stage schedule (strides): stem /2 → S1 /2 → S2 /2 → tokens at
    /// resolution/8 → T1 (pool /2 between stages) → T2.
    pub fn build_graph(&self, batch: usize) -> Graph {
        let mut g = Graph::new(self.name.clone(), DType::Bf16);
        let res = self.resolution;
        let input = g.add(
            OpKind::Reshape {
                elems: batch * res * res * 3,
            },
            &[],
        );
        // Stem: two 3×3 convs, the first stride-2.
        let mut hw = res.div_ceil(2);
        let mut x = g.add(
            OpKind::Conv2d {
                batch,
                h: res,
                w: res,
                c_in: 3,
                c_out: self.stem_width,
                kh: 3,
                kw: 3,
                stride: 2,
            },
            &[input],
        );
        let mut c_in = self.stem_width;
        // Two MBConv stages.
        for (s, (&width, &depth)) in self.conv_widths.iter().zip(&self.conv_depths).enumerate() {
            for layer in 0..depth {
                let stride = if layer == 0 { 2 } else { 1 };
                let cfg = MbConvConfig {
                    batch,
                    h: hw,
                    w: hw,
                    c_in,
                    c_out: width,
                    expansion: 4,
                    kernel: 3,
                    stride,
                    se_ratio: 0.25,
                    act: ActDesc::GELU,
                };
                x = mbconv(&mut g, &cfg, x);
                hw = hw.div_ceil(stride);
                c_in = width;
            }
            let _ = s;
        }
        // Tokenise: the remaining feature map becomes the sequence.
        let mut seq = hw * hw;
        let mut hidden = self.tfm_hidden[0];
        x = g.add(
            OpKind::MatMul {
                m: batch * seq,
                k: c_in,
                n: hidden,
            },
            &[x],
        );
        for (s, (&h, &depth)) in self.tfm_hidden.iter().zip(&self.tfm_depths).enumerate() {
            if s > 0 {
                // Downsample between transformer stages: pool /2 spatially
                // (seq /4) and project to the new hidden size.
                seq = (seq / 4).max(1);
                x = g.add(
                    OpKind::Pool {
                        batch,
                        h: seq * 4,
                        w: 1,
                        c: hidden,
                        window: 2,
                    },
                    &[x],
                );
                x = g.add(
                    OpKind::MatMul {
                        m: batch * seq,
                        k: hidden,
                        n: h,
                    },
                    &[x],
                );
                hidden = h;
            }
            let cfg = TransformerConfig {
                batch,
                seq,
                hidden: h,
                heads: (h / 64).max(1),
                ffn: h * 4,
                act: self.ffn_act.desc(),
                low_rank: 1.0,
                primer_dconv: false,
            };
            for _ in 0..depth {
                x = transformer_block(&mut g, &cfg, x);
            }
        }
        let pooled = g.add(
            OpKind::Pool {
                batch,
                h: seq,
                w: 1,
                c: hidden,
                window: seq.max(1),
            },
            &[x],
        );
        g.add(
            OpKind::MatMul {
                m: batch,
                k: hidden,
                n: 1000,
            },
            &[pooled],
        );
        g.fuse_elementwise();
        g
    }

    /// Parameter count in millions.
    pub fn params_m(&self) -> f64 {
        self.build_graph(1).param_count() / 1e6
    }

    /// Per-image forward FLOPs in billions.
    pub fn flops_b(&self) -> f64 {
        self.build_graph(1).total_flops() / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_spans_table2_parameter_range() {
        let family = CoAtNet::family();
        let p0 = family.first().unwrap().params_m();
        let p5 = family.last().unwrap().params_m();
        assert!((15.0..60.0).contains(&p0), "C0 params {p0}M");
        assert!((500.0..900.0).contains(&p5), "C5 params {p5}M");
        // Monotone growth.
        let params: Vec<f64> = family.iter().map(CoAtNet::params_m).collect();
        assert!(params.windows(2).all(|w| w[0] < w[1]), "{params:?}");
    }

    #[test]
    fn c5_flops_near_table3() {
        let c5 = CoAtNet::family().pop().unwrap();
        let f = c5.flops_b();
        assert!((600.0..1500.0).contains(&f), "C5 FLOPs {f}B vs paper 1012B");
    }

    #[test]
    fn ablation_ladder_matches_table3_shape() {
        let ladder = CoAtNet::table3_ablation();
        assert_eq!(ladder.len(), 4);
        let params: Vec<f64> = ladder.iter().map(CoAtNet::params_m).collect();
        let flops: Vec<f64> = ladder.iter().map(CoAtNet::flops_b).collect();
        // +DeeperConv: slightly more params and FLOPs.
        assert!(params[1] > params[0]);
        assert!(flops[1] > flops[0]);
        // +ResShrink: same params, ~53% fewer FLOPs (paper 1060 -> 474).
        assert!((params[2] - params[1]).abs() < 1.0);
        let drop = flops[2] / flops[1];
        assert!(
            (0.35..0.65).contains(&drop),
            "FLOP drop ratio {drop} vs paper ~0.45"
        );
        // +SquaredReLU: ~no FLOP change.
        assert!((flops[3] / flops[2] - 1.0).abs() < 0.05);
    }

    #[test]
    fn h_family_has_fewer_flops_than_baseline() {
        for (h, b) in CoAtNet::h_family().iter().zip(CoAtNet::family().iter()) {
            assert!(h.flops_b() < b.flops_b(), "{} vs {}", h.name, b.name);
            assert!(h.params_m() > b.params_m(), "deeper conv adds params");
        }
    }

    #[test]
    fn squared_relu_reduces_vpu_work() {
        let ladder = CoAtNet::table3_ablation();
        let relu_like = &ladder[2]; // GELU baseline at shrunk res
        let sq = &ladder[3];
        let v_base = relu_like.build_graph(1).total_cost().vpu_ops;
        let v_sq = sq.build_graph(1).total_cost().vpu_ops;
        assert!(v_sq < v_base);
    }

    #[test]
    fn graph_name_carries_variant() {
        let c0 = &CoAtNet::family()[0];
        assert_eq!(c0.build_graph(1).name(), "CoAtNet-0");
    }
}
