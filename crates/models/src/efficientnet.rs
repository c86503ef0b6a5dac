//! The EfficientNet-X baseline family and the H2O-NAS-designed
//! EfficientNet-H family (§7.1.3, Table 4).
//!
//! EfficientNet-X (B0–B7) is already a NAS-optimised family, so H2O-NAS
//! finds smaller gains here: **B0–B4 are unchanged**, while B5–B7 swap the
//! uniform expansion factor 6 for a mixture of 4 and 6 inside the dynamic
//! fused MBConv blocks — about 15 % average speedup for the big models and
//! ~6 % family-wide (Table 4).

use h2o_graph::blocks::{fused_mbconv, mbconv, ActDesc, MbConvConfig};
use h2o_graph::{DType, Graph, OpKind};

/// One stage of the EfficientNet backbone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ENetStage {
    /// Layers in the stage (before depth scaling).
    pub depth: usize,
    /// Output channels (before width scaling).
    pub width: usize,
    /// First-layer stride.
    pub stride: usize,
    /// Kernel size.
    pub kernel: usize,
    /// Expansion ratio.
    pub expansion: usize,
    /// Fused (dense) or classic MBConv.
    pub fused: bool,
}

/// A concrete EfficientNet-style architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct EfficientNet {
    /// Variant name, e.g. `"EfficientNet-X-B5"`.
    pub name: String,
    /// Input resolution.
    pub resolution: usize,
    /// Scaled stages.
    pub stages: Vec<ENetStage>,
    /// Stem channels.
    pub stem_width: usize,
}

/// B0 baseline stages (EfficientNet-X flavour: early stages fused for
/// datacenter accelerators, per the EfficientNet-X design).
fn b0_stages() -> Vec<ENetStage> {
    vec![
        ENetStage {
            depth: 1,
            width: 16,
            stride: 1,
            kernel: 3,
            expansion: 1,
            fused: true,
        },
        ENetStage {
            depth: 2,
            width: 24,
            stride: 2,
            kernel: 3,
            expansion: 6,
            fused: true,
        },
        ENetStage {
            depth: 2,
            width: 40,
            stride: 2,
            kernel: 5,
            expansion: 6,
            fused: true,
        },
        ENetStage {
            depth: 3,
            width: 80,
            stride: 2,
            kernel: 3,
            expansion: 6,
            fused: false,
        },
        ENetStage {
            depth: 3,
            width: 112,
            stride: 1,
            kernel: 5,
            expansion: 6,
            fused: false,
        },
        ENetStage {
            depth: 4,
            width: 192,
            stride: 2,
            kernel: 5,
            expansion: 6,
            fused: false,
        },
        ENetStage {
            depth: 1,
            width: 320,
            stride: 1,
            kernel: 3,
            expansion: 6,
            fused: false,
        },
    ]
}

/// Compound-scaling coefficients per variant: (width ×, depth ×, resolution).
const SCALING: [(f64, f64, usize); 8] = [
    (1.0, 1.0, 224), // B0
    (1.0, 1.1, 240), // B1
    (1.1, 1.2, 260), // B2
    (1.2, 1.4, 300), // B3
    (1.4, 1.8, 380), // B4
    (1.6, 2.2, 456), // B5
    (1.8, 2.6, 528), // B6
    (2.0, 3.1, 600), // B7
];

fn round_channels(c: f64) -> usize {
    ((c / 8.0).round() as usize * 8).max(8)
}

impl EfficientNet {
    /// The baseline EfficientNet-X family, B0–B7.
    pub fn x_family() -> Vec<EfficientNet> {
        (0..8)
            .map(|i| Self::scaled(&format!("EfficientNet-X-B{i}"), i, false))
            .collect()
    }

    /// The H2O-NAS EfficientNet-H family: identical B0–B4; B5–B7 use the
    /// searched 4/6 expansion mixture (§7.1.3).
    pub fn h_family() -> Vec<EfficientNet> {
        (0..8)
            .map(|i| Self::scaled(&format!("EfficientNet-H-B{i}"), i, i >= 5))
            .collect()
    }

    fn scaled(name: &str, variant: usize, expansion_mix: bool) -> Self {
        let (w, d, res) = SCALING[variant];
        let stages = b0_stages()
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                let mut expansion = s.expansion;
                if expansion_mix && s.expansion == 6 && i % 2 == 0 {
                    // The paper: "changes on the expansion factors ... from
                    // uniformly 6 to a mixture of 4 and 6".
                    expansion = 4;
                }
                ENetStage {
                    depth: ((s.depth as f64 * d).ceil() as usize).max(1),
                    width: round_channels(s.width as f64 * w),
                    expansion,
                    ..s
                }
            })
            .collect();
        Self {
            name: name.to_string(),
            resolution: res,
            stages,
            stem_width: round_channels(32.0 * w),
        }
    }

    /// Builds the forward graph at a batch size.
    pub fn build_graph(&self, batch: usize) -> Graph {
        let mut g = Graph::new(self.name.clone(), DType::Bf16);
        let res = self.resolution;
        let input = g.add(
            OpKind::Reshape {
                elems: batch * res * res * 3,
            },
            &[],
        );
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
        for stage in &self.stages {
            for layer in 0..stage.depth {
                let stride = if layer == 0 { stage.stride } else { 1 };
                let cfg = MbConvConfig {
                    batch,
                    h: hw,
                    w: hw,
                    c_in,
                    c_out: stage.width,
                    expansion: stage.expansion,
                    kernel: stage.kernel,
                    stride,
                    se_ratio: 0.25,
                    act: ActDesc::SWISH,
                };
                x = if stage.fused {
                    fused_mbconv(&mut g, &cfg, x)
                } else {
                    mbconv(&mut g, &cfg, x)
                };
                hw = hw.div_ceil(stride);
                c_in = stage.width;
            }
        }
        let head_width = round_channels(c_in as f64 * 4.0);
        x = g.add(
            OpKind::Conv2d {
                batch,
                h: hw,
                w: hw,
                c_in,
                c_out: head_width,
                kh: 1,
                kw: 1,
                stride: 1,
            },
            &[x],
        );
        let pooled = g.add(
            OpKind::Pool {
                batch,
                h: hw,
                w: hw,
                c: head_width,
                window: hw.max(1),
            },
            &[x],
        );
        g.add(
            OpKind::MatMul {
                m: batch,
                k: head_width,
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
    fn family_spans_table2_ranges() {
        let fam = EfficientNet::x_family();
        let p0 = fam[0].params_m();
        let p7 = fam[7].params_m();
        assert!((3.0..20.0).contains(&p0), "B0 params {p0}M (paper 7.6M)");
        assert!((80.0..400.0).contains(&p7), "B7 params {p7}M (paper 199M)");
        let f0 = fam[0].flops_b();
        let f7 = fam[7].flops_b();
        assert!((0.5..6.0).contains(&f0), "B0 FLOPs {f0}B (paper 1.8B)");
        assert!((60.0..400.0).contains(&f7), "B7 FLOPs {f7}B (paper 186B)");
    }

    #[test]
    fn families_identical_below_b5() {
        let x = EfficientNet::x_family();
        let h = EfficientNet::h_family();
        for i in 0..5 {
            assert_eq!(x[i].stages, h[i].stages, "B{i} must be unchanged");
        }
    }

    #[test]
    fn b5_to_b7_use_expansion_mixture() {
        let h = EfficientNet::h_family();
        for m in h.iter().skip(5) {
            let expansions: Vec<usize> = m.stages.iter().map(|s| s.expansion).collect();
            assert!(expansions.contains(&4), "{}: {expansions:?}", m.name);
            assert!(expansions.contains(&6), "{}: {expansions:?}", m.name);
        }
    }

    #[test]
    fn h_variants_have_fewer_flops_at_b5_plus() {
        let x = EfficientNet::x_family();
        let h = EfficientNet::h_family();
        for i in 5..8 {
            assert!(h[i].flops_b() < x[i].flops_b(), "B{i}");
        }
    }

    #[test]
    fn params_grow_monotonically() {
        let params: Vec<f64> = EfficientNet::x_family()
            .iter()
            .map(|m| m.params_m())
            .collect();
        assert!(params.windows(2).all(|w| w[0] < w[1]), "{params:?}");
    }

    #[test]
    fn early_stages_are_fused() {
        let b0 = &EfficientNet::x_family()[0];
        assert!(b0.stages[1].fused && !b0.stages[5].fused);
    }
}
