//! The hardware-optimized convolutional search space (Table 5, top section).
//!
//! Seven searchable blocks, each with 302 400 combinations (block type ×
//! kernel × stride × expansion × activation × SE ratio × skip × depth ×
//! width × tensor reshaping), plus 8 initial resolutions — ≈ O(10³⁹)
//! candidates. The signature hardware knob is **dynamic fusion**: every
//! block independently chooses MBConv or Fused-MBConv (Fig. 4).

use crate::decision::{ArchSample, Decision, SearchSpace};
use h2o_graph::blocks::{fused_mbconv, mbconv, ActDesc, MbConvConfig};
use h2o_graph::{DType, Graph, OpKind};

/// Searchable block type (Fig. 4a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockType {
    /// Classic inverted bottleneck.
    MbConv,
    /// Expansion and depthwise stages fused into one dense convolution.
    FusedMbConv,
}

/// Searchable tensor-reshaping option (Table 5 "Tensor reshaping").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reshape {
    /// No reformatting.
    None,
    /// Space-to-depth (trades spatial extent for channel depth, improving
    /// MXU tiling for shallow stages).
    SpaceToDepth,
    /// Space-to-batch.
    SpaceToBatch,
}

/// Per-decision choice tables (indexes map sample values to quantities).
pub mod choices {
    /// Kernel sizes.
    pub const KERNELS: [usize; 3] = [3, 5, 7];
    /// Strides (2/4 only honoured in a stage's first layer).
    pub const STRIDES: [usize; 3] = [1, 2, 4];
    /// Expansion ratios.
    pub const EXPANSIONS: [usize; 4] = [1, 3, 4, 6];
    /// Squeeze-and-excite ratios; 0 removes the SE layer.
    pub const SE_RATIOS: [f64; 5] = [0.0, 1.0, 0.5, 0.25, 0.125];
    /// Depth deltas w.r.t. the baseline stage depth.
    pub const DEPTH_DELTAS: [i32; 7] = [-3, -2, -1, 0, 1, 2, 3];
    /// Width deltas (×`width_increment`), excluding zero per Table 5.
    pub const WIDTH_DELTAS: [i32; 10] = [-5, -4, -3, -2, -1, 1, 2, 3, 4, 5];
    /// Input resolutions (8 choices, 224–600).
    pub const RESOLUTIONS: [usize; 8] = [224, 256, 288, 320, 384, 448, 512, 600];
}

/// Baseline (seed) description of one convolutional stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageBaseline {
    /// Layers in the stage.
    pub depth: usize,
    /// Output channels.
    pub width: usize,
    /// First-layer stride.
    pub stride: usize,
}

/// Configuration of the convolutional search space.
#[derive(Debug, Clone, PartialEq)]
pub struct CnnSpaceConfig {
    /// Baseline stages (the paper uses 7 searchable blocks).
    pub stages: Vec<StageBaseline>,
    /// Channel step for width deltas (the model-dependent 𝒳 of Table 5).
    pub width_increment: usize,
    /// Stem output channels.
    pub stem_width: usize,
}

impl Default for CnnSpaceConfig {
    /// An EfficientNet-like 7-stage baseline.
    fn default() -> Self {
        Self {
            stages: vec![
                StageBaseline {
                    depth: 1,
                    width: 16,
                    stride: 1,
                },
                StageBaseline {
                    depth: 2,
                    width: 24,
                    stride: 2,
                },
                StageBaseline {
                    depth: 2,
                    width: 40,
                    stride: 2,
                },
                StageBaseline {
                    depth: 3,
                    width: 80,
                    stride: 2,
                },
                StageBaseline {
                    depth: 3,
                    width: 112,
                    stride: 1,
                },
                StageBaseline {
                    depth: 4,
                    width: 192,
                    stride: 2,
                },
                StageBaseline {
                    depth: 1,
                    width: 320,
                    stride: 1,
                },
            ],
            width_increment: 8,
            stem_width: 32,
        }
    }
}

/// Decoded architecture of one stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CnnBlockArch {
    /// MBConv vs Fused-MBConv.
    pub block_type: BlockType,
    /// Depthwise/fused kernel size.
    pub kernel: usize,
    /// First-layer stride.
    pub stride: usize,
    /// Expansion ratio.
    pub expansion: usize,
    /// Activation (ReLU or swish per Table 5).
    pub swish: bool,
    /// SE ratio (0 = none).
    pub se_ratio: f64,
    /// Identity skip connections enabled.
    pub skip: bool,
    /// Number of layers.
    pub depth: usize,
    /// Output channels.
    pub width: usize,
    /// Tensor reshaping choice.
    pub reshape: Reshape,
}

/// A fully decoded convolutional architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct CnnArch {
    /// Input resolution (square).
    pub resolution: usize,
    /// Stem output channels.
    pub stem_width: usize,
    /// Per-stage architectures.
    pub blocks: Vec<CnnBlockArch>,
}

/// The convolutional search space builder/decoder.
#[derive(Debug, Clone)]
pub struct CnnSpace {
    config: CnnSpaceConfig,
    space: SearchSpace,
}

/// Number of decisions per block.
pub const DECISIONS_PER_BLOCK: usize = 10;

impl CnnSpace {
    /// Builds the decision list for the given baseline.
    pub fn new(config: CnnSpaceConfig) -> Self {
        let mut space = SearchSpace::new("cnn");
        for (i, _) in config.stages.iter().enumerate() {
            space.push(Decision::new(format!("block{i}/type"), 2));
            space.push(Decision::new(
                format!("block{i}/kernel"),
                choices::KERNELS.len(),
            ));
            space.push(Decision::new(
                format!("block{i}/stride"),
                choices::STRIDES.len(),
            ));
            space.push(Decision::new(
                format!("block{i}/expansion"),
                choices::EXPANSIONS.len(),
            ));
            space.push(Decision::new(format!("block{i}/activation"), 2));
            space.push(Decision::new(
                format!("block{i}/se_ratio"),
                choices::SE_RATIOS.len(),
            ));
            space.push(Decision::new(format!("block{i}/skip"), 2));
            space.push(Decision::new(
                format!("block{i}/depth"),
                choices::DEPTH_DELTAS.len(),
            ));
            space.push(Decision::new(
                format!("block{i}/width"),
                choices::WIDTH_DELTAS.len(),
            ));
            space.push(Decision::new(format!("block{i}/reshape"), 3));
        }
        space.push(Decision::new("resolution", choices::RESOLUTIONS.len()));
        Self { config, space }
    }

    /// The underlying categorical space.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// The baseline configuration.
    pub fn config(&self) -> &CnnSpaceConfig {
        &self.config
    }

    /// Decodes a sample into a concrete architecture.
    ///
    /// # Panics
    ///
    /// Panics if the sample is invalid for this space.
    pub fn decode(&self, sample: &ArchSample) -> CnnArch {
        #[expect(
            clippy::expect_used,
            reason = "documented `# Panics` contract; samples come from this space"
        )]
        self.space.validate(sample).expect("invalid sample");
        let mut blocks = Vec::with_capacity(self.config.stages.len());
        for (i, stage) in self.config.stages.iter().enumerate() {
            let s = &sample[i * DECISIONS_PER_BLOCK..(i + 1) * DECISIONS_PER_BLOCK];
            let depth = (stage.depth as i32 + choices::DEPTH_DELTAS[s[7]]).max(1) as usize;
            let width = (stage.width as i32
                + choices::WIDTH_DELTAS[s[8]] * self.config.width_increment as i32)
                .max(8) as usize;
            // Stride choices 2/4 are only allowed in a stage's first layer,
            // which is how the decoder applies them; a baseline stride-1
            // stage keeps stride 1 to preserve the downsampling schedule.
            let stride = if stage.stride == 1 {
                1
            } else {
                choices::STRIDES[s[2]].max(2)
            };
            blocks.push(CnnBlockArch {
                block_type: if s[0] == 0 {
                    BlockType::MbConv
                } else {
                    BlockType::FusedMbConv
                },
                kernel: choices::KERNELS[s[1]],
                stride,
                expansion: choices::EXPANSIONS[s[3]],
                swish: s[4] == 1,
                se_ratio: choices::SE_RATIOS[s[5]],
                skip: s[6] == 1,
                depth,
                width,
                reshape: match s[9] {
                    0 => Reshape::None,
                    1 => Reshape::SpaceToDepth,
                    _ => Reshape::SpaceToBatch,
                },
            });
        }
        let resolution = choices::RESOLUTIONS[sample[sample.len() - 1]];
        CnnArch {
            resolution,
            stem_width: self.config.stem_width,
            blocks,
        }
    }
}

impl CnnArch {
    /// Builds the inference graph of this architecture at a batch size.
    pub fn build_graph(&self, batch: usize) -> Graph {
        let mut g = Graph::new("cnn", DType::Bf16);
        let input = g.add(
            OpKind::Reshape {
                elems: batch * self.resolution * self.resolution * 3,
            },
            &[],
        );
        // Stem: 3×3 stride-2 convolution.
        let mut hw = self.resolution.div_ceil(2);
        let mut x = g.add(
            OpKind::Conv2d {
                batch,
                h: self.resolution,
                w: self.resolution,
                c_in: 3,
                c_out: self.stem_width,
                kh: 3,
                kw: 3,
                stride: 2,
            },
            &[input],
        );
        let mut c_in = self.stem_width;
        for block in &self.blocks {
            if block.reshape != Reshape::None {
                x = g.add(
                    OpKind::Reshape {
                        elems: batch * hw * hw * c_in,
                    },
                    &[x],
                );
            }
            for layer in 0..block.depth {
                let stride = if layer == 0 { block.stride } else { 1 };
                let cfg = MbConvConfig {
                    batch,
                    h: hw,
                    w: hw,
                    c_in,
                    c_out: block.width,
                    expansion: block.expansion,
                    kernel: block.kernel,
                    stride,
                    // `skip` gates identity residuals, which cost ~nothing on
                    // hardware; it matters to the quality surrogate instead.
                    se_ratio: block.se_ratio,
                    act: if block.swish {
                        ActDesc::SWISH
                    } else {
                        ActDesc::RELU
                    },
                };
                x = match block.block_type {
                    BlockType::MbConv => mbconv(&mut g, &cfg, x),
                    BlockType::FusedMbConv => fused_mbconv(&mut g, &cfg, x),
                };
                hw = hw.div_ceil(stride);
                c_in = block.width;
            }
        }
        // Head: global pool + classifier.
        let pooled = g.add(
            OpKind::Pool {
                batch,
                h: hw,
                w: hw,
                c: c_in,
                window: hw.max(1),
            },
            &[x],
        );
        g.add(
            OpKind::MatMul {
                m: batch,
                k: c_in,
                n: 1000,
            },
            &[pooled],
        );
        g.fuse_elementwise();
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> CnnSpace {
        CnnSpace::new(CnnSpaceConfig::default())
    }

    #[test]
    fn table5_size_is_o_10_39() {
        // (302400)^7 * 8 ≈ 10^39
        let log = space().space().log10_size();
        assert!((38.0..40.0).contains(&log), "log10 size {log}");
    }

    #[test]
    fn per_block_choice_product_matches_table5() {
        let s = space();
        let per_block: f64 = s
            .space()
            .decisions()
            .iter()
            .take(DECISIONS_PER_BLOCK)
            .map(|d| d.choices as f64)
            .product();
        assert_eq!(per_block, 302_400.0);
    }

    #[test]
    fn baseline_decodes_to_baseline_depths() {
        let s = space();
        // Choice index 3 in DEPTH_DELTAS is 0; build a sample that keeps
        // every delta-neutral choice.
        let mut sample = s.space().baseline_sample();
        for b in 0..7 {
            sample[b * DECISIONS_PER_BLOCK + 7] = 3; // depth delta 0
        }
        let arch = s.decode(&sample);
        for (block, stage) in arch.blocks.iter().zip(&s.config().stages) {
            assert_eq!(block.depth, stage.depth);
        }
    }

    #[test]
    fn width_delta_never_below_8() {
        let s = space();
        let mut sample = s.space().baseline_sample();
        sample[8] = 0; // -5 × 8 = -40 from a 16-wide stage
        let arch = s.decode(&sample);
        assert_eq!(arch.blocks[0].width, 8);
    }

    #[test]
    fn decode_respects_block_type_and_kernel() {
        let s = space();
        let mut sample = s.space().baseline_sample();
        sample[0] = 1; // fused
        sample[1] = 2; // kernel 7
        let arch = s.decode(&sample);
        assert_eq!(arch.blocks[0].block_type, BlockType::FusedMbConv);
        assert_eq!(arch.blocks[0].kernel, 7);
    }

    #[test]
    fn random_samples_build_valid_graphs() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..5 {
            let sample = s.space().sample_uniform(&mut rng);
            let arch = s.decode(&sample);
            let g = arch.build_graph(8);
            assert!(g.total_flops() > 0.0);
            assert!(g.param_count() > 0.0);
        }
    }

    #[test]
    fn higher_resolution_means_more_flops() {
        let s = space();
        let mut lo = s.space().baseline_sample();
        *lo.last_mut().unwrap() = 0; // 224
        let mut hi = lo.clone();
        *hi.last_mut().unwrap() = 7; // 600
        assert!(
            s.decode(&hi).build_graph(1).total_flops()
                > 2.0 * s.decode(&lo).build_graph(1).total_flops()
        );
    }

    #[test]
    fn stride1_baseline_stages_stay_stride1() {
        let s = space();
        let mut sample = s.space().baseline_sample();
        sample[2] = 2; // request stride 4 in a stride-1 stage
        let arch = s.decode(&sample);
        assert_eq!(arch.blocks[0].stride, 1, "downsampling schedule preserved");
    }

    #[test]
    fn reshape_choice_adds_reshape_node() {
        let s = space();
        let mut sample = s.space().baseline_sample();
        sample[9] = 1; // space-to-depth on block 0
        let g = s.decode(&sample).build_graph(1);
        assert!(g
            .nodes()
            .iter()
            .any(|n| n.kind.label() == "reshape" && n.id.0 > 0));
    }
}
