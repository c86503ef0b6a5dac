//! The vision-transformer / hybrid search space (Table 5, bottom section).
//!
//! A pure transformer space has two multi-layer TFM blocks, each with
//! 17 920 combinations (hidden × low-rank × activation × sequence pooling ×
//! Primer option × layer count) ≈ O(10⁸). The hybrid space prepends a
//! searchable convolutional stem (patch size × initial resolution × two
//! conv blocks), reaching ≈ O(10²¹) — the space CoAtNet-H was found in.

use crate::cnn::{CnnSpace, CnnSpaceConfig, StageBaseline, DECISIONS_PER_BLOCK};
use crate::decision::{ArchSample, Decision, SearchSpace};
use h2o_graph::blocks::{transformer_block, ActDesc, TransformerConfig};
use h2o_graph::{DType, Graph, OpKind};

/// Choice tables for the transformer decisions.
pub mod choices {
    /// Hidden sizes: multiples of 64 up to 1024 (16 choices).
    pub fn hidden(index: usize) -> usize {
        64 * (index + 1)
    }
    /// Number of hidden-size choices.
    pub const HIDDEN_CHOICES: usize = 16;
    /// Low-rank fractions 1/10..=10/10.
    pub fn low_rank(index: usize) -> f64 {
        (index + 1) as f64 / 10.0
    }
    /// Number of low-rank choices.
    pub const LOW_RANK_CHOICES: usize = 10;
    /// Activation choices (Table 5: ReLU, swish, GeLU, Squared ReLU).
    pub const ACTIVATIONS: [super::ActChoice; 4] = [
        super::ActChoice::Relu,
        super::ActChoice::Swish,
        super::ActChoice::Gelu,
        super::ActChoice::SquaredRelu,
    ];
    /// Layer-count deltas.
    pub const DEPTH_DELTAS: [i32; 7] = [-3, -2, -1, 0, 1, 2, 3];
    /// Patch sizes (7 choices, Table 5).
    pub const PATCH_SIZES: [usize; 7] = [4, 7, 8, 14, 16, 28, 32];
    /// Hybrid initial resolutions: 112..448 in 21 steps (Table 5).
    pub fn hybrid_resolution(index: usize) -> usize {
        112 + index * 16
    }
    /// Number of hybrid resolution choices.
    pub const HYBRID_RESOLUTIONS: usize = 21;
}

/// Searchable activation for transformer blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActChoice {
    /// `max(0, x)`.
    Relu,
    /// SiLU.
    Swish,
    /// GELU.
    Gelu,
    /// The Primer/CoAtNet-H activation.
    SquaredRelu,
}

impl ActChoice {
    /// Graph-level activation descriptor.
    pub fn desc(self) -> ActDesc {
        match self {
            ActChoice::Relu => ActDesc::RELU,
            ActChoice::Swish => ActDesc::SWISH,
            ActChoice::Gelu => ActDesc::GELU,
            ActChoice::SquaredRelu => ActDesc::SQUARED_RELU,
        }
    }
}

/// Decoded architecture of one multi-layer transformer block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TfmBlockArch {
    /// Hidden size.
    pub hidden: usize,
    /// Low-rank fraction on attention projections.
    pub low_rank: f64,
    /// FFN activation.
    pub act: ActChoice,
    /// Sequence pooling after the block (halves token count).
    pub seq_pool: bool,
    /// Primer depthwise-conv option.
    pub primer: bool,
    /// Number of layers.
    pub layers: usize,
}

/// Baseline for one transformer block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TfmBlockBaseline {
    /// Baseline layer count.
    pub layers: usize,
}

/// Configuration of the (pure or hybrid) transformer space.
#[derive(Debug, Clone, PartialEq)]
pub struct VitSpaceConfig {
    /// Baselines for the transformer blocks (the paper uses 2).
    pub tfm_blocks: Vec<TfmBlockBaseline>,
    /// Convolutional stem baselines; empty = pure transformer space.
    pub conv_blocks: Vec<StageBaseline>,
    /// Attention heads (head dim stays 64: heads = hidden / 64).
    pub head_dim: usize,
}

impl VitSpaceConfig {
    /// The paper's pure transformer space: 2 TFM blocks, no conv stem.
    pub fn pure() -> Self {
        Self {
            tfm_blocks: vec![
                TfmBlockBaseline { layers: 6 },
                TfmBlockBaseline { layers: 6 },
            ],
            conv_blocks: vec![],
            head_dim: 64,
        }
    }

    /// The paper's hybrid ViT space: 2 conv blocks + 2 TFM blocks.
    pub fn hybrid() -> Self {
        Self {
            tfm_blocks: vec![
                TfmBlockBaseline { layers: 6 },
                TfmBlockBaseline { layers: 6 },
            ],
            conv_blocks: vec![
                StageBaseline {
                    depth: 2,
                    width: 96,
                    stride: 2,
                },
                StageBaseline {
                    depth: 4,
                    width: 192,
                    stride: 2,
                },
            ],
            head_dim: 64,
        }
    }
}

/// A fully decoded (hybrid) vision-transformer architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct VitArch {
    /// Input resolution (square); `None` for pure transformer spaces, which
    /// take a fixed token sequence instead.
    pub resolution: Option<usize>,
    /// Patch size for tokenisation (hybrid only).
    pub patch: Option<usize>,
    /// Convolutional stem (hybrid only).
    pub conv_blocks: Vec<crate::cnn::CnnBlockArch>,
    /// Transformer blocks.
    pub tfm_blocks: Vec<TfmBlockArch>,
    /// Attention head dimension.
    pub head_dim: usize,
}

/// The transformer / hybrid-ViT search space builder/decoder.
#[derive(Debug, Clone)]
pub struct VitSpace {
    config: VitSpaceConfig,
    space: SearchSpace,
    conv_space: Option<CnnSpace>,
}

/// Decisions per transformer block.
pub const DECISIONS_PER_TFM_BLOCK: usize = 6;

impl VitSpace {
    /// Builds the decision list. Order: per-TFM-block decisions, then (for
    /// hybrid spaces) per-conv-block decisions, patch size and resolution.
    pub fn new(config: VitSpaceConfig) -> Self {
        let mut space = SearchSpace::new(if config.conv_blocks.is_empty() {
            "transformer"
        } else {
            "hybrid_vit"
        });
        for (i, _) in config.tfm_blocks.iter().enumerate() {
            space.push(Decision::new(
                format!("tfm{i}/hidden"),
                choices::HIDDEN_CHOICES,
            ));
            space.push(Decision::new(
                format!("tfm{i}/low_rank"),
                choices::LOW_RANK_CHOICES,
            ));
            space.push(Decision::new(
                format!("tfm{i}/activation"),
                choices::ACTIVATIONS.len(),
            ));
            space.push(Decision::new(format!("tfm{i}/seq_pool"), 2));
            space.push(Decision::new(format!("tfm{i}/primer"), 2));
            space.push(Decision::new(
                format!("tfm{i}/layers"),
                choices::DEPTH_DELTAS.len(),
            ));
        }
        let conv_space = if config.conv_blocks.is_empty() {
            None
        } else {
            let cnn = CnnSpace::new(CnnSpaceConfig {
                stages: config.conv_blocks.clone(),
                width_increment: 8,
                stem_width: 64,
            });
            for d in cnn.space().decisions() {
                // Skip the CNN space's own resolution decision; the hybrid
                // space has its own 21-way resolution choice below.
                if d.name == "resolution" {
                    continue;
                }
                space.push(Decision::new(format!("conv/{}", d.name), d.choices));
            }
            space.push(Decision::new("patch", choices::PATCH_SIZES.len()));
            space.push(Decision::new("resolution", choices::HYBRID_RESOLUTIONS));
            Some(cnn)
        };
        Self {
            config,
            space,
            conv_space,
        }
    }

    /// The underlying categorical space.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// The baseline configuration.
    pub fn config(&self) -> &VitSpaceConfig {
        &self.config
    }

    /// Decodes a sample into a concrete architecture.
    ///
    /// # Panics
    ///
    /// Panics if the sample is invalid for this space.
    pub fn decode(&self, sample: &ArchSample) -> VitArch {
        #[expect(
            clippy::expect_used,
            reason = "documented `# Panics` contract; samples come from this space"
        )]
        self.space.validate(sample).expect("invalid sample");
        let mut tfm_blocks = Vec::with_capacity(self.config.tfm_blocks.len());
        for (i, base) in self.config.tfm_blocks.iter().enumerate() {
            let s = &sample[i * DECISIONS_PER_TFM_BLOCK..(i + 1) * DECISIONS_PER_TFM_BLOCK];
            tfm_blocks.push(TfmBlockArch {
                hidden: choices::hidden(s[0]),
                low_rank: choices::low_rank(s[1]),
                act: choices::ACTIVATIONS[s[2]],
                seq_pool: s[3] == 1,
                primer: s[4] == 1,
                layers: (base.layers as i32 + choices::DEPTH_DELTAS[s[5]]).max(1) as usize,
            });
        }
        let (conv_blocks, patch, resolution) = if let Some(cnn) = &self.conv_space {
            let offset = self.config.tfm_blocks.len() * DECISIONS_PER_TFM_BLOCK;
            let n_conv_dec = self.config.conv_blocks.len() * DECISIONS_PER_BLOCK;
            let mut cnn_sample: ArchSample = sample[offset..offset + n_conv_dec].to_vec();
            cnn_sample.push(0); // dummy resolution for the inner CNN decoder
            let conv_arch = cnn.decode(&cnn_sample);
            let patch = choices::PATCH_SIZES[sample[offset + n_conv_dec]];
            let resolution = choices::hybrid_resolution(sample[offset + n_conv_dec + 1]);
            (conv_arch.blocks, Some(patch), Some(resolution))
        } else {
            (vec![], None, None)
        };
        VitArch {
            resolution,
            patch,
            conv_blocks,
            tfm_blocks,
            head_dim: self.config.head_dim,
        }
    }
}

impl VitArch {
    /// Builds the inference graph at a batch size. Pure-transformer archs
    /// use `default_seq` tokens; hybrid archs derive the sequence from
    /// resolution, conv-stem strides and patch size.
    pub fn build_graph(&self, batch: usize, default_seq: usize) -> Graph {
        let mut g = Graph::new("vit", DType::Bf16);
        let mut seq;
        let mut x;
        if let (Some(res), Some(patch)) = (self.resolution, self.patch) {
            let input = g.add(
                OpKind::Reshape {
                    elems: batch * res * res * 3,
                },
                &[],
            );
            let mut hw = res;
            let mut c_in = 3;
            x = input;
            for block in &self.conv_blocks {
                for layer in 0..block.depth {
                    let stride = if layer == 0 { block.stride } else { 1 };
                    let cfg = h2o_graph::blocks::MbConvConfig {
                        batch,
                        h: hw,
                        w: hw,
                        c_in,
                        c_out: block.width,
                        expansion: block.expansion,
                        kernel: block.kernel,
                        stride,
                        se_ratio: block.se_ratio,
                        act: if block.swish {
                            ActDesc::SWISH
                        } else {
                            ActDesc::RELU
                        },
                    };
                    x = match block.block_type {
                        crate::cnn::BlockType::MbConv => h2o_graph::blocks::mbconv(&mut g, &cfg, x),
                        crate::cnn::BlockType::FusedMbConv => {
                            h2o_graph::blocks::fused_mbconv(&mut g, &cfg, x)
                        }
                    };
                    hw = hw.div_ceil(stride);
                    c_in = block.width;
                }
            }
            // Patchify what remains of the feature map into tokens.
            let eff_patch = patch.min(hw).max(1);
            seq = (hw / eff_patch).max(1).pow(2);
            let first_hidden = self.tfm_blocks.first().map(|b| b.hidden).unwrap_or(256);
            x = g.add(
                OpKind::MatMul {
                    m: batch * seq,
                    k: c_in * eff_patch * eff_patch,
                    n: first_hidden,
                },
                &[x],
            );
        } else {
            seq = default_seq;
            let first_hidden = self.tfm_blocks.first().map(|b| b.hidden).unwrap_or(256);
            x = g.add(
                OpKind::Reshape {
                    elems: batch * seq * first_hidden,
                },
                &[],
            );
        }
        let mut prev_hidden = self.tfm_blocks.first().map(|b| b.hidden).unwrap_or(256);
        for block in &self.tfm_blocks {
            if block.hidden != prev_hidden {
                // Projection between blocks of different hidden size.
                x = g.add(
                    OpKind::MatMul {
                        m: batch * seq,
                        k: prev_hidden,
                        n: block.hidden,
                    },
                    &[x],
                );
            }
            let cfg = TransformerConfig {
                batch,
                seq,
                hidden: block.hidden,
                heads: (block.hidden / self.head_dim).max(1),
                ffn: block.hidden * 4,
                act: block.act.desc(),
                low_rank: block.low_rank,
                primer_dconv: block.primer,
            };
            for _ in 0..block.layers {
                x = transformer_block(&mut g, &cfg, x);
            }
            if block.seq_pool {
                seq = (seq / 2).max(1);
                x = g.add(
                    OpKind::Pool {
                        batch,
                        h: seq * 2,
                        w: 1,
                        c: block.hidden,
                        window: 2,
                    },
                    &[x],
                );
            }
            prev_hidden = block.hidden;
        }
        // Classification head.
        let pooled = g.add(
            OpKind::Pool {
                batch,
                h: seq,
                w: 1,
                c: prev_hidden,
                window: seq.max(1),
            },
            &[x],
        );
        g.add(
            OpKind::MatMul {
                m: batch,
                k: prev_hidden,
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

    #[test]
    fn pure_space_size_is_o_10_8() {
        let s = VitSpace::new(VitSpaceConfig::pure());
        let log = s.space().log10_size();
        assert!((8.0..9.0).contains(&log), "log10 size {log}");
    }

    #[test]
    fn per_block_choice_product_is_17920() {
        let s = VitSpace::new(VitSpaceConfig::pure());
        let per_block: f64 = s
            .space()
            .decisions()
            .iter()
            .take(DECISIONS_PER_TFM_BLOCK)
            .map(|d| d.choices as f64)
            .product();
        assert_eq!(per_block, 17_920.0);
    }

    #[test]
    fn hybrid_space_size_is_o_10_21() {
        let s = VitSpace::new(VitSpaceConfig::hybrid());
        let log = s.space().log10_size();
        assert!((21.0..23.0).contains(&log), "log10 size {log}");
    }

    #[test]
    fn decode_maps_hidden_sizes() {
        let s = VitSpace::new(VitSpaceConfig::pure());
        let mut sample = s.space().baseline_sample();
        sample[0] = 7; // hidden = 64 * 8 = 512
        let arch = s.decode(&sample);
        assert_eq!(arch.tfm_blocks[0].hidden, 512);
    }

    #[test]
    fn random_pure_samples_build_valid_graphs() {
        let s = VitSpace::new(VitSpaceConfig::pure());
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..5 {
            let arch = s.decode(&s.space().sample_uniform(&mut rng));
            let g = arch.build_graph(4, 196);
            assert!(g.total_flops() > 0.0);
        }
    }

    #[test]
    fn random_hybrid_samples_build_valid_graphs() {
        let s = VitSpace::new(VitSpaceConfig::hybrid());
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..5 {
            let arch = s.decode(&s.space().sample_uniform(&mut rng));
            assert!(arch.resolution.is_some());
            let g = arch.build_graph(2, 196);
            assert!(g.total_flops() > 0.0);
        }
    }

    #[test]
    fn seq_pool_reduces_flops() {
        let s = VitSpace::new(VitSpaceConfig::pure());
        let mut no_pool = s.space().baseline_sample();
        for b in 0..2 {
            no_pool[b * DECISIONS_PER_TFM_BLOCK] = 5; // hidden 384
            no_pool[b * DECISIONS_PER_TFM_BLOCK + 1] = 9; // full rank
            no_pool[b * DECISIONS_PER_TFM_BLOCK + 5] = 3; // depth delta 0
        }
        let mut pool = no_pool.clone();
        pool[3] = 1; // pool after block 0
        let f_no = s.decode(&no_pool).build_graph(1, 196).total_flops();
        let f_pool = s.decode(&pool).build_graph(1, 196).total_flops();
        assert!(f_pool < f_no);
    }

    #[test]
    fn squared_relu_cheaper_than_gelu_in_graph() {
        let s = VitSpace::new(VitSpaceConfig::pure());
        let mut gelu = s.space().baseline_sample();
        for b in 0..2 {
            gelu[b * DECISIONS_PER_TFM_BLOCK + 2] = 2; // gelu
        }
        let mut sq = gelu.clone();
        for b in 0..2 {
            sq[b * DECISIONS_PER_TFM_BLOCK + 2] = 3; // squared relu
        }
        let vpu_of =
            |sample: &Vec<usize>| s.decode(sample).build_graph(1, 196).total_cost().vpu_ops;
        assert!(vpu_of(&sq) < vpu_of(&gelu));
    }

    #[test]
    fn hybrid_resolution_choices_span_112_to_448() {
        assert_eq!(choices::hybrid_resolution(0), 112);
        assert_eq!(
            choices::hybrid_resolution(choices::HYBRID_RESOLUTIONS - 1),
            432
        );
    }
}
