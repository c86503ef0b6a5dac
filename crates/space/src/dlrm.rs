//! The first DLRM search space for RL-based one-shot NAS (§5.1, Fig. 3,
//! Table 5 middle section).
//!
//! Jointly searches **embedding layers** (width ± 3 steps, vocabulary
//! 50 %–200 % of baseline — 7 choices each) and **MLP layers** (width,
//! low-rank fraction, depth). With the paper's production scale
//! (~150 tables ⇒ ~300 seven-way embedding decisions, ~10 MLP groups) the
//! space holds `7^O(300) · (7·10·10)^O(10) ≈ O(10^282)` candidates.
//!
//! Balancing embedding (memory/network-bound, memorisation) against MLP
//! compute (MXU-bound, generalisation) is exactly the Pareto trade the
//! paper's Fig. 8 demonstrates.

use crate::decision::{ArchSample, Decision, SearchSpace};
use h2o_graph::blocks::{mlp_stack, ActDesc};
use h2o_graph::{DType, Graph, OpKind};

/// Choice tables for the DLRM decisions.
pub mod choices {
    /// Embedding-width deltas (×`width_increment`), Table 5: `[-3, +3]`.
    pub const EMB_WIDTH_DELTAS: [i32; 7] = [-3, -2, -1, 0, 1, 2, 3];
    /// Vocabulary-size multipliers, Table 5: 50 %–200 %.
    pub const VOCAB_SCALES: [f64; 7] = [0.50, 0.75, 1.00, 1.25, 1.50, 1.75, 2.00];
    /// MLP width deltas (×`mlp_width_increment`), excluding zero.
    pub const MLP_WIDTH_DELTAS: [i32; 10] = [-5, -4, -3, -2, -1, 1, 2, 3, 4, 5];
    /// Low-rank fractions 1/10..=10/10 (10/10 = no factorisation).
    pub fn low_rank(index: usize) -> f64 {
        (index + 1) as f64 / 10.0
    }
    /// Number of low-rank choices.
    pub const LOW_RANK_CHOICES: usize = 10;
    /// Depth deltas per MLP group.
    pub const DEPTH_DELTAS: [i32; 7] = [-3, -2, -1, 0, 1, 2, 3];
}

/// Baseline description of one embedding table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableBaseline {
    /// Baseline vocabulary size (rows).
    pub vocab: usize,
    /// Baseline embedding width.
    pub width: usize,
    /// Average ids looked up per example (multi-valued features > 1).
    pub ids_per_example: f64,
}

/// Baseline description of one MLP group (a run of equal-width layers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlpGroupBaseline {
    /// Baseline layer count in the group.
    pub depth: usize,
    /// Baseline layer width.
    pub width: usize,
    /// Whether the group belongs to the bottom (dense-feature) tower;
    /// otherwise it is part of the top tower.
    pub bottom: bool,
}

/// Configuration of the DLRM search space.
#[derive(Debug, Clone, PartialEq)]
pub struct DlrmSpaceConfig {
    /// Embedding-table baselines.
    pub tables: Vec<TableBaseline>,
    /// MLP group baselines (bottom tower groups first).
    pub mlp_groups: Vec<MlpGroupBaseline>,
    /// Dense (continuous) input features.
    pub dense_features: usize,
    /// Embedding width step (the model-dependent 𝒴, minimum increment 8).
    pub emb_width_increment: usize,
    /// MLP width step (the model-dependent 𝒵, minimum increment 8).
    pub mlp_width_increment: usize,
}

impl DlrmSpaceConfig {
    /// A paper-scale production configuration: 150 tables and 10 MLP groups
    /// (≈ O(10²⁸²) candidates, Table 5).
    pub fn production() -> Self {
        let tables = (0..150)
            .map(|i| TableBaseline {
                vocab: 10_000 << (i % 8), // 10k .. 1.28M rows
                width: 32 + 16 * (i % 4), // 32..80
                ids_per_example: if i % 5 == 0 { 8.0 } else { 1.0 },
            })
            .collect();
        let mlp_groups = vec![
            MlpGroupBaseline {
                depth: 2,
                width: 512,
                bottom: true,
            },
            MlpGroupBaseline {
                depth: 2,
                width: 256,
                bottom: true,
            },
            MlpGroupBaseline {
                depth: 2,
                width: 2048,
                bottom: false,
            },
            MlpGroupBaseline {
                depth: 2,
                width: 2048,
                bottom: false,
            },
            MlpGroupBaseline {
                depth: 2,
                width: 1024,
                bottom: false,
            },
            MlpGroupBaseline {
                depth: 2,
                width: 1024,
                bottom: false,
            },
            MlpGroupBaseline {
                depth: 2,
                width: 512,
                bottom: false,
            },
            MlpGroupBaseline {
                depth: 2,
                width: 512,
                bottom: false,
            },
            MlpGroupBaseline {
                depth: 2,
                width: 256,
                bottom: false,
            },
            MlpGroupBaseline {
                depth: 1,
                width: 128,
                bottom: false,
            },
        ];
        Self {
            tables,
            mlp_groups,
            dense_features: 256,
            emb_width_increment: 8,
            mlp_width_increment: 64,
        }
    }

    /// A small configuration for unit tests and the trainable super-network
    /// example (4 tables, 3 groups).
    pub fn tiny() -> Self {
        Self {
            tables: (0..4)
                .map(|i| TableBaseline {
                    vocab: 64 << i,
                    width: 8,
                    ids_per_example: 1.0,
                })
                .collect(),
            mlp_groups: vec![
                MlpGroupBaseline {
                    depth: 1,
                    width: 16,
                    bottom: true,
                },
                MlpGroupBaseline {
                    depth: 2,
                    width: 32,
                    bottom: false,
                },
                MlpGroupBaseline {
                    depth: 1,
                    width: 16,
                    bottom: false,
                },
            ],
            dense_features: 8,
            emb_width_increment: 2,
            mlp_width_increment: 4,
        }
    }
}

/// Decoded embedding-table architecture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableArch {
    /// Vocabulary rows.
    pub vocab: usize,
    /// Embedding width.
    pub width: usize,
    /// Average lookups per example.
    pub ids_per_example: f64,
}

/// Decoded MLP-group architecture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlpGroupArch {
    /// Layers in the group.
    pub depth: usize,
    /// Layer width.
    pub width: usize,
    /// Low-rank fraction (1.0 = dense).
    pub low_rank: f64,
    /// Bottom- vs top-tower membership.
    pub bottom: bool,
}

/// A fully decoded DLRM architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct DlrmArch {
    /// Embedding tables.
    pub tables: Vec<TableArch>,
    /// MLP groups (bottom tower first).
    pub mlp_groups: Vec<MlpGroupArch>,
    /// Dense input features.
    pub dense_features: usize,
}

impl DlrmArch {
    /// Total embedding parameters (the model-size driver, §5.1.1).
    pub fn embedding_params(&self) -> f64 {
        self.tables
            .iter()
            .map(|t| t.vocab as f64 * t.width as f64)
            .sum()
    }

    /// Total MLP parameters.
    pub fn mlp_params(&self) -> f64 {
        let mut params = 0.0;
        let mut prev = self.dense_features as f64;
        for g in self.mlp_groups.iter().filter(|g| g.bottom) {
            for _ in 0..g.depth {
                params += Self::layer_params(prev, g.width as f64, g.low_rank);
                prev = g.width as f64;
            }
        }
        let emb_width: f64 = self.tables.iter().map(|t| t.width as f64).sum();
        let mut prev = prev + emb_width;
        for g in self.mlp_groups.iter().filter(|g| !g.bottom) {
            for _ in 0..g.depth {
                params += Self::layer_params(prev, g.width as f64, g.low_rank);
                prev = g.width as f64;
            }
        }
        params + prev + 1.0 // final sigmoid head
    }

    fn layer_params(n_in: f64, n_out: f64, rank: f64) -> f64 {
        if rank < 1.0 {
            let r = (n_in.min(n_out) * rank).max(1.0);
            n_in * r + r * n_out + n_out
        } else {
            n_in * n_out + n_out
        }
    }

    /// Model size in bytes at fp32 (the serving-memory objective).
    pub fn model_size_bytes(&self) -> f64 {
        (self.embedding_params() + self.mlp_params()) * 4.0
    }

    /// Builds the per-chip training-step graph at `batch` examples per chip
    /// on a `chips`-chip system. Embedding tables are model-parallel
    /// (all-to-all exchange); MLPs are data-parallel. The embedding branch
    /// and bottom MLP run concurrently, so the simulated step time exhibits
    /// the paper's `MAX(embedding time, MLP time)` structure (Fig. 8).
    pub fn build_graph(&self, batch: usize, chips: usize) -> Graph {
        let mut g = Graph::new("dlrm", DType::F32);
        let dense_in = g.add(
            OpKind::Reshape {
                elems: batch * self.dense_features,
            },
            &[],
        );
        // Bottom tower.
        let bottom_groups: Vec<&MlpGroupArch> =
            self.mlp_groups.iter().filter(|m| m.bottom).collect();
        let mut bottom_out = dense_in;
        let mut prev = self.dense_features;
        for group in &bottom_groups {
            let widths = vec![group.width; group.depth];
            let ranks = vec![group.low_rank; group.depth];
            bottom_out = mlp_stack(
                &mut g,
                batch,
                prev,
                &widths,
                &ranks,
                ActDesc::RELU,
                bottom_out,
            );
            prev = group.width;
        }
        // Embedding branch (parallel to the bottom tower). Each chip owns
        // 1/chips of the tables and exchanges results all-to-all.
        let mut emb_nodes = Vec::with_capacity(self.tables.len());
        let mut emb_width_total = 0usize;
        for table in &self.tables {
            let lookups = (batch as f64 * table.ids_per_example).ceil() as usize;
            let node = g.add(
                OpKind::EmbeddingLookup {
                    lookups,
                    width: table.width,
                    vocab: table.vocab,
                },
                &[],
            );
            emb_nodes.push(node);
            emb_width_total += table.width;
        }
        let emb_out = if chips > 1 {
            let bytes = batch as f64 * emb_width_total as f64 * 4.0;
            g.add(
                OpKind::AllToAll {
                    bytes_per_chip: bytes,
                },
                &emb_nodes,
            )
        } else {
            g.add(
                OpKind::Concat {
                    elems: batch * emb_width_total,
                },
                &emb_nodes,
            )
        };
        // Feature interaction: concat(dense tower, embeddings) -> top tower.
        let concat_width = prev + emb_width_total;
        let concat = g.add(
            OpKind::Concat {
                elems: batch * concat_width,
            },
            &[bottom_out, emb_out],
        );
        let mut top_out = concat;
        let mut prev = concat_width;
        for group in self.mlp_groups.iter().filter(|m| !m.bottom) {
            let widths = vec![group.width; group.depth];
            let ranks = vec![group.low_rank; group.depth];
            top_out = mlp_stack(&mut g, batch, prev, &widths, &ranks, ActDesc::RELU, top_out);
            prev = group.width;
        }
        let logits = g.add(
            OpKind::MatMul {
                m: batch,
                k: prev,
                n: 1,
            },
            &[top_out],
        );
        g.add(
            OpKind::Elementwise {
                elems: batch,
                ops_per_elem: 8.0,
                label: "sigmoid".into(),
            },
            &[logits],
        );
        g.fuse_elementwise();
        g
    }
}

/// The DLRM search space builder/decoder.
#[derive(Debug, Clone)]
pub struct DlrmSpace {
    config: DlrmSpaceConfig,
    space: SearchSpace,
}

/// Decisions per embedding table (width + vocabulary).
pub const DECISIONS_PER_TABLE: usize = 2;
/// Decisions per MLP group (depth + width + low-rank).
pub const DECISIONS_PER_GROUP: usize = 3;

impl DlrmSpace {
    /// Builds the decision list: per-table (width, vocab) pairs, then
    /// per-group (depth, width, low-rank) triples.
    pub fn new(config: DlrmSpaceConfig) -> Self {
        let mut space = SearchSpace::new("dlrm");
        for (i, _) in config.tables.iter().enumerate() {
            space.push(Decision::new(
                format!("table{i}/width"),
                choices::EMB_WIDTH_DELTAS.len(),
            ));
            space.push(Decision::new(
                format!("table{i}/vocab"),
                choices::VOCAB_SCALES.len(),
            ));
        }
        for (i, _) in config.mlp_groups.iter().enumerate() {
            space.push(Decision::new(
                format!("mlp{i}/depth"),
                choices::DEPTH_DELTAS.len(),
            ));
            space.push(Decision::new(
                format!("mlp{i}/width"),
                choices::MLP_WIDTH_DELTAS.len(),
            ));
            space.push(Decision::new(
                format!("mlp{i}/low_rank"),
                choices::LOW_RANK_CHOICES,
            ));
        }
        Self { config, space }
    }

    /// The underlying categorical space.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// The baseline configuration.
    pub fn config(&self) -> &DlrmSpaceConfig {
        &self.config
    }

    /// The sample closest to the baseline architecture: neutral embedding
    /// deltas, 100 % vocabulary, full rank, neutral depth. MLP width deltas
    /// exclude zero (Table 5), so the smallest positive step (+1 ×
    /// increment) is used there.
    pub fn baseline(&self) -> ArchSample {
        let mut sample = Vec::with_capacity(self.space.num_decisions());
        for _ in &self.config.tables {
            sample.push(3); // width delta 0
            sample.push(2); // vocab 100%
        }
        for _ in &self.config.mlp_groups {
            sample.push(3); // depth delta 0
            sample.push(5); // width delta +1 (zero excluded per Table 5)
            sample.push(choices::LOW_RANK_CHOICES - 1); // full rank
        }
        sample
    }

    /// Encodes an architecture back into the nearest sample — the inverse
    /// of [`DlrmSpace::decode`], e.g. to locate an incumbent production
    /// model in the space. Dimensions that fall between choices snap to
    /// the closest one.
    pub fn encode(&self, arch: &DlrmArch) -> ArchSample {
        let nearest = |target: f64, options: &mut dyn Iterator<Item = (usize, f64)>| -> usize {
            options
                .min_by(|a, b| (a.1 - target).abs().total_cmp(&(b.1 - target).abs()))
                .map(|(i, _)| i)
                .unwrap_or(0)
        };
        let mut sample = Vec::with_capacity(self.space.num_decisions());
        for (table, base) in arch.tables.iter().zip(&self.config.tables) {
            sample.push(nearest(
                table.width as f64,
                &mut choices::EMB_WIDTH_DELTAS.iter().enumerate().map(|(i, &d)| {
                    (
                        i,
                        (base.width as i32 + d * self.config.emb_width_increment as i32).max(8)
                            as f64,
                    )
                }),
            ));
            sample.push(nearest(
                table.vocab as f64,
                &mut choices::VOCAB_SCALES
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| (i, (base.vocab as f64 * s).round().max(1.0))),
            ));
        }
        for (group, base) in arch.mlp_groups.iter().zip(&self.config.mlp_groups) {
            sample.push(nearest(
                group.depth as f64,
                &mut choices::DEPTH_DELTAS
                    .iter()
                    .enumerate()
                    .map(|(i, &d)| (i, (base.depth as i32 + d).max(1) as f64)),
            ));
            sample.push(nearest(
                group.width as f64,
                &mut choices::MLP_WIDTH_DELTAS.iter().enumerate().map(|(i, &d)| {
                    (
                        i,
                        (base.width as i32 + d * self.config.mlp_width_increment as i32).max(8)
                            as f64,
                    )
                }),
            ));
            sample.push(nearest(
                group.low_rank,
                &mut (0..choices::LOW_RANK_CHOICES).map(|i| (i, choices::low_rank(i))),
            ));
        }
        sample
    }

    /// Decodes a sample into a concrete architecture.
    ///
    /// # Panics
    ///
    /// Panics if the sample is invalid for this space.
    pub fn decode(&self, sample: &ArchSample) -> DlrmArch {
        #[expect(
            clippy::expect_used,
            reason = "documented `# Panics` contract; samples come from this space"
        )]
        self.space.validate(sample).expect("invalid sample");
        let mut tables = Vec::with_capacity(self.config.tables.len());
        for (i, base) in self.config.tables.iter().enumerate() {
            let s = &sample[i * DECISIONS_PER_TABLE..(i + 1) * DECISIONS_PER_TABLE];
            let width = (base.width as i32
                + choices::EMB_WIDTH_DELTAS[s[0]] * self.config.emb_width_increment as i32)
                .max(8) as usize;
            let vocab = ((base.vocab as f64 * choices::VOCAB_SCALES[s[1]]).round() as usize).max(1);
            tables.push(TableArch {
                vocab,
                width,
                ids_per_example: base.ids_per_example,
            });
        }
        let offset = self.config.tables.len() * DECISIONS_PER_TABLE;
        let mut mlp_groups = Vec::with_capacity(self.config.mlp_groups.len());
        for (i, base) in self.config.mlp_groups.iter().enumerate() {
            let s =
                &sample[offset + i * DECISIONS_PER_GROUP..offset + (i + 1) * DECISIONS_PER_GROUP];
            let depth = (base.depth as i32 + choices::DEPTH_DELTAS[s[0]]).max(1) as usize;
            let width = (base.width as i32
                + choices::MLP_WIDTH_DELTAS[s[1]] * self.config.mlp_width_increment as i32)
                .max(8) as usize;
            mlp_groups.push(MlpGroupArch {
                depth,
                width,
                low_rank: choices::low_rank(s[2]),
                bottom: base.bottom,
            });
        }
        DlrmArch {
            tables,
            mlp_groups,
            dense_features: self.config.dense_features,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn production_space_size_matches_table5() {
        // 7^300 * 700^10 ≈ 10^282
        let s = DlrmSpace::new(DlrmSpaceConfig::production());
        let log = s.space().log10_size();
        assert!((280.0..284.0).contains(&log), "log10 size {log}");
    }

    #[test]
    fn per_group_choice_product_is_700() {
        // Table 5's (7 × 10 × 10) per MLP group.
        assert_eq!(
            choices::DEPTH_DELTAS.len()
                * choices::MLP_WIDTH_DELTAS.len()
                * choices::LOW_RANK_CHOICES,
            700
        );
    }

    #[test]
    fn baseline_sample_reproduces_baseline_widths() {
        let s = DlrmSpace::new(DlrmSpaceConfig::tiny());
        let mut sample = s.baseline();
        // Fix baseline(): width delta index 5 maps to +1; there is no zero
        // delta for MLP widths in Table 5 ("excluding zero"), so the closest
        // neutral sample uses -1 (index 4). Verify decode arithmetic both ways.
        let offset = s.config().tables.len() * DECISIONS_PER_TABLE;
        sample[offset + 1] = 4; // -1 step
        let arch = s.decode(&sample);
        assert_eq!(
            arch.mlp_groups[0].width,
            s.config().mlp_groups[0].width - s.config().mlp_width_increment
        );
        for (t, base) in arch.tables.iter().zip(&s.config().tables) {
            assert_eq!(t.width, base.width);
            assert_eq!(t.vocab, base.vocab);
        }
    }

    #[test]
    fn vocab_scaling_applies() {
        let s = DlrmSpace::new(DlrmSpaceConfig::tiny());
        let mut sample = s.baseline();
        sample[1] = 6; // 200%
        let arch = s.decode(&sample);
        assert_eq!(arch.tables[0].vocab, s.config().tables[0].vocab * 2);
    }

    #[test]
    fn embedding_params_scale_with_width_and_vocab() {
        let s = DlrmSpace::new(DlrmSpaceConfig::tiny());
        let base = s.decode(&s.baseline()).embedding_params();
        let mut bigger = s.baseline();
        bigger[0] = 6; // width +3 steps
        bigger[1] = 6; // vocab 200%
        assert!(s.decode(&bigger).embedding_params() > base);
    }

    #[test]
    fn low_rank_reduces_mlp_params() {
        let s = DlrmSpace::new(DlrmSpaceConfig::tiny());
        let offset = s.config().tables.len() * DECISIONS_PER_TABLE;
        let full = s.baseline();
        let mut lr = full.clone();
        lr[offset + 2] = 0; // rank 1/10 on first group
        assert!(s.decode(&lr).mlp_params() < s.decode(&full).mlp_params());
    }

    #[test]
    fn graph_has_parallel_embedding_and_bottom_branches() {
        let s = DlrmSpace::new(DlrmSpaceConfig::tiny());
        let arch = s.decode(&s.baseline());
        let g = arch.build_graph(64, 1);
        // Embedding lookups and the dense input are independent sources.
        let sources = g.nodes().iter().filter(|n| n.inputs.is_empty()).count();
        assert!(sources > s.config().tables.len());
    }

    #[test]
    fn multi_chip_graph_uses_all_to_all() {
        let s = DlrmSpace::new(DlrmSpaceConfig::tiny());
        let arch = s.decode(&s.baseline());
        let g1 = arch.build_graph(64, 1);
        let g128 = arch.build_graph(64, 128);
        assert!(!g1.nodes().iter().any(|n| n.kind.label() == "all_to_all"));
        assert!(g128.nodes().iter().any(|n| n.kind.label() == "all_to_all"));
    }

    #[test]
    fn random_samples_decode_and_build() {
        let s = DlrmSpace::new(DlrmSpaceConfig::tiny());
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10 {
            let arch = s.decode(&s.space().sample_uniform(&mut rng));
            let g = arch.build_graph(32, 4);
            assert!(g.param_count() > 0.0);
        }
    }

    #[test]
    fn encode_inverts_decode() {
        let s = DlrmSpace::new(DlrmSpaceConfig::tiny());
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..25 {
            let sample = s.space().sample_uniform(&mut rng);
            let arch = s.decode(&sample);
            let recovered = s.encode(&arch);
            // Decoding the recovered sample must give the same architecture
            // (choice indices may differ only where decode clamps collide).
            assert_eq!(s.decode(&recovered), arch);
        }
    }

    #[test]
    fn encode_snaps_off_grid_architectures() {
        let s = DlrmSpace::new(DlrmSpaceConfig::tiny());
        let mut arch = s.decode(&s.baseline());
        arch.tables[0].width += 1; // off-grid by one
        let recovered = s.encode(&arch);
        assert!(s.space().validate(&recovered).is_ok());
        let snapped = s.decode(&recovered);
        assert!((snapped.tables[0].width as i64 - arch.tables[0].width as i64).abs() <= 1);
    }

    #[test]
    fn model_size_dominated_by_embeddings_at_production_scale() {
        let s = DlrmSpace::new(DlrmSpaceConfig::production());
        let arch = s.decode(&s.space().baseline_sample());
        assert!(arch.embedding_params() > arch.mlp_params());
    }
}
