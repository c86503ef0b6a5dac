//! The production-style baseline DLRM and the H2O-NAS-rebalanced DLRM-H
//! (§7.1.2, Fig. 8).
//!
//! The baseline mirrors the paper's observation about heavily hand-tuned
//! production DLRMs: the **MLP side dominates the step time** while the
//! embedding side idles — a load imbalance that both wastes the overlap
//! between the (memory/network-bound) embedding branch and the (MXU-bound)
//! MLP branch, and under-provisions memorisation. DLRM-H rebalances the
//! two towers: slightly leaner top MLP (low-rank on the widest layers),
//! larger embeddings — recovering ~10 % step time at +0.02 % quality.

use h2o_space::dlrm::{MlpGroupArch, TableArch};
use h2o_space::DlrmArch;

/// The baseline production-style DLRM (Table 2: O(1000)M params,
/// O(100)B FLOPs, trained on 128 TPUv4).
pub fn baseline() -> DlrmArch {
    let tables: Vec<TableArch> = (0..150)
        .map(|i| TableArch {
            vocab: 10_000 << (i % 8),
            width: 32 + 16 * (i % 4),
            ids_per_example: if i % 5 == 0 { 8.0 } else { 1.0 },
        })
        .collect();
    let mlp_groups = vec![
        MlpGroupArch {
            depth: 2,
            width: 512,
            low_rank: 1.0,
            bottom: true,
        },
        MlpGroupArch {
            depth: 2,
            width: 256,
            low_rank: 1.0,
            bottom: true,
        },
        MlpGroupArch {
            depth: 3,
            width: 3072,
            low_rank: 1.0,
            bottom: false,
        },
        MlpGroupArch {
            depth: 3,
            width: 2048,
            low_rank: 1.0,
            bottom: false,
        },
        MlpGroupArch {
            depth: 2,
            width: 1024,
            low_rank: 1.0,
            bottom: false,
        },
        MlpGroupArch {
            depth: 2,
            width: 512,
            low_rank: 1.0,
            bottom: false,
        },
        MlpGroupArch {
            depth: 1,
            width: 128,
            low_rank: 1.0,
            bottom: false,
        },
    ];
    DlrmArch {
        tables,
        mlp_groups,
        dense_features: 256,
    }
}

/// The H2O-NAS-designed DLRM-H: the widest top-tower groups are factorised
/// (low rank) and slightly narrowed, embedding widths grow to absorb the
/// freed step-time budget — the Fig. 8 rebalance.
pub fn h_variant() -> DlrmArch {
    let mut arch = baseline();
    for table in &mut arch.tables {
        table.width += 8; // more memorisation capacity
    }
    for group in &mut arch.mlp_groups {
        if !group.bottom && group.width >= 3072 {
            group.low_rank = 0.4;
        }
    }
    arch
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2o_hwsim::{HardwareConfig, Simulator, SystemConfig};

    fn step_time(arch: &DlrmArch) -> (f64, f64, f64) {
        // Per-chip batch 64 on a 128-chip pod, as in Table 2.
        let g = arch.build_graph(64, 128);
        let sim = Simulator::new(HardwareConfig::tpu_v4());
        let pod = SystemConfig::training_pod();
        // Branch breakdown: embedding ops vs matmul ops.
        let breakdown = sim.breakdown(&g, Some(&pod));
        let emb: f64 = breakdown
            .iter()
            .filter(|(k, _)| k.contains("embedding") || k.contains("all_to_all"))
            .map(|(_, v)| v)
            .sum();
        let mlp: f64 = breakdown
            .iter()
            .filter(|(k, _)| k.contains("matmul"))
            .map(|(_, v)| v)
            .sum();
        (sim.simulate_training(&g, &pod).time, emb, mlp)
    }

    #[test]
    fn baseline_is_mlp_dominated() {
        let (_, emb, mlp) = step_time(&baseline());
        assert!(mlp > emb, "baseline imbalance: mlp {mlp} vs emb {emb}");
    }

    #[test]
    fn h_variant_is_faster() {
        let (t_base, _, _) = step_time(&baseline());
        let (t_h, _, _) = step_time(&h_variant());
        let speedup = t_base / t_h;
        assert!(speedup > 1.02, "DLRM-H speedup {speedup} (paper ~1.10)");
        assert!(speedup < 1.5, "speedup should be modest: {speedup}");
    }

    #[test]
    fn h_variant_improves_balance() {
        let (_, emb_b, mlp_b) = step_time(&baseline());
        let (_, emb_h, mlp_h) = step_time(&h_variant());
        let imbalance = |emb: f64, mlp: f64| (mlp / emb.max(1e-12) - 1.0).abs();
        assert!(
            imbalance(emb_h, mlp_h) < imbalance(emb_b, mlp_b),
            "H must be better balanced: base ({emb_b:.2e},{mlp_b:.2e}) vs H ({emb_h:.2e},{mlp_h:.2e})"
        );
    }

    #[test]
    fn h_variant_has_more_embedding_capacity() {
        assert!(h_variant().embedding_params() > baseline().embedding_params());
    }

    #[test]
    fn model_sizes_are_production_scale() {
        let params = baseline().embedding_params() + baseline().mlp_params();
        assert!(params > 1e8, "O(1000)M params expected, got {params}");
    }
}
