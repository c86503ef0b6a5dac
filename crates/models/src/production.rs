//! The synthetic production fleet behind Fig. 10.
//!
//! The paper applies H2O-NAS to five production computer-vision models and
//! three production DLRMs, with quality as the first priority (some models
//! trade performance for quality — CV5, DLRM3). We model the fleet as
//! differently-shaped baselines over the CNN and DLRM search spaces, each
//! with its own quality floor and performance target.

use h2o_space::cnn::StageBaseline;
use h2o_space::{CnnSpaceConfig, DlrmSpaceConfig};

/// A production model's search setup.
#[derive(Debug, Clone, PartialEq)]
pub struct ProductionModel {
    /// Fleet name (CV1..CV5, DLRM1..DLRM3 in Fig. 10).
    pub name: String,
    /// Domain-specific search configuration.
    pub domain: ProductionDomain,
    /// Relative priority of quality over performance in the reward: larger
    /// values let the search accept performance regressions for quality
    /// (the CV5 / DLRM3 behaviour in Fig. 10).
    pub quality_weight: f64,
    /// Performance target as a fraction of the baseline step time (1.0 =
    /// neutral; < 1.0 demands speedup).
    pub perf_target_ratio: f64,
}

/// Which search space a fleet model uses.
#[derive(Debug, Clone, PartialEq)]
pub enum ProductionDomain {
    /// Computer vision over the convolutional space.
    Vision(CnnSpaceConfig),
    /// Recommendation over the DLRM space.
    Dlrm(DlrmSpaceConfig),
}

fn cv_config(scale: f64, stages: usize) -> CnnSpaceConfig {
    let widths = [16, 24, 40, 80, 112, 192, 320];
    let depths = [1, 2, 2, 3, 3, 4, 1];
    let strides = [1, 2, 2, 2, 1, 2, 1];
    CnnSpaceConfig {
        stages: (0..stages.min(7))
            .map(|i| StageBaseline {
                depth: ((depths[i] as f64 * scale).round() as usize).max(1),
                width: ((widths[i] as f64 * scale / 8.0).round() as usize * 8).max(8),
                stride: strides[i],
            })
            .collect(),
        width_increment: 8,
        stem_width: 32,
    }
}

fn dlrm_config(tables: usize, mlp_scale: f64) -> DlrmSpaceConfig {
    let mut cfg = DlrmSpaceConfig::production();
    cfg.tables.truncate(tables);
    for g in &mut cfg.mlp_groups {
        g.width = ((g.width as f64 * mlp_scale / 8.0).round() as usize * 8).max(8);
    }
    cfg
}

/// The Fig. 10 fleet: five CV models and three DLRMs.
pub fn fleet() -> Vec<ProductionModel> {
    vec![
        ProductionModel {
            name: "CV1".into(),
            domain: ProductionDomain::Vision(cv_config(1.0, 7)),
            quality_weight: 1.0,
            perf_target_ratio: 0.75,
        },
        ProductionModel {
            name: "CV2".into(),
            domain: ProductionDomain::Vision(cv_config(1.4, 7)),
            quality_weight: 1.0,
            perf_target_ratio: 0.75,
        },
        ProductionModel {
            name: "CV3".into(),
            domain: ProductionDomain::Vision(cv_config(2.0, 7)),
            quality_weight: 1.5,
            perf_target_ratio: 0.80,
        },
        ProductionModel {
            name: "CV4".into(),
            domain: ProductionDomain::Vision(cv_config(1.2, 6)),
            quality_weight: 1.0,
            perf_target_ratio: 0.70,
        },
        ProductionModel {
            // CV5 prioritises quality and accepts a performance regression.
            name: "CV5".into(),
            domain: ProductionDomain::Vision(cv_config(0.8, 6)),
            quality_weight: 4.0,
            perf_target_ratio: 1.10,
        },
        ProductionModel {
            name: "DLRM1".into(),
            domain: ProductionDomain::Dlrm(dlrm_config(60, 1.0)),
            quality_weight: 3.0,
            perf_target_ratio: 0.80,
        },
        ProductionModel {
            name: "DLRM2".into(),
            domain: ProductionDomain::Dlrm(dlrm_config(100, 1.3)),
            quality_weight: 3.0,
            perf_target_ratio: 0.80,
        },
        ProductionModel {
            // DLRM3 prioritises quality and accepts a performance regression.
            name: "DLRM3".into(),
            domain: ProductionDomain::Dlrm(dlrm_config(150, 0.8)),
            quality_weight: 4.0,
            perf_target_ratio: 1.05,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_has_five_cv_and_three_dlrm() {
        let fleet = fleet();
        let cv = fleet
            .iter()
            .filter(|m| matches!(m.domain, ProductionDomain::Vision(_)))
            .count();
        let dlrm = fleet
            .iter()
            .filter(|m| matches!(m.domain, ProductionDomain::Dlrm(_)))
            .count();
        assert_eq!((cv, dlrm), (5, 3));
    }

    #[test]
    fn quality_first_models_allow_regression() {
        let fleet = fleet();
        let cv5 = fleet.iter().find(|m| m.name == "CV5").unwrap();
        let dlrm3 = fleet.iter().find(|m| m.name == "DLRM3").unwrap();
        assert!(cv5.perf_target_ratio > 1.0);
        assert!(dlrm3.perf_target_ratio > 1.0);
        assert!(cv5.quality_weight > 1.0);
    }

    #[test]
    fn fleet_baselines_are_distinct() {
        let fleet = fleet();
        for pair in fleet.windows(2) {
            assert_ne!(
                pair[0].domain, pair[1].domain,
                "{} vs {}",
                pair[0].name, pair[1].name
            );
        }
    }

    #[test]
    fn configs_build_valid_spaces() {
        use h2o_space::{CnnSpace, DlrmSpace};
        for model in fleet() {
            match &model.domain {
                ProductionDomain::Vision(cfg) => {
                    let space = CnnSpace::new(cfg.clone());
                    assert!(space.space().log10_size() > 10.0);
                }
                ProductionDomain::Dlrm(cfg) => {
                    let space = DlrmSpace::new(cfg.clone());
                    assert!(space.space().log10_size() > 50.0);
                }
            }
        }
    }
}
