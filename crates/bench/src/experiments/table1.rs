//! Table 1 — two-phase training of the MLP performance model.
//!
//! Paper: 2×512 MLP over the O(10²⁸²) DLRM space; 1 M pretraining samples
//! from the simulator; 20 fine-tuning samples from production hardware.
//! NRMSE: 0.31–0.47 % on pretraining data; 14.7–42.9 % of the *pretrained*
//! model on production measurements; 1.05–3.08 % after fine-tuning (~10×
//! reduction).
//!
//! The budget constants below keep the bench minutes-scale on CPU; raise
//! them toward the paper's budget if you have time.

use crate::report::Table;
use h2o_hwsim::{HardwareConfig, ProductionHardware, Simulator, SystemConfig};
use h2o_perfmodel::{Featurizer, PerfModel, PerfTargets, TrainConfig};
use h2o_space::{DlrmSpace, DlrmSpaceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// DLRM tables in the production space.
const TABLES: usize = 20;
/// Simulator-labelled pretraining samples (the paper uses 1 M).
const PRETRAIN: usize = 8000;
/// Held-out samples, measured on both the simulator and production.
const HOLDOUT: usize = 400;
/// Width of each of the MLP's two hidden layers (the paper uses 512).
const HIDDEN: usize = 128;
/// Pretraining epochs.
const EPOCHS: usize = 100;

/// All the NRMSE numbers Table 1 reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Result {
    /// log10 of the search-space size.
    pub log10_space: f64,
    /// Pretraining sample count.
    pub pretrain_samples: usize,
    /// NRMSE of the pretrained model on held-out *simulator* data (training
    /// head).
    pub pretrain_nrmse: f64,
    /// NRMSE of the pretrained model on *production* measurements.
    pub pretrained_on_prod_nrmse: f64,
    /// NRMSE of the finetuned model on *production* measurements.
    pub finetuned_on_prod_nrmse: f64,
    /// Serving-head NRMSE of the finetuned model on production (the model
    /// is dual-headed, §6.2.1).
    pub finetuned_serving_nrmse: f64,
}

/// Runs the two-phase training pipeline end to end over the first
/// `tables` DLRM tables, with `n_pretrain` pretraining and `n_holdout`
/// held-out samples.
pub fn evaluate(tables: usize, n_pretrain: usize, n_holdout: usize) -> Table1Result {
    let mut config = DlrmSpaceConfig::production();
    config.tables.truncate(tables);
    let space = DlrmSpace::new(config);
    let featurizer = Featurizer::from_space(space.space());

    let sim = Simulator::new(HardwareConfig::tpu_v4());
    let serve_sim = Simulator::new(HardwareConfig::tpu_v4i());
    let pod = SystemConfig::training_pod();
    let prod = ProductionHardware::new(HardwareConfig::tpu_v4(), 777);
    let prod_serve = ProductionHardware::new(HardwareConfig::tpu_v4i(), 778);

    let mut rng = StdRng::seed_from_u64(9);
    // Features: the normalised categorical sample (§6.2.1: "the model
    // architecture hyper-parameters") plus three derived capacity terms
    // (log embedding params, log MLP params, log model size) — closed-form
    // functions of the same hyper-parameters that spare the MLP from
    // re-deriving products of decision variables.
    let featurize = |sample: &Vec<usize>| {
        let mut f = featurizer.featurize(sample);
        let arch = space.decode(sample);
        f.push((arch.embedding_params().max(1.0).log10() as f32 - 6.0) / 4.0);
        f.push((arch.mlp_params().max(1.0).log10() as f32 - 6.0) / 4.0);
        f.push((arch.model_size_bytes().max(1.0).log10() as f32 - 7.0) / 4.0);
        f
    };
    let input_dim = featurizer.dim() + 3;
    let simulate = |sample: &Vec<usize>| {
        let arch = space.decode(sample);
        let train = sim.simulate_training(&arch.build_graph(64, 128), &pod).time;
        let serve = serve_sim.simulate(&arch.build_graph(16, 1)).time;
        PerfTargets {
            training: train,
            serving: serve,
        }
    };
    let measure = |sample: &Vec<usize>| {
        let arch = space.decode(sample);
        let train = prod.measure_step_time(&arch.build_graph(64, 128), &pod);
        let serve = prod_serve.measure_serving_latency(&arch.build_graph(16, 1));
        PerfTargets {
            training: train,
            serving: serve,
        }
    };

    // Phase 1: pretrain on simulator data.
    let mut xs = Vec::with_capacity(n_pretrain);
    let mut ys = Vec::with_capacity(n_pretrain);
    let mut samples = Vec::with_capacity(n_pretrain);
    for _ in 0..n_pretrain + n_holdout {
        let sample = space.space().sample_uniform(&mut rng);
        xs.push(featurize(&sample));
        ys.push(simulate(&sample));
        samples.push(sample);
    }
    let (train_x, hold_x) = xs.split_at(n_pretrain);
    let (train_y, hold_y) = ys.split_at(n_pretrain);
    let mut model = PerfModel::new(input_dim, &[HIDDEN, HIDDEN], 4);
    model.pretrain(
        train_x,
        train_y,
        TrainConfig {
            epochs: EPOCHS,
            batch_size: 64,
            lr: 1e-3,
        },
    );
    let pretrain_nrmse = model.evaluate_nrmse(hold_x, hold_y).training;

    // Production evaluation set (held-out archs measured on "hardware").
    let prod_x: Vec<Vec<f32>> = hold_x.to_vec();
    let prod_y: Vec<PerfTargets> = samples[n_pretrain..].iter().map(&measure).collect();
    let pretrained_on_prod = model.evaluate_nrmse(&prod_x, &prod_y).training;

    // Phase 2: fine-tune on O(20) production measurements drawn from the
    // pretraining pool (§6.2.2).
    let finetune_idx = PerfModel::choose_finetune_indices_seeded(n_pretrain, 20, 5);
    let ft_x: Vec<Vec<f32>> = finetune_idx.iter().map(|&i| train_x[i].clone()).collect();
    let ft_y: Vec<PerfTargets> = finetune_idx.iter().map(|&i| measure(&samples[i])).collect();
    model.finetune(
        &ft_x,
        &ft_y,
        TrainConfig {
            epochs: 100,
            batch_size: 8,
            lr: 5e-5,
        },
    );
    let finetuned = model.evaluate_nrmse(&prod_x, &prod_y);

    Table1Result {
        log10_space: space.space().log10_size(),
        pretrain_samples: n_pretrain,
        pretrain_nrmse,
        pretrained_on_prod_nrmse: pretrained_on_prod,
        finetuned_on_prod_nrmse: finetuned.training,
        finetuned_serving_nrmse: finetuned.serving,
    }
}

/// Runs the experiment and renders the report.
pub fn run() -> String {
    let r = evaluate(TABLES, PRETRAIN, HOLDOUT);
    let mut table = Table::new(
        "Table 1: two-phase performance-model training",
        &["quantity", "this repro", "paper"],
    );
    table.row(&[
        "search space size".into(),
        format!("O(10^{:.0})", r.log10_space),
        "O(10^282)".into(),
    ]);
    table.row(&[
        "pretraining samples".into(),
        r.pretrain_samples.to_string(),
        "1,000,000".into(),
    ]);
    table.row(&[
        "NRMSE, pretrained on sim data".into(),
        format!("{:.2}%", r.pretrain_nrmse * 100.0),
        "0.31% ~ 0.47%".into(),
    ]);
    table.row(&["fine-tuning samples".into(), "20".into(), "20".into()]);
    table.row(&[
        "NRMSE, pretrained vs production".into(),
        format!("{:.1}%", r.pretrained_on_prod_nrmse * 100.0),
        "14.7% ~ 42.9%".into(),
    ]);
    table.row(&[
        "NRMSE, finetuned vs production".into(),
        format!("{:.2}%", r.finetuned_on_prod_nrmse * 100.0),
        "1.05% ~ 3.08%".into(),
    ]);
    table.row(&[
        "NRMSE, finetuned, serving head".into(),
        format!("{:.2}%", r.finetuned_serving_nrmse * 100.0),
        "(dual-head, §6.2.1)".into(),
    ]);
    let mut out = table.render();
    out.push_str(&format!(
        "\nFine-tuning reduced the production NRMSE by {:.1}x (paper: ~10x).\n",
        r.pretrained_on_prod_nrmse / r.finetuned_on_prod_nrmse.max(1e-9),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_phase_pipeline_matches_table1_shape() {
        // Smaller-than-default budget: shape must still hold.
        let r = evaluate(10, 3000, 150);
        assert!(
            r.pretrain_nrmse < 0.15,
            "pretrain NRMSE {} (paper <0.5%)",
            r.pretrain_nrmse
        );
        assert!(
            r.pretrained_on_prod_nrmse > 0.20,
            "sim-to-prod gap should be large before finetune: {}",
            r.pretrained_on_prod_nrmse
        );
        assert!(
            r.finetuned_on_prod_nrmse < 0.5 * r.pretrained_on_prod_nrmse,
            "finetune must slash the gap: {} -> {}",
            r.pretrained_on_prod_nrmse,
            r.finetuned_on_prod_nrmse
        );
        assert!(
            r.finetuned_on_prod_nrmse < 0.15,
            "finetuned NRMSE {} (paper 1-3%; tracks pretrain quality at this budget)",
            r.finetuned_on_prod_nrmse
        );
    }
}
