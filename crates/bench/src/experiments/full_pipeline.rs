//! The complete Fig. 1 system, end to end, with every arrow exercised:
//!
//! 1. **Performance-model construction** (④): sample architectures, label
//!    them with the simulator, pretrain the MLP performance model, then
//!    fine-tune it on 20 "deployed hardware" measurements.
//! 2. **One-shot search** (②③⑤): the unified single-step algorithm over
//!    the *real trainable* DLRM super-network on the in-memory pipeline
//!    (①), with the reward's performance signals coming from the
//!    **fine-tuned performance model** — exactly as deployed, because
//!    "individual sub-networks do not exist physically to directly measure
//!    performance on hardware during search" (§6.2).
//! 3. **Validation**: the discovered architecture's *predicted* step time
//!    is checked against the production measurement, and its quality
//!    against fresh traffic.

use crate::report::Table;
use h2o_core::{OneShotConfig, PerfObjective, RewardFn, RewardKind, UnifiedStage};
use h2o_data::{CtrTraffic, CtrTrafficConfig, InMemoryPipeline, TrafficSource};
use h2o_hwsim::{HardwareConfig, ProductionHardware, Simulator, SystemConfig};
use h2o_perfmodel::{Featurizer, PerfModel, PerfTargets, TrainConfig};
use h2o_space::{ArchSample, DlrmSpace, DlrmSpaceConfig, DlrmSupernet};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Simulator-labelled samples the performance model is pretrained on.
const PRETRAIN: usize = 1500;
/// One-shot search steps.
const STEPS: usize = 120;

/// Outcome of the end-to-end run.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// Fine-tuned perf-model NRMSE vs production on held-out archs.
    pub perfmodel_nrmse: f64,
    /// The searched architecture's step time *predicted* by the perf model.
    pub predicted_step: f64,
    /// The same architecture's step time *measured* on production hardware.
    pub measured_step: f64,
    /// Baseline step time measured on production hardware.
    pub baseline_step: f64,
    /// Final-candidate AUC on fresh traffic (the real quality signal).
    pub final_auc: f64,
    /// Pipeline audit: batches fully consumed exactly once.
    pub pipeline_clean: bool,
}

/// Runs the whole system: pretrains the performance model on `n_pretrain`
/// samples and searches for `steps` steps.
pub fn evaluate(n_pretrain: usize, steps: usize) -> PipelineResult {
    let space = DlrmSpace::new(DlrmSpaceConfig::tiny());
    let featurizer = Featurizer::from_space(space.space());
    let sim = Simulator::new(HardwareConfig::tpu_v4());
    let pod = SystemConfig::training_pod();
    let production = ProductionHardware::new(HardwareConfig::tpu_v4(), 321);
    let mut rng = StdRng::seed_from_u64(1);

    // --- Stage 1: performance model (pretrain on simulator, finetune on
    //     production measurements). ---
    let mut xs = Vec::new();
    let mut sim_y = Vec::new();
    let mut samples = Vec::new();
    for _ in 0..n_pretrain + 150 {
        let sample = space.space().sample_uniform(&mut rng);
        let graph = space.decode(&sample).build_graph(64, 128);
        let t = sim.simulate_training(&graph, &pod).time;
        xs.push(featurizer.featurize(&sample));
        sim_y.push(PerfTargets {
            training: t,
            serving: t * 0.4,
        });
        samples.push(sample);
    }
    let mut perf_model = PerfModel::new(featurizer.dim(), &[96, 96], 7);
    perf_model.pretrain(
        &xs[..n_pretrain],
        &sim_y[..n_pretrain],
        TrainConfig {
            epochs: 120,
            batch_size: 64,
            lr: 1e-3,
        },
    );
    let ft_idx = PerfModel::choose_finetune_indices_seeded(n_pretrain, 20, 3);
    let measure = |sample: &ArchSample| {
        production.measure_step_time(&space.decode(sample).build_graph(64, 128), &pod)
    };
    let ft_x: Vec<Vec<f32>> = ft_idx.iter().map(|&i| xs[i].clone()).collect();
    let ft_y: Vec<PerfTargets> = ft_idx
        .iter()
        .map(|&i| {
            let t = measure(&samples[i]);
            PerfTargets {
                training: t,
                serving: t * 0.4,
            }
        })
        .collect();
    perf_model.finetune(
        &ft_x,
        &ft_y,
        TrainConfig {
            epochs: 100,
            batch_size: 8,
            lr: 5e-5,
        },
    );
    let hold_x = xs[n_pretrain..].to_vec();
    let hold_y: Vec<PerfTargets> = samples[n_pretrain..]
        .iter()
        .map(|s| {
            let t = measure(s);
            PerfTargets {
                training: t,
                serving: t * 0.4,
            }
        })
        .collect();
    let perfmodel_nrmse = perf_model.evaluate_nrmse(&hold_x, &hold_y).training;

    // --- Stage 2: one-shot search with the perf model in the loop. ---
    let baseline_step = measure(&space.baseline());
    let mut supernet = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut rng);
    let pipeline = InMemoryPipeline::new(CtrTraffic::new(CtrTrafficConfig::tiny(), 77));
    let reward = RewardFn::new(
        RewardKind::Relu,
        vec![
            PerfObjective::new("train_step_time", baseline_step, -20.0),
            PerfObjective::new(
                "model_size",
                space.decode(&space.baseline()).model_size_bytes(),
                -4.0,
            ),
        ],
    );
    let size_space = space.clone();
    let pm = perf_model.clone();
    let feat = featurizer.clone();
    let perf_of = move |sample: &ArchSample| {
        // The search-loop performance signal: the fine-tuned MLP, NOT the
        // simulator — sub-networks never run on "hardware" during search.
        let predicted = pm.predict(&feat.featurize(sample)).training;
        vec![predicted, size_space.decode(sample).model_size_bytes()]
    };
    let cfg = OneShotConfig {
        steps,
        shards: 4,
        batch_size: 64,
        seed: 2,
        ..Default::default()
    };
    let outcome = super::run_search(
        space.space(),
        &reward,
        cfg.controller(),
        &mut UnifiedStage::new(&mut supernet, &pipeline, perf_of, &cfg),
    );
    let pipeline_clean =
        pipeline.in_flight() == 0 && pipeline.stats().policy_used == pipeline.stats().weights_used;

    // --- Stage 3: validate the winner. ---
    let best = outcome.best;
    let predicted_step = perf_model.predict(&featurizer.featurize(&best)).training;
    let measured_step = measure(&best);
    supernet.apply_sample(&best);
    let mut eval = CtrTraffic::new(CtrTrafficConfig::tiny(), 4321);
    let mut auc = 0.0;
    for _ in 0..8 {
        let batch = eval.next_batch(256);
        auc += supernet.evaluate(&batch).1;
    }
    PipelineResult {
        perfmodel_nrmse,
        predicted_step,
        measured_step,
        baseline_step,
        final_auc: auc / 8.0,
        pipeline_clean,
    }
}

/// Runs the experiment and renders the report.
pub fn run() -> String {
    let r = evaluate(PRETRAIN, STEPS);
    let mut table = Table::new(
        "Fig. 1 end to end: perf model in the search loop, real supernet, real traffic",
        &["quantity", "value"],
    );
    table.row(&[
        "perf-model NRMSE vs production (held-out)".into(),
        format!("{:.1}%", r.perfmodel_nrmse * 100.0),
    ]);
    table.row(&[
        "baseline step (production)".into(),
        format!("{:.3} ms", r.baseline_step * 1e3),
    ]);
    table.row(&[
        "searched arch, predicted step".into(),
        format!("{:.3} ms", r.predicted_step * 1e3),
    ]);
    table.row(&[
        "searched arch, measured step".into(),
        format!("{:.3} ms", r.measured_step * 1e3),
    ]);
    table.row(&[
        "prediction error on the winner".into(),
        format!(
            "{:+.1}%",
            (r.predicted_step / r.measured_step - 1.0) * 100.0
        ),
    ]);
    table.row(&[
        "final candidate AUC (fresh traffic)".into(),
        format!("{:.4}", r.final_auc),
    ]);
    table.row(&["pipeline audit clean".into(), r.pipeline_clean.to_string()]);
    let mut out = table.render();
    out.push_str(
        "\nThis is the deployed shape of H2O-NAS: the RL controller's performance signals\n\
         come from the fine-tuned MLP (sub-networks never touch hardware during search),\n\
         quality comes from the live super-network on use-once traffic, and the winner's\n\
         prediction is validated against a production measurement afterwards.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_pipeline_is_consistent() {
        let r = evaluate(900, 60);
        assert!(r.pipeline_clean, "pipeline invariants must hold");
        assert!(
            r.perfmodel_nrmse < 0.25,
            "perf model NRMSE {}",
            r.perfmodel_nrmse
        );
        // The in-loop predictions must be usable: the winner's predicted
        // step is within 30% of its production measurement.
        let err = (r.predicted_step / r.measured_step - 1.0).abs();
        assert!(err < 0.30, "winner prediction error {err}");
        // The search respected the step-time target (ReLU slack allowed).
        assert!(
            r.measured_step <= r.baseline_step * 1.10,
            "{} vs {}",
            r.measured_step,
            r.baseline_step
        );
        assert!(r.final_auc > 0.6, "AUC {}", r.final_auc);
    }
}
