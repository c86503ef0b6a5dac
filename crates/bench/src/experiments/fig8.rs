//! Fig. 8 — DLRM-H training step time = MAX(embedding time, DNN time),
//! normalised to the baseline DLRM; paper: ~10 % faster, +0.02 % quality.

use crate::report::{pct, ratio, seconds, Table};
use h2o_hwsim::{HardwareConfig, Simulator, SystemConfig};
use h2o_models::quality::DlrmQualityModel;
use h2o_space::DlrmArch;

/// `(step_time, embedding_branch_time, dnn_branch_time)` for one DLRM on
/// the 128-chip TPUv4 pod at per-chip batch 64.
pub fn step_breakdown(arch: &DlrmArch) -> (f64, f64, f64) {
    let sim = Simulator::new(HardwareConfig::tpu_v4());
    let graph = arch.build_graph(64, 128);
    let pod = SystemConfig::training_pod();
    let breakdown = sim.breakdown(&graph, Some(&pod));
    let emb: f64 = breakdown
        .iter()
        .filter(|(k, _)| k.contains("embedding") || k.contains("all_to_all"))
        .map(|(_, v)| v)
        .sum();
    let dnn: f64 = breakdown
        .iter()
        .filter(|(k, _)| k.contains("matmul") || k.contains("all_reduce"))
        .map(|(_, v)| v)
        .sum();
    (sim.simulate_training(&graph, &pod).time, emb, dnn)
}

/// Runs the experiment and renders the report.
pub fn run() -> String {
    let base = h2o_models::dlrm::baseline();
    let opt = h2o_models::dlrm::h_variant();
    let quality = DlrmQualityModel::new(&base, 85.0);
    let (t_base, emb_base, dnn_base) = step_breakdown(&base);
    let (t_opt, emb_opt, dnn_opt) = step_breakdown(&opt);

    let mut table = Table::new(
        "Fig. 8: DLRM step time = MAX(embedding, DNN), normalised to baseline",
        &[
            "model",
            "step time",
            "embedding time",
            "DNN time",
            "normalised step",
            "quality Δ",
        ],
    );
    table.row(&[
        "DLRM (baseline)".into(),
        seconds(t_base),
        seconds(emb_base),
        seconds(dnn_base),
        ratio(1.0),
        "-".into(),
    ]);
    table.row(&[
        "DLRM-H".into(),
        seconds(t_opt),
        seconds(emb_opt),
        seconds(dnn_opt),
        ratio(t_opt / t_base),
        pct((quality.quality(&opt) - quality.quality(&base)) / 100.0),
    ]);
    let mut out = table.render();
    out.push_str(&format!(
        "\nSpeedup {} (paper ~1.10x). Baseline imbalance DNN/embedding = {:.2}; DLRM-H = {:.2}\n\
         (closer to 1.0 = better overlap of the parallel branches).\n",
        ratio(t_base / t_opt),
        dnn_base / emb_base,
        dnn_opt / emb_opt,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalised_step_below_one() {
        let (t_base, _, _) = step_breakdown(&h2o_models::dlrm::baseline());
        let (t_opt, _, _) = step_breakdown(&h2o_models::dlrm::h_variant());
        let normalised = t_opt / t_base;
        assert!(
            (0.6..0.98).contains(&normalised),
            "normalised step {normalised} (paper ~0.9)"
        );
    }

    #[test]
    fn report_renders() {
        assert!(run().contains("Fig. 8"));
    }
}
