//! Runs the paper's experiments and prints a combined report — the source
//! of EXPERIMENTS.md. Expect a few minutes in release mode.
//!
//! Usage: `repro_all [NAME...]`. With no NAME every experiment runs, in
//! the order listed in [`EXPERIMENTS`]; otherwise only the named ones run
//! (`repro_all fig4_roofline table1_perfmodel`). An unknown NAME exits 1
//! with an `error:` line listing the valid names.

#![warn(clippy::todo, clippy::unreachable)]
#![warn(clippy::expect_used, clippy::panic, clippy::unwrap_used)]

use h2o_bench::experiments as ex;
use h2o_bench::report::Table;
use std::process::ExitCode;

/// An experiment's command-line name, its report title and its runner.
type Experiment = (&'static str, &'static str, fn() -> String);

/// Every experiment, in report order.
const EXPERIMENTS: [Experiment; 21] = [
    ("table5_spaces", "Table 5 (search spaces)", ex::table5::run),
    ("table2_domains", "Table 2 (domains)", ex::table2::run),
    ("fig4_roofline", "Fig. 4 (rooflines)", ex::fig4::run),
    (
        "table3_coatnet_ablation",
        "Table 3 (CoAtNet ablation)",
        ex::table3::run,
    ),
    (
        "fig6_coatnet_pareto",
        "Fig. 6 (CoAtNet Pareto)",
        ex::fig6::run,
    ),
    (
        "fig7_hw_analysis",
        "Fig. 7 (hardware analysis)",
        ex::fig7::run,
    ),
    ("fig8_dlrm_step", "Fig. 8 (DLRM step time)", ex::fig8::run),
    (
        "table4_efficientnet",
        "Table 4 (EfficientNet)",
        ex::table4::run,
    ),
    ("fig9_energy", "Fig. 9 (energy)", ex::fig9::run),
    ("table1_perfmodel", "Table 1 (perf model)", ex::table1::run),
    ("fig5_reward", "Fig. 5 (reward functions)", ex::fig5::run),
    (
        "fig10_production",
        "Fig. 10 (production fleet)",
        ex::fig10::run,
    ),
    ("ablation_suite", "Ablations", ex::ablations::run),
    (
        "ext_search_baselines",
        "Extension: search baselines",
        ex::ext_baselines::run,
    ),
    (
        "ext_universal_perfmodel",
        "Extension: universal perf model",
        ex::ext_universal::run,
    ),
    (
        "ext_transformer_search",
        "Extension: transformer search",
        ex::ext_transformer::run,
    ),
    (
        "ext_serving_search",
        "Extension: serving multi-objective",
        ex::ext_serving::run,
    ),
    (
        "ext_hw_codesign",
        "Extension: hardware co-design",
        ex::ext_codesign::run,
    ),
    (
        "ext_nas_cost",
        "Extension: NAS cost accounting",
        ex::ext_cost::run,
    ),
    (
        "ext_shard_scaling",
        "Extension: shard scaling",
        ex::ext_scaling::run,
    ),
    (
        "full_pipeline",
        "Fig. 1 end-to-end pipeline",
        ex::full_pipeline::run,
    ),
];

/// Renders the global metrics accumulated during one experiment as a
/// compact summary table (top counters and busiest histograms).
fn metrics_summary() -> Option<String> {
    let snap = h2o_obs::snapshot();
    if snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty() {
        return None;
    }
    let mut table = Table::new("metrics", &["metric", "count/value", "mean", "p95"]);
    for (name, v) in &snap.counters {
        table.row(&[name.clone(), v.to_string(), String::new(), String::new()]);
    }
    for (name, v) in &snap.gauges {
        table.row(&[
            name.clone(),
            format!("{v:.4}"),
            String::new(),
            String::new(),
        ]);
    }
    // Histograms, busiest first; cap the list so span timings of deep
    // loops don't swamp the report.
    let mut hists: Vec<_> = snap.histograms.iter().collect();
    hists.sort_by(|a, b| b.1.count.cmp(&a.1.count).then(a.0.cmp(b.0)));
    for (name, h) in hists.into_iter().take(12) {
        let mean = if h.count == 0 {
            0.0
        } else {
            h.sum / h.count as f64
        };
        table.row(&[
            name.clone(),
            h.count.to_string(),
            format!("{mean:.3e}"),
            format!("{:.3e}", h.p95),
        ]);
    }
    Some(table.render())
}

fn main() -> ExitCode {
    let mut selected: Vec<&Experiment> = Vec::new();
    for name in std::env::args().skip(1) {
        let Some(experiment) = EXPERIMENTS.iter().find(|e| e.0 == name) else {
            let valid: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
            eprintln!(
                "error: unknown experiment '{name}' (valid: {})",
                valid.join(", ")
            );
            return ExitCode::FAILURE;
        };
        selected.push(experiment);
    }
    if selected.is_empty() {
        selected = EXPERIMENTS.iter().collect();
    }
    // Every search in the experiments below requests `workers: 0` (auto),
    // so the whole report runs under whatever `H2O_WORKERS` resolves to —
    // make that visible up front since it shapes the eval-throughput rows.
    println!(
        "evaluation executor: {} worker(s)",
        h2o_exec::resolve_workers(0, usize::MAX)
    );
    // The report always runs end to end; crash-safe runs go through
    // `h2o search --checkpoint-dir ... --resume` (see DESIGN.md,
    // "Crash-safe checkpoint/resume").
    println!(
        "checkpointing: off for repro_all (checkpoint format v{} available via `h2o search`)",
        h2o_ckpt::FORMAT_VERSION
    );
    for (_, title, run) in selected {
        println!("\n{}\n>>> {title}\n{}", "=".repeat(72), "=".repeat(72));
        // Fresh instruments per experiment, so the summary below reflects
        // this experiment alone.
        h2o_obs::reset();
        #[expect(
            clippy::disallowed_methods,
            reason = "the report states each experiment's wall time"
        )]
        let start = std::time::Instant::now();
        print!("{}", run());
        if let Some(summary) = metrics_summary() {
            print!("\n{summary}");
        }
        println!("\n[{title} completed in {:.1?}]", start.elapsed());
    }
    ExitCode::SUCCESS
}
