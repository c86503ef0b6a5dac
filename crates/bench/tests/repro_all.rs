//! `repro_all NAME...` runs only the named experiments, and an unknown
//! NAME is an `error:` line listing every valid name with exit code 1,
//! never a panic.

use std::process::{Command, Output};

/// Every experiment name, in report order: the names of the per-experiment
/// binaries `repro_all` replaced.
const NAMES: [&str; 21] = [
    "table5_spaces",
    "table2_domains",
    "fig4_roofline",
    "table3_coatnet_ablation",
    "fig6_coatnet_pareto",
    "fig7_hw_analysis",
    "fig8_dlrm_step",
    "table4_efficientnet",
    "fig9_energy",
    "table1_perfmodel",
    "fig5_reward",
    "fig10_production",
    "ablation_suite",
    "ext_search_baselines",
    "ext_universal_perfmodel",
    "ext_transformer_search",
    "ext_serving_search",
    "ext_hw_codesign",
    "ext_nas_cost",
    "ext_shard_scaling",
    "full_pipeline",
];

fn repro_all(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .args(args)
        .output()
        .expect("repro_all binary runs")
}

#[test]
fn a_named_experiment_runs_alone() {
    let out = repro_all(&["table5_spaces"]);
    assert!(out.status.success(), "exit {:?}", out.status.code());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let banners: Vec<&str> = stdout.lines().filter(|l| l.starts_with(">>> ")).collect();
    assert_eq!(banners, [">>> Table 5 (search spaces)"]);
    assert!(
        stdout.contains(&h2o_bench::experiments::table5::run()),
        "the experiment's report is printed verbatim:\n{stdout}"
    );
}

#[test]
fn an_unknown_name_exits_1_listing_the_valid_names() {
    let out = repro_all(&["table5_spaces", "nope"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing runs before the names check");
    let error = stderr
        .lines()
        .find(|l| l.starts_with("error:"))
        .unwrap_or_else(|| panic!("no error line in:\n{stderr}"));
    assert!(error.contains("'nope'"), "{error}");
    let missing: Vec<&str> = NAMES.into_iter().filter(|n| !error.contains(n)).collect();
    assert!(missing.is_empty(), "{error} omits {missing:?}");
}
