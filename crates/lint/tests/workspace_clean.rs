//! The self-check: the workspace this linter ships in must itself be
//! lint-clean. This is the test that turns the rules from a style
//! suggestion into an enforced contract — reintroducing a
//! `partial_cmp().unwrap()`, a cross-file nondeterminism laundering
//! chain, an unhashed fingerprint field, a reward-path float cast or a
//! stale pragma fails `cargo test`, not just the separate ci.sh lint
//! stage.

use h2o_lint::{lint_files, lint_workspace, Finding, Rule, SourceFile};
use std::path::Path;

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn workspace_has_no_unallowed_findings() {
    let report = lint_workspace(&workspace_root()).expect("workspace walk succeeds");
    assert!(
        report.files_checked > 50,
        "expected to walk the whole workspace, saw only {} files",
        report.files_checked
    );
    assert!(
        report.findings.is_empty(),
        "workspace must be lint-clean; found:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Two runs over the same tree must print byte-identical findings (the
/// linter is itself held to the repository's determinism contract).
#[test]
fn findings_are_byte_identical_across_runs() {
    let root = workspace_root();
    let a = lint_workspace(&root).expect("first run");
    let b = lint_workspace(&root).expect("second run");
    assert_eq!(a.files_checked, b.files_checked);
    assert_eq!(lines(&a.findings), lines(&b.findings));

    // And with a non-empty finding set, via the same engine: the fixture
    // has sources in multiple crates so the cross-file machinery (index
    // build, taint BFS) is on the path being checked for determinism.
    let files = vec![
        SourceFile {
            crate_name: "space".to_string(),
            rel_path: "crates/space/src/host.rs".to_string(),
            source: "pub fn width() -> usize {\n    \
                     std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)\n}\n"
                .to_string(),
        },
        SourceFile {
            crate_name: "core".to_string(),
            rel_path: "crates/core/src/lib.rs".to_string(),
            source: "pub fn plan() -> usize {\n    width()\n}\n\
                     pub fn t() -> f64 {\n    let x = std::time::Instant::now();\n    0.0\n}\n"
                .to_string(),
        },
    ];
    let x = lines(&lint_files(&files));
    let y = lines(&lint_files(&files));
    assert!(x.contains("nondet-taint"), "fixture must produce findings");
    assert_eq!(x, y, "findings must be byte-identical across runs");
}

/// The findings as the binary prints them, one line each.
fn lines(findings: &[Finding]) -> String {
    findings.iter().map(|f| format!("{f}\n")).collect()
}

/// Proof that the in-tree pragmas are load-bearing: stripping the
/// justification from the one sanctioned `available_parallelism` read in
/// `exec` must reintroduce a `nondet-taint` finding on the *real* source.
#[test]
fn stripping_a_load_bearing_pragma_reintroduces_the_finding() {
    let path = workspace_root().join("crates/exec/src/lib.rs");
    let src = std::fs::read_to_string(&path).expect("exec/src/lib.rs readable");
    assert!(
        src.contains("h2o-lint: allow(nondet-taint)"),
        "the sanctioned host-shape read must carry its pragma"
    );
    let stripped: String = src
        .lines()
        .filter(|l| !l.contains("h2o-lint: allow(nondet-taint)"))
        .map(|l| format!("{l}\n"))
        .collect();
    let findings = lint_files(&[SourceFile {
        crate_name: "exec".to_string(),
        rel_path: "crates/exec/src/lib.rs".to_string(),
        source: stripped,
    }]);
    assert!(
        findings.iter().any(|f| f.rule == Rule::NondetTaint),
        "removing the pragma must resurface the nondet-taint finding"
    );
}
