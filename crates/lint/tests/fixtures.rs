//! Per-rule fixture tests: every rule gets at least one known-bad snippet
//! that must produce exactly the expected findings, plus a known-good
//! variant that must stay clean. These pin the matchers against
//! regressions in the lexer, the parser or the rule engine.

use h2o_lint::findings::Rule;
use h2o_lint::rules::lint_source;
use h2o_lint::{lint_files, SourceFile};

/// Lints `src` as if it were a file inside `core`, returning the
/// `(rule, line)` pairs found.
fn findings_in(src: &str) -> Vec<(Rule, u32)> {
    lint_source("core", "src/lib.rs", src)
        .into_iter()
        .map(|f| (f.rule, f.line))
        .collect()
}

// --------------------------------------------------------- float-ordering

#[test]
fn float_ordering_flags_partial_cmp_unwrap_and_expect() {
    let bad = r#"
fn sort(xs: &mut Vec<f64>) {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
}
"#;
    let got = findings_in(bad);
    assert_eq!(
        got,
        vec![(Rule::FloatOrdering, 3), (Rule::FloatOrdering, 4)]
    );
}

#[test]
fn float_ordering_accepts_total_cmp_and_inspected_partial_cmp() {
    let good = r#"
fn sort(xs: &mut Vec<f64>) {
    xs.sort_by(|a, b| a.total_cmp(b));
    if let Some(ord) = (1.0f64).partial_cmp(&2.0) {
        let _ = ord;
    }
}
"#;
    assert!(findings_in(good).is_empty());
}

#[test]
fn float_ordering_flags_nan_swallowing_fallbacks() {
    // unwrap_or(Equal) does not panic — it silently builds a
    // non-transitive comparator, the worse failure mode (the loss.rs AUC
    // sort shipped exactly this bug).
    let bad = r#"
fn sort(xs: &mut Vec<f64>) {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or_else(|| std::cmp::Ordering::Equal));
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or_default());
}
"#;
    let got = findings_in(bad);
    assert_eq!(
        got,
        vec![
            (Rule::FloatOrdering, 3),
            (Rule::FloatOrdering, 4),
            (Rule::FloatOrdering, 5)
        ]
    );
}

#[test]
fn float_ordering_matches_through_nested_args() {
    // The paren matcher must pair the partial_cmp(...) parens, not stop at
    // the first `)` inside the argument expression.
    let bad = "fn f(a: f64, b: f64) { a.abs().partial_cmp(&(b + 1.0).abs()).unwrap(); }\n";
    assert_eq!(findings_in(bad), vec![(Rule::FloatOrdering, 1)]);
}

// ---------------------------------------------------------------- pragmas

#[test]
fn pragma_with_reason_suppresses_only_its_rule() {
    let src = r#"
fn sort(xs: &mut Vec<f64>) {
    // h2o-lint: allow(float-ordering) -- xs holds finite rewards by construction
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
}
"#;
    assert!(findings_in(src).is_empty());

    // A pragma naming another rule does not excuse this one — and since
    // it then suppresses nothing, the pragma itself is flagged stale.
    let cross = r#"
fn sort(xs: &mut Vec<f64>) {
    // h2o-lint: allow(nondet-taint) -- wrong rule named
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
}
"#;
    assert_eq!(
        findings_in(cross),
        vec![(Rule::UnusedPragma, 3), (Rule::FloatOrdering, 4)]
    );
}

#[test]
fn pragma_without_reason_is_rejected() {
    let src = r#"
fn sort(xs: &mut Vec<f64>) {
    // h2o-lint: allow(float-ordering)
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
}
"#;
    assert_eq!(findings_in(src), vec![(Rule::FloatOrdering, 4)]);
}

#[test]
fn same_line_pragma_works() {
    let src = "fn f(a: f64) -> bool { a.partial_cmp(&0.0).unwrap().is_lt() } // h2o-lint: allow(float-ordering) -- finite\n";
    assert!(findings_in(src).is_empty());
}

// ------------------------------------------------------- semantic rules

/// Builds a [`SourceFile`] for the cross-file fixtures.
fn file(crate_name: &str, rel_path: &str, source: &str) -> SourceFile {
    SourceFile {
        crate_name: crate_name.to_string(),
        rel_path: rel_path.to_string(),
        source: source.to_string(),
    }
}

/// Lints a multi-file workspace, returning `(rule, file, line)` triples.
fn findings_in_workspace(files: &[SourceFile]) -> Vec<(Rule, String, u32)> {
    lint_files(files)
        .into_iter()
        .map(|f| (f.rule, f.file, f.line))
        .collect()
}

// --------------------------------------------------------------- rule 9

/// The laundering chain the per-file rules cannot see: the source, the
/// intermediate helper, and the contract-crate call site live in three
/// different files, and only the call graph connects them.
fn laundering_files(sanitized: bool) -> Vec<SourceFile> {
    let pragma = if sanitized {
        "    // h2o-lint: allow(nondet-taint) -- width only sizes a scratch buffer\n"
    } else {
        ""
    };
    vec![
        file(
            "space",
            "crates/space/src/host.rs",
            &format!(
                "pub fn host_width() -> usize {{\n{pragma}    \
                 std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)\n}}\n"
            ),
        ),
        file(
            "space",
            "crates/space/src/stride.rs",
            "pub fn pick_stride() -> usize {\n    host_width() * 2\n}\n",
        ),
        file(
            "core",
            "crates/core/src/sched.rs",
            "pub fn schedule() -> usize {\n    pick_stride()\n}\n",
        ),
    ]
}

#[test]
fn nondet_taint_catches_cross_file_laundering() {
    // The host-shape read sits two hops away from `core`, in another
    // crate — the finding lands at the frontier: the contract-crate call
    // site that imports the tainted value.
    let got = findings_in_workspace(&laundering_files(false));
    assert_eq!(
        got,
        vec![(Rule::NondetTaint, "crates/core/src/sched.rs".to_string(), 2)]
    );
}

#[test]
fn nondet_taint_pragma_on_the_source_sanitizes_the_whole_chain() {
    // One justified source must not light up every downstream caller:
    // the pragma on the `available_parallelism` line stops propagation.
    assert!(findings_in_workspace(&laundering_files(true)).is_empty());
}

#[test]
fn nondet_taint_flags_direct_sources_in_contract_crates() {
    let got = findings_in_workspace(&[file(
        "exec",
        "crates/exec/src/lib.rs",
        "pub fn width() -> usize {\n    \
         std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)\n}\n",
    )]);
    assert_eq!(
        got,
        vec![(Rule::NondetTaint, "crates/exec/src/lib.rs".to_string(), 2)]
    );
}

// -------------------------------------------------------------- rule 10

#[test]
fn fingerprint_completeness_flags_the_unhashed_field() {
    let src = r#"
pub struct ScenarioSpec {
    pub seed: u64,
    pub shards: u64,
}
impl ScenarioSpec {
    pub fn value_fingerprint(&self) -> u64 {
        self.seed.wrapping_mul(0x100000001b3)
    }
}
"#;
    let got = findings_in_workspace(&[file("eval", "crates/eval/src/spec.rs", src)]);
    assert_eq!(
        got,
        vec![(
            Rule::FingerprintCompleteness,
            "crates/eval/src/spec.rs".to_string(),
            4
        )],
        "`shards` is never hashed; `seed` is"
    );
}

#[test]
fn fingerprint_completeness_sees_fields_hashed_via_helpers() {
    // `shards` is hashed one call away — the surface is the transitive
    // callee closure, not just the fingerprint body itself.
    let src = r#"
pub struct ScenarioSpec {
    pub seed: u64,
    pub shards: u64,
}
impl ScenarioSpec {
    pub fn value_fingerprint(&self) -> u64 {
        self.seed.wrapping_mul(31) ^ self.mix()
    }
    fn mix(&self) -> u64 {
        self.shards.wrapping_mul(37)
    }
}
"#;
    assert!(findings_in_workspace(&[file("eval", "crates/eval/src/spec.rs", src)]).is_empty());
}

#[test]
fn fingerprint_completeness_skips_stored_hash_accessors() {
    // A fingerprint fn that just returns a stored hash computes nothing
    // and constrains no fields.
    let src = r#"
pub struct Manifest {
    pub cached: u64,
    pub payload: u64,
}
impl Manifest {
    pub fn fingerprint(&self) -> u64 {
        self.cached
    }
}
"#;
    assert!(findings_in_workspace(&[file("ckpt", "crates/ckpt/src/store.rs", src)]).is_empty());
}

// -------------------------------------------------------------- rule 11

/// Reward roots plus a same-crate helper, a cross-crate producer, an
/// off-path fn, and a direct caller in another file.
fn reward_files() -> Vec<SourceFile> {
    vec![
        file(
            "core",
            "crates/core/src/reward.rs",
            "pub struct RewardFn;\n\
             impl RewardFn {\n\
             \x20   pub fn reward(&self, quality: f64, shards: usize) -> f64 {\n\
             \x20       quality + combine(shards) + quality_of(shards)\n\
             \x20   }\n\
             }\n\
             fn combine(shards: usize) -> f64 {\n\
             \x20   shards as f64\n\
             }\n\
             pub fn off_path(shards: usize) -> f64 {\n\
             \x20   shards as f64\n\
             }\n",
        ),
        file(
            "core",
            "crates/core/src/run.rs",
            "pub fn run(r: &RewardFn, n: usize) -> f64 {\n\
             \x20   let scale = n as f64;\n\
             \x20   r.reward(1.0, n) * scale\n\
             }\n",
        ),
        file(
            "space",
            "crates/space/src/quality.rs",
            "pub fn quality_of(shards: usize) -> f64 {\n\
             \x20   shards as f64\n\
             }\n",
        ),
    ]
}

#[test]
fn float_cast_flagged_on_reward_path_not_off_it() {
    let got = findings_in_workspace(&reward_files());
    assert_eq!(
        got,
        vec![
            (
                // `combine` is reward-combination math in the root's own
                // crate. `off_path` (line 11) and the cross-crate
                // quality *producer* `space::quality_of` stay unflagged:
                // producers are policed by the determinism rules, and
                // including them would re-create the whole-crate cast
                // ban this rule replaces.
                Rule::FloatCastOnRewardPath,
                "crates/core/src/reward.rs".to_string(),
                8
            ),
            (
                // `run` handles the returned reward: a direct caller.
                Rule::FloatCastOnRewardPath,
                "crates/core/src/run.rs".to_string(),
                2
            ),
        ]
    );
}
