//! The `float-ordering` token rule and the allow-pragma machinery.
//!
//! The token rule runs over the token stream from [`crate::lexer`] — no
//! syntax tree and no type information (see DESIGN.md, "static-analysis
//! contract"). The other per-file checks of that contract are clippy
//! lints; `float-ordering` stays here because clippy cannot tell an
//! unchecked `partial_cmp(..).unwrap()` from an inspected `match
//! a.partial_cmp(&b)`.
//!
//! Code under `#[cfg(test)]` / `#[test]` items is exempt from every rule
//! (a test may unwrap freely), as are the `tests/`, `examples/` and
//! `benches/` directories, which the workspace walker never visits.
//!
//! # Escape hatch
//!
//! A finding is suppressed by a pragma **with a justification**:
//!
//! ```text
//! // h2o-lint: allow(float-ordering) -- both operands are finite by construction
//! ```
//!
//! on the same line as the finding or on the comment line(s) directly
//! above it. A pragma without a non-empty reason after `--` does not
//! suppress anything.
//!
//! The escape hatch polices itself: a well-formed pragma that suppresses
//! **no** finding (the code it justified was refactored away) is reported
//! as `unused-pragma` — stale pragmas must be deleted, not left to
//! license a future violation.

use crate::findings::{Finding, Rule};
use crate::lexer::Token;
use std::collections::{BTreeMap, BTreeSet};

/// Lints one source file in isolation, as a one-file workspace: the
/// token rule sees everything it would in the whole tree, and the
/// semantic rules see whatever call graph the single file carries. `crate_name`
/// is the crate's directory name (`core`, `data`, …, or `h2o-nas` for
/// the root package); `rel_path` is the workspace-relative path reported
/// in findings.
pub fn lint_source(crate_name: &str, rel_path: &str, src: &str) -> Vec<Finding> {
    crate::analysis::lint_files(&[crate::analysis::SourceFile {
        crate_name: crate_name.to_string(),
        rel_path: rel_path.to_string(),
        source: src.to_string(),
    }])
}

/// Runs the `float-ordering` rule over one file's non-trivia token
/// slice, suppressing pragma'd findings (and marking those pragmas used).
/// The `unused-pragma` post-pass runs later, in
/// [`crate::analysis::lint_files`], after the semantic rules have had
/// their chance to consume pragmas too.
pub(crate) fn token_pass(
    rel_path: &str,
    code: &[&Token],
    test_ranges: &BTreeMap<usize, usize>,
    pragmas: &mut Pragmas,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        if let Some(&end) = test_ranges.get(&i) {
            i = end;
            continue;
        }
        if let Some(finding) = float_ordering(code, i, rel_path) {
            if !pragmas.allows(Rule::FloatOrdering, finding.line) {
                findings.push(finding);
            }
        }
        i += 1;
    }
    findings
}

/// The escape-hatch post-pass: every well-formed pragma that suppressed
/// nothing is a stale escape hatch. Pragmas inside test items are exempt
/// — test code is outside every rule, so theirs can never suppress
/// anything.
pub(crate) fn unused_pragma_pass(
    rel_path: &str,
    code: &[&Token],
    test_ranges: &BTreeMap<usize, usize>,
    pragmas: &mut Pragmas,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let test_line_spans: Vec<(u32, u32)> = test_ranges
        .iter()
        .map(|(&start, &end)| (code[start].line, code[end - 1].line))
        .collect();
    for (line, rule, col) in pragmas.unused() {
        if test_line_spans
            .iter()
            .any(|&(lo, hi)| lo <= line && line <= hi)
        {
            continue;
        }
        if pragmas.allows(Rule::UnusedPragma, line) {
            continue;
        }
        findings.push(Finding {
            rule: Rule::UnusedPragma,
            file: rel_path.to_string(),
            line,
            col,
            message: format!(
                "`allow({rule})` suppresses nothing here — the finding it justified \
                 is gone (or the rule never fires in this crate); delete the stale \
                 pragma"
            ),
        });
    }
    findings
}

/// The `float-ordering` pattern anchored at token `i`:
/// `partial_cmp(..)` followed by a panicking or NaN-swallowing unwrap.
fn float_ordering(code: &[&Token], i: usize, rel_path: &str) -> Option<Finding> {
    let t = code[i];
    if !(t.is_ident("partial_cmp") && code.get(i + 1).is_some_and(|p| p.is_punct('('))) {
        return None;
    }
    let close = matching_close(code, i + 1, '(', ')')?;
    if !code.get(close + 1).is_some_and(|d| d.is_punct('.')) {
        return None;
    }
    let next = code.get(close + 2)?;
    let message = if next.is_any_ident(&["unwrap", "expect"]) {
        "partial_cmp().unwrap()/.expect() panics on NaN (rewards can be NaN under \
         diverged training) — use total_cmp"
            .to_string()
    } else if next.is_any_ident(&["unwrap_or", "unwrap_or_else", "unwrap_or_default"]) {
        format!(
            "partial_cmp().{}() swallows the NaN case: \"NaN compares equal to \
             everything\" is not transitive, so a sort using this comparator silently \
             mis-orders — use total_cmp",
            next.text
        )
    } else {
        return None;
    };
    Some(Finding {
        rule: Rule::FloatOrdering,
        file: rel_path.to_string(),
        line: t.line,
        col: t.col,
        message,
    })
}

/// Index of the token closing the group opened at `open_idx`, honouring
/// nesting of the same delimiter pair.
fn matching_close(code: &[&Token], open_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in code.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Test-item detection
// ---------------------------------------------------------------------------

/// Maps the index of each token starting a `#[cfg(test)]`/`#[test]` item
/// to the index one past that item's end. The walker jumps the whole
/// item, so nothing inside test modules or test functions is linted.
pub(crate) fn test_item_ranges(code: &[&Token]) -> BTreeMap<usize, usize> {
    let mut ranges = BTreeMap::new();
    let mut i = 0usize;
    while i < code.len() {
        if code[i].is_punct('#') && code.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let Some(attr_end) = matching_close(code, i + 1, '[', ']') else {
                break;
            };
            let attr = &code[i + 2..attr_end];
            // `test` present without `not`: matches #[test], #[cfg(test)],
            // #[cfg(all(test, …))] — and deliberately not #[cfg(not(test))].
            let is_test =
                attr.iter().any(|t| t.is_ident("test")) && !attr.iter().any(|t| t.is_ident("not"));
            if is_test {
                let end = skip_item(code, attr_end + 1);
                ranges.insert(i, end);
                i = end;
                continue;
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    ranges
}

/// Returns the index one past the item starting at `start`: consumes any
/// further attributes, then either a `{…}` body (functions, modules,
/// impls) or a `;`-terminated declaration, tracking delimiter depth so a
/// `;` inside a signature's generics or a nested block never ends the
/// scan early.
fn skip_item(code: &[&Token], start: usize) -> usize {
    let mut i = start;
    // Further attributes on the same item.
    while i < code.len()
        && code[i].is_punct('#')
        && code.get(i + 1).is_some_and(|t| t.is_punct('['))
    {
        match matching_close(code, i + 1, '[', ']') {
            Some(end) => i = end + 1,
            None => return code.len(),
        }
    }
    let (mut parens, mut brackets, mut braces) = (0i64, 0i64, 0i64);
    let mut entered_braces = false;
    while i < code.len() {
        let t = code[i];
        if t.is_punct('(') {
            parens += 1;
        } else if t.is_punct(')') {
            parens -= 1;
        } else if t.is_punct('[') {
            brackets += 1;
        } else if t.is_punct(']') {
            brackets -= 1;
        } else if t.is_punct('{') {
            braces += 1;
            entered_braces = true;
        } else if t.is_punct('}') {
            braces -= 1;
            if entered_braces && braces == 0 {
                return i + 1;
            }
        } else if t.is_punct(';') && parens == 0 && brackets == 0 && braces == 0 {
            return i + 1;
        }
        i += 1;
    }
    code.len()
}

// ---------------------------------------------------------------------------
// Pragmas
// ---------------------------------------------------------------------------

pub(crate) struct Pragmas {
    /// Line → (rule allowed with a valid justification → pragma column).
    by_line: BTreeMap<u32, BTreeMap<Rule, u32>>,
    /// `(line, rule)` pragmas that suppressed at least one finding.
    used: BTreeSet<(u32, Rule)>,
    /// Lines carrying at least one non-trivia token.
    code_lines: BTreeSet<u32>,
    /// Lines carrying at least one comment token.
    comment_lines: BTreeSet<u32>,
}

impl Pragmas {
    /// Whether `rule` is allowed at `line`: a pragma on the line itself,
    /// or on the run of comment-only lines directly above it. The
    /// allowing pragma is marked used (feeding the `unused-pragma` pass).
    pub(crate) fn allows(&mut self, rule: Rule, line: u32) -> bool {
        if self
            .by_line
            .get(&line)
            .is_some_and(|s| s.contains_key(&rule))
        {
            self.used.insert((line, rule));
            return true;
        }
        let mut l = line.saturating_sub(1);
        while l >= 1 && self.comment_lines.contains(&l) && !self.code_lines.contains(&l) {
            if self.by_line.get(&l).is_some_and(|s| s.contains_key(&rule)) {
                self.used.insert((l, rule));
                return true;
            }
            l -= 1;
        }
        false
    }

    /// Well-formed pragmas that never suppressed a finding, as
    /// `(line, rule, col)` in line order.
    pub(crate) fn unused(&self) -> Vec<(u32, Rule, u32)> {
        self.by_line
            .iter()
            .flat_map(|(&line, rules)| {
                rules
                    .iter()
                    .filter(move |&(&rule, _)| !self.used.contains(&(line, rule)))
                    .map(move |(&rule, &col)| (line, rule, col))
            })
            .collect()
    }
}

/// Scans every comment for `h2o-lint: allow(<rule>) -- <reason>`. A
/// pragma only registers when the rule id is known **and** the reason is
/// non-empty — an unjustified pragma suppresses nothing.
pub(crate) fn collect_pragmas(tokens: &[Token]) -> Pragmas {
    let mut by_line: BTreeMap<u32, BTreeMap<Rule, u32>> = BTreeMap::new();
    let mut code_lines = BTreeSet::new();
    let mut comment_lines = BTreeSet::new();
    for t in tokens {
        if t.is_trivia() {
            comment_lines.insert(t.line);
            // Doc comments are documentation, not directives: rustdoc
            // text quoting the pragma syntax (this linter's own docs do)
            // must not register as a live pragma — which the unused-pragma
            // pass would then flag as stale.
            let is_doc = ["///", "//!", "/**", "/*!"]
                .iter()
                .any(|prefix| t.text.starts_with(prefix));
            if is_doc {
                continue;
            }
            for (rule, reason) in parse_pragmas(&t.text) {
                if !reason.is_empty() {
                    by_line
                        .entry(t.line)
                        .or_default()
                        .entry(rule)
                        .or_insert(t.col);
                }
            }
        } else {
            code_lines.insert(t.line);
        }
    }
    Pragmas {
        by_line,
        used: BTreeSet::new(),
        code_lines,
        comment_lines,
    }
}

/// Extracts every `h2o-lint: allow(<rule>) -- <reason>` from one comment's
/// text. The reason runs to the end of the comment (line comments) or to
/// the closing delimiter (block comments).
fn parse_pragmas(comment: &str) -> Vec<(Rule, String)> {
    const KEY: &str = "h2o-lint: allow(";
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(at) = rest.find(KEY) {
        rest = &rest[at + KEY.len()..];
        let Some(close) = rest.find(')') else { break };
        let rule_id = rest[..close].trim();
        let after = rest[close + 1..].trim_start();
        if let Some(rule) = Rule::parse(rule_id) {
            if let Some(reason) = after.strip_prefix("--") {
                let reason = reason.trim().trim_end_matches("*/").trim();
                out.push((rule, reason.to_string()));
            }
        }
        rest = &rest[close + 1..];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Finding> {
        lint_source("core", "test.rs", src)
    }

    /// One `partial_cmp(..).unwrap()` site, the example every pragma test
    /// below suppresses (or fails to).
    const SORT: &str = "xs.sort_by(|a, b| a.partial_cmp(b).unwrap());";

    #[test]
    fn pragma_requires_reason() {
        // A reasonless pragma never registers, so it is neither an escape
        // hatch nor a stale one: only the underlying finding fires.
        let bare =
            format!("fn f(xs: &mut [f64]) {{ {SORT} }} // h2o-lint: allow(float-ordering)\n");
        let found = lint(&bare);
        assert_eq!(found.len(), 1, "reasonless pragma ignored");
        assert_eq!(found[0].rule, Rule::FloatOrdering);
        let justified = format!(
            "fn f(xs: &mut [f64]) {{ {SORT} }} // h2o-lint: allow(float-ordering) -- finite\n"
        );
        assert!(lint(&justified).is_empty());
    }

    #[test]
    fn pragma_on_preceding_comment_line() {
        let src = format!("// h2o-lint: allow(float-ordering) -- inputs are finite\n{SORT}\n");
        assert!(lint(&src).is_empty());
    }

    #[test]
    fn pragma_does_not_leak_past_code_lines() {
        let src = format!(
            "// h2o-lint: allow(float-ordering) -- only for the next line\n{SORT}\n{SORT}\n"
        );
        let found = lint(&src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 3);
    }

    #[test]
    fn cfg_test_module_is_exempt() {
        let src = format!(
            "pub fn lib() {{}}\n#[cfg(test)]\nmod tests {{\n    #[test]\n    \
             fn t() {{ let mut xs = vec![1.0]; {SORT} }}\n}}\n"
        );
        assert!(lint(&src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = format!("#[cfg(not(test))]\nfn f(xs: &mut [f64]) {{ {SORT} }}\n");
        assert_eq!(lint(&src).len(), 1);
    }

    #[test]
    fn stale_pragma_is_a_finding() {
        let src = "\
// h2o-lint: allow(float-ordering) -- stale: the sort now uses total_cmp
fn f(xs: &mut [f64]) { xs.sort_by(|a, b| a.total_cmp(b)); }
";
        let found = lint(src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, Rule::UnusedPragma);
        assert_eq!(found[0].line, 1);
        assert!(found[0].message.contains("allow(float-ordering)"));
    }

    #[test]
    fn pragma_inside_test_code_is_exempt_from_unused() {
        let src = "\
pub fn lib() {}
#[cfg(test)]
mod tests {
    // h2o-lint: allow(float-ordering) -- tests may unwrap anyway
    #[test]
    fn t() {}
}
";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn doc_comment_pragma_text_is_not_a_pragma() {
        // Quoting the pragma syntax in rustdoc neither suppresses the
        // finding below nor registers as a stale pragma.
        let src = format!(
            "/// Use `// h2o-lint: allow(float-ordering) -- reason` to suppress.\n\
             fn f(xs: &mut [f64]) {{ {SORT} }}\n"
        );
        let found = lint(&src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, Rule::FloatOrdering);
    }

    #[test]
    fn string_contents_never_fire() {
        let src = "fn f() { let s = \"a.partial_cmp(b).unwrap()\"; }\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn partial_cmp_unwrap_or_variants_all_fire() {
        for call in [
            "unwrap_or(std::cmp::Ordering::Equal)",
            "unwrap_or_else(|| std::cmp::Ordering::Equal)",
            "unwrap_or_default()",
        ] {
            let src = format!("fn f(a: f64, b: f64) {{ let _ = a.partial_cmp(&b).{call}; }}\n");
            let found = lint(&src);
            assert_eq!(found.len(), 1, "partial_cmp().{call} should fire");
            assert_eq!(found[0].rule, Rule::FloatOrdering);
        }
    }

    #[test]
    fn unwrap_or_without_partial_cmp_is_fine() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n";
        assert!(lint(src).is_empty());
    }
}
