//! Workspace-level orchestration: per-file token rule → symbol index →
//! call graph → semantic rules → escape-hatch post-pass.
//!
//! [`lint_files`] is the one entry point every mode funnels through:
//! `lint_workspace` hands it the whole tree, `lint_source` hands it a
//! single file (the token rule sees all it ever does, the semantic rules
//! a one-file call graph). The ordering matters: the `unused-pragma` pass
//! must run *after* both the token and the semantic rules, because either
//! may be what a pragma suppresses.

use crate::findings::Finding;
use crate::graph::WorkspaceIndex;
use crate::lexer::{lex, Token};
use crate::parser::parse_items;
use crate::rules;
use crate::semantic;

/// One source file presented to the analyzer.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// The owning crate's directory name (`core`, …, or `h2o-nas`).
    pub crate_name: String,
    /// Workspace-relative path, as reported in findings.
    pub rel_path: String,
    pub source: String,
}

/// Lints a set of files as one workspace, returning findings in
/// `(file, line, col, rule)` order.
pub fn lint_files(files: &[SourceFile]) -> Vec<Finding> {
    // Per-file analysis: lex, pragma table, test ranges, token rule.
    let tokens_per_file: Vec<Vec<Token>> = files.iter().map(|f| lex(&f.source)).collect();
    let code_per_file: Vec<Vec<&Token>> = tokens_per_file
        .iter()
        .map(|tokens| tokens.iter().filter(|t| !t.is_trivia()).collect())
        .collect();
    let mut pragmas: Vec<rules::Pragmas> = tokens_per_file
        .iter()
        .map(|tokens| rules::collect_pragmas(tokens))
        .collect();
    let test_ranges: Vec<_> = code_per_file
        .iter()
        .map(|code| rules::test_item_ranges(code))
        .collect();
    let mut findings: Vec<Vec<Finding>> = files
        .iter()
        .enumerate()
        .map(|(i, f)| {
            rules::token_pass(
                &f.rel_path,
                &code_per_file[i],
                &test_ranges[i],
                &mut pragmas[i],
            )
        })
        .collect();

    // Workspace pass: parse items, build the symbol index + call graph,
    // run the semantic rules.
    let metas: Vec<(String, String)> = files
        .iter()
        .map(|f| (f.crate_name.clone(), f.rel_path.clone()))
        .collect();
    let items_per_file: Vec<_> = code_per_file
        .iter()
        .zip(&test_ranges)
        .map(|(code, ranges)| parse_items(code, ranges))
        .collect();
    let index = WorkspaceIndex::build(&metas, &items_per_file, &code_per_file);
    semantic::run(&index, &code_per_file, &mut pragmas, &mut findings);

    // Escape-hatch post-pass, then a stable global order.
    let mut all: Vec<Finding> = Vec::new();
    for (i, f) in files.iter().enumerate() {
        all.append(&mut findings[i]);
        all.extend(rules::unused_pragma_pass(
            &f.rel_path,
            &code_per_file[i],
            &test_ranges[i],
            &mut pragmas[i],
        ));
    }
    all.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    all
}
