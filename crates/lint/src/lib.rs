//! h2o-lint: the workspace invariant checker.
//!
//! The repository's most valuable property — bit-identical search output
//! across worker counts, cache states, and kill/resume — is a *contract*
//! (DESIGN.md, "determinism contract"), and contracts rot when they are
//! only enforced by end-to-end tests that fire long after the offending
//! line was merged. Most of the static-analysis contract is clippy lints
//! (the workspace `clippy.toml` plus crate-root attributes: wall clock,
//! ambient RNG, unordered collections, panics, printing, `process::exit`,
//! `unreachable!`/`todo!`). This crate enforces the part clippy cannot
//! express:
//!
//! | rule | contract protected |
//! |------|--------------------|
//! | `float-ordering` | NaN robustness: `total_cmp`, never `partial_cmp().unwrap()` or a NaN-swallowing `.unwrap_or(..)` fallback |
//! | `nondet-taint` | cross-file determinism: no call path carries a nondeterminism source's value into `core`/`exec`/`eval`/`hwsim`/`ckpt` |
//! | `fingerprint-completeness` | value visibility: every field of a fingerprinted struct is hashed (or pragma'd value-invisible) |
//! | `float-cast-on-reward-path` | reward integrity: no silent `as f64`/`as f32` rounding in fns call-graph-reachable from the reward computation |
//! | `unused-pragma` | escape-hatch hygiene: an `allow` pragma that suppresses nothing must be deleted |
//!
//! `float-ordering` is a token-pattern matcher. The three *semantic*
//! rules run over a workspace symbol index ([`parser`] items →
//! [`graph::WorkspaceIndex`]) with a conservative name-resolved call
//! graph — that is what lets `nondet-taint` catch a wall-clock read
//! laundered through a helper crate, which no per-file check can see.
//!
//! Run it with `cargo run -p h2o-lint`; it prints one line per finding
//! and exits non-zero when any un-allowed finding exists, and ci.sh runs
//! it as a dedicated stage. See DESIGN.md for the rule rationale and the
//! `// h2o-lint: allow(<rule>) -- <reason>` escape hatch.

#![forbid(unsafe_code)]
#![warn(clippy::todo, clippy::unreachable)]
#![warn(clippy::dbg_macro, clippy::print_stderr, clippy::print_stdout)]

pub mod analysis;
pub mod findings;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod semantic;

pub use analysis::{lint_files, SourceFile};
pub use findings::{Finding, Rule};
pub use rules::lint_source;

use std::io;
use std::path::{Path, PathBuf};

/// The result of linting a workspace tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReport {
    /// Un-allowed findings, in (file, line, col) order.
    pub findings: Vec<Finding>,
    /// Source files visited.
    pub files_checked: usize,
}

impl LintReport {
    /// Whether the workspace satisfies every contract.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Lints every member crate's `src/` tree plus the root package's
/// `src/`, skipping `tests/`, `examples/`, `benches/` and `third_party/`
/// entirely (test and vendored code is outside the contracts).
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree; a missing
/// `crates/` directory is an error (not the workspace root).
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let mut units: Vec<(String, PathBuf)> = Vec::new();
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "{} has no crates/ directory — not the workspace root?",
                root.display()
            ),
        ));
    }
    let mut members: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_dir() && p.join("Cargo.toml").is_file())
        .collect();
    members.sort();
    for member in members {
        let name = member
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        units.push((name, member.join("src")));
    }
    // The root `h2o-nas` package (the CLI) participates in the
    // workspace-wide rules under its package name.
    units.push(("h2o-nas".to_string(), root.join("src")));

    let mut sources: Vec<SourceFile> = Vec::new();
    for (crate_name, src_dir) in units {
        if !src_dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&src_dir, &mut files)?;
        files.sort();
        for file in files {
            let source = std::fs::read_to_string(&file)?;
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            sources.push(SourceFile {
                crate_name: crate_name.clone(),
                rel_path: rel,
                source,
            });
        }
    }
    // One lint_files call over the whole tree: the semantic rules need
    // every file's symbols in a single index to see cross-crate paths.
    let files_checked = sources.len();
    Ok(LintReport {
        findings: lint_files(&sources),
        files_checked,
    })
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Walks upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]` — how the binary finds the root when run from a crate
/// subdirectory.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
