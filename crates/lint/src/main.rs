//! The `h2o-lint` binary: lints the workspace it is run from, prints one
//! line per finding, exits non-zero when any contract is violated.
//!
//! ```text
//! h2o-lint
//! ```
//!
//! Exit codes: 0 = clean, 1 = findings, 2 = usage or I/O error.

#![warn(clippy::todo, clippy::unreachable)]

use std::process::ExitCode;

fn main() -> ExitCode {
    if let Some(arg) = std::env::args().nth(1) {
        if arg != "-h" && arg != "--help" {
            return usage(&format!("unknown argument '{arg}'"));
        }
        println!(
            "h2o-lint: workspace invariant checker\n\n\
             USAGE: h2o-lint\n\n\
             Lints the workspace containing the current directory against the\n\
             contracts clippy cannot check (see DESIGN.md, \"static-analysis\n\
             contract\"). Rules:"
        );
        for rule in h2o_lint::Rule::ALL {
            println!("  - {rule}");
        }
        return ExitCode::SUCCESS;
    }

    let Some(root) = std::env::current_dir()
        .ok()
        .and_then(|cwd| h2o_lint::find_workspace_root(&cwd))
    else {
        return usage("could not locate the workspace root; run from inside the workspace");
    };

    let report = match h2o_lint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("h2o-lint: error: {e}");
            return ExitCode::from(2);
        }
    };

    for finding in &report.findings {
        println!("{finding}");
    }
    if report.is_clean() {
        println!(
            "h2o-lint: workspace clean ({} files checked)",
            report.files_checked
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "h2o-lint: {} finding(s) in {} files checked",
            report.findings.len(),
            report.files_checked
        );
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("h2o-lint: {msg}\nUSAGE: h2o-lint");
    ExitCode::from(2)
}
