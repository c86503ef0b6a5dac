//! Bad input at the `h2o` command line is a typed error, never a panic:
//! every invocation below must print an `error:` line and exit with code 1.

use std::path::Path;
use std::process::Command;

/// A checkpoint directory whose step-2 snapshot cannot be written: a
/// directory sits where the atomic writer creates its temp file.
fn blocked_checkpoint_dir(root: &Path, name: &str) -> String {
    let dir = root.join(name);
    std::fs::create_dir_all(dir.join("ckpt-00000002.tmp")).expect("block the step-2 write");
    dir.to_str().expect("utf-8 path").to_string()
}

/// `args` extended to a 3-step run that checkpoints every 2 steps into `dir`.
fn checkpointing<'a>(args: &[&'a str], dir: &'a str) -> Vec<&'a str> {
    let mut argv = args.to_vec();
    argv.extend(["--steps", "3", "--shards", "2", "--checkpoint-every", "2"]);
    argv.extend(["--checkpoint-dir", dir]);
    argv
}

/// An HLO text file holding one node line, for `--hlo` cases.
fn hlo_file(root: &Path, name: &str, node: &str) -> String {
    let path = root.join(format!("{name}.hlo"));
    std::fs::write(
        &path,
        format!("graph \"x\" dtype=f32 {{\n  %0 = {node}\n}}\n"),
    )
    .expect("write the HLO file");
    path.to_str().expect("utf-8 path").to_string()
}

#[test]
fn bad_input_exits_1_with_an_error_and_no_panic() {
    let root = std::env::temp_dir().join(format!("h2o_cli_errors_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dlrm_ckpt = blocked_checkpoint_dir(&root, "dlrm");
    let nodes_ckpt = blocked_checkpoint_dir(&root, "nodes");
    let oneshot_ckpt = blocked_checkpoint_dir(&root, "oneshot");
    let hlo = [
        ("parens", ")x("),
        (
            "conv_stride",
            "conv2d(batch=1, h=8, w=8, c_in=3, c_out=4, kh=3, kw=3, stride=0)",
        ),
        (
            "depthwise_stride",
            "depthwise_conv2d(batch=1, h=4, w=4, c=4, kh=3, kw=3, stride=0)",
        ),
        ("pool_window", "pool(batch=1, h=4, w=4, c=4, window=0)"),
        (
            "nan_ops",
            "elementwise(elems=4, ops_per_elem=NaN, label=\"relu\")",
        ),
        ("negative_bytes", "all_to_all(bytes_per_chip=-5)"),
    ]
    .map(|(name, node)| hlo_file(&root, name, node));
    // A checkpoint at step 2 of 3, for a resume whose --steps lies before it.
    let done_ckpt = root.join("done").to_str().expect("utf-8 path").to_string();
    let status = Command::new(env!("CARGO_BIN_EXE_h2o"))
        .args(checkpointing(&["search", "--domain", "dlrm"], &done_ckpt))
        .output()
        .expect("h2o binary runs")
        .status;
    assert!(status.success(), "the checkpointing run exits 0");
    let mut cases: Vec<Vec<&str>> = vec![
        vec!["search", "--domain", "dlrm", "--shards", "0"],
        vec!["search", "--domain", "dlrm", "--steps", "0"],
        vec!["search", "--domain", "dlrm-oneshot", "--shards", "0"],
        vec!["search", "--domain", "dlrm-oneshot", "--steps", "0"],
        checkpointing(&["search", "--domain", "dlrm"], &dlrm_ckpt),
        checkpointing(&["search", "--domain", "dlrm", "--nodes", "2"], &nodes_ckpt),
        checkpointing(&["search", "--domain", "dlrm-oneshot"], &oneshot_ckpt),
        [
            "search", "--domain", "dlrm", "--steps", "1", "--shards", "2", "--resume",
        ]
        .into_iter()
        .chain(["--checkpoint-dir", &done_ckpt])
        .collect(),
        vec!["search", "--domain", "dlrm", "--steps", "two"],
        vec!["search", "--domain", "dlrm", "--workers", "-1"],
        vec!["search", "--domain", "dlrm", "--budget-ms", "0"],
        vec!["search", "--domain", "dlrm", "--budget-ms", "NaN"],
        vec!["search", "--domain", "dlrm", "--eval-cache-capacity", "0"],
        vec!["sweep", "--model", "nope"],
        vec!["sweep", "--model", "dlrm", "--load", "1.5"],
    ];
    cases.extend(
        hlo.iter()
            .map(|path| vec!["simulate", "--hlo", path.as_str()]),
    );
    let failures: Vec<String> = cases
        .iter()
        .filter_map(|args| {
            let out = Command::new(env!("CARGO_BIN_EXE_h2o"))
                .args(args)
                .output()
                .expect("h2o binary runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            let typed = out.status.code() == Some(1)
                && stderr.contains("error:")
                && !stdout.contains("panicked")
                && !stderr.contains("panicked");
            (!typed).then(|| {
                format!(
                    "h2o {}: exit {:?}\n{stderr}",
                    args.join(" "),
                    out.status.code()
                )
            })
        })
        .collect();
    std::fs::remove_dir_all(&root).ok();
    assert!(
        failures.is_empty(),
        "expected exit 1 with an error line:\n{}",
        failures.join("\n")
    );
}
