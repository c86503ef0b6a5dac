//! The cross-process determinism proof (the headline artifact of the
//! multi-process search): the `h2o` binary run end-to-end must write
//! byte-identical telemetry CSVs whether candidates are evaluated
//! in-process or across 1, 2, or 4 worker node processes, over Unix
//! sockets or TCP, with the `cached` or the `sim` backend, and through a
//! kill-and-resume cycle — the history CSV compared modulo its wall-clock
//! column, exactly as the single-process determinism suite does.
//!
//! Chaos coverage rides along, in two tiers. The fault-tolerance
//! contract (DESIGN.md): a node killed mid-search at any point — before
//! its first batch, mid-batch, or at a batch boundary — must be absorbed
//! by redispatching its unfinished jobs to survivors (plus a respawn when
//! the workers are spawn-managed), completing the run *without resume*
//! with CSVs byte-identical to the uninterrupted serial golden and the
//! churn visible in the metrics export. Only when the pool drops below
//! `--min-live-nodes` (or the sole external node dies with nobody to
//! respawn it) does the run fail — with a typed error naming the step,
//! after which a resume from the last checkpoint must still reproduce
//! the golden run.

use h2o_nas::core::encode_eval_job;
use h2o_nas::eval::{BackendSpec, EvalScenario};
use h2o_nas::exec::{DistributedPool, ExecError, NodeAddr, PoolOptions};
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// A per-test temp dir: process id + test name, so parallel test threads
/// and stale runs never collide.
fn unique_temp_dir(test_name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "h2o_dist_determinism_{}_{}",
        std::process::id(),
        test_name
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs `h2o search --domain dlrm --steps 6 --shards 4` plus `extra`
/// flags, writing CSVs to `<dir>/<stem>_*` when a stem is given.
fn run_search(dir: &Path, stem: Option<&str>, extra: &[&str]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_h2o"));
    cmd.args([
        "search", "--domain", "dlrm", "--steps", "6", "--shards", "4",
    ]);
    cmd.args(extra);
    if let Some(stem) = stem {
        cmd.arg("--csv").arg(dir.join(stem));
    }
    cmd.output().expect("h2o binary runs")
}

fn assert_success(out: &std::process::Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Reads `<stem>_history.csv` (wall-clock column stripped) and
/// `<stem>_candidates.csv`.
fn read_csvs(dir: &Path, stem: &str) -> (String, String) {
    let text = |suffix: &str| {
        let path = dir.join(format!("{stem}{suffix}"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path:?}: {e}"))
    };
    let history: String = text("_history.csv")
        .lines()
        .map(|line| {
            let (rest, _timing) = line.rsplit_once(',').expect("timing column");
            format!("{rest}\n")
        })
        .collect();
    (history, text("_candidates.csv"))
}

#[test]
fn node_counts_one_two_four_match_the_serial_run() {
    let dir = unique_temp_dir("node_counts");
    let out = run_search(&dir, Some("serial"), &[]);
    assert_success(&out, "serial run");
    let golden = read_csvs(&dir, "serial");
    for nodes in ["1", "2", "4"] {
        let stem = format!("nodes{nodes}");
        let out = run_search(&dir, Some(&stem), &["--nodes", nodes]);
        assert_success(&out, &format!("{nodes}-node run"));
        assert_eq!(
            read_csvs(&dir, &stem),
            golden,
            "--nodes {nodes} diverged from the serial run"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_off_distributed_matches_cache_off_serial() {
    // The worker processes keep their own private eval caches; cache
    // state is value-invisible memoization, so uncached (`sim`) runs must
    // agree with cached runs AND distributed `sim` must agree with serial
    // `sim`.
    let dir = unique_temp_dir("cache_off");
    let out = run_search(&dir, Some("serial_on"), &[]);
    assert_success(&out, "serial cache-on run");
    let out = run_search(&dir, Some("serial_off"), &["--eval-backend", "sim"]);
    assert_success(&out, "serial cache-off run");
    let out = run_search(
        &dir,
        Some("dist_off"),
        &["--eval-backend", "sim", "--nodes", "2"],
    );
    assert_success(&out, "2-node cache-off run");
    let golden = read_csvs(&dir, "serial_on");
    assert_eq!(
        read_csvs(&dir, "serial_off"),
        golden,
        "the eval cache must be value-invisible"
    );
    assert_eq!(
        read_csvs(&dir, "dist_off"),
        golden,
        "distributed cache-off diverged"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn distributed_resume_from_mid_run_checkpoint_matches_golden() {
    // Full 6-step serial golden vs: 4 distributed steps with
    // checkpointing, then a distributed --resume to 6. Byte-identical.
    let dir = unique_temp_dir("dist_resume");
    let ckpt = dir.join("ckpt");
    let ckpt = ckpt.to_str().expect("utf-8 path");
    let out = run_search(&dir, Some("full"), &[]);
    assert_success(&out, "serial golden run");
    let out = Command::new(env!("CARGO_BIN_EXE_h2o"))
        .args([
            "search", "--domain", "dlrm", "--steps", "4", "--shards", "4",
        ])
        .args([
            "--nodes",
            "2",
            "--checkpoint-dir",
            ckpt,
            "--checkpoint-every",
            "2",
        ])
        .output()
        .expect("h2o binary runs");
    assert_success(&out, "truncated distributed run");
    let out = run_search(
        &dir,
        Some("resumed"),
        &[
            "--nodes",
            "2",
            "--checkpoint-dir",
            ckpt,
            "--checkpoint-every",
            "2",
            "--resume",
        ],
    );
    assert_success(&out, "resumed distributed run");
    assert_eq!(
        read_csvs(&dir, "resumed"),
        read_csvs(&dir, "full"),
        "a distributed resume must reproduce the uninterrupted serial run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Spawns a `node-worker` subprocess and returns it with the address it
/// announced on stdout (resolving `tcp:...:0` to the OS-chosen port).
fn spawn_worker(args: &[&str]) -> (std::process::Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_h2o"))
        .arg("node-worker")
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .expect("node-worker spawns");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .expect("worker announces its address");
    let addr = line
        .trim()
        .strip_prefix("node-worker listening ")
        .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
        .to_string();
    (child, addr)
}

#[test]
fn tcp_nodes_match_the_serial_run() {
    let dir = unique_temp_dir("tcp_nodes");
    let out = run_search(&dir, Some("serial"), &[]);
    assert_success(&out, "serial run");
    let (mut worker_a, addr_a) = spawn_worker(&["--addr", "tcp:127.0.0.1:0", "--domain", "dlrm"]);
    let (mut worker_b, addr_b) = spawn_worker(&["--addr", "tcp:127.0.0.1:0", "--domain", "dlrm"]);
    let nodes = format!("{addr_a},{addr_b}");
    let out = run_search(&dir, Some("tcp"), &["--nodes", &nodes]);
    // The controller sends Shutdown frames, so the workers exit on their
    // own; reap them before asserting so failures don't leak processes.
    let _ = worker_a.kill();
    let _ = worker_b.kill();
    let _ = worker_a.wait();
    let _ = worker_b.wait();
    assert_success(&out, "2-TCP-node run");
    assert_eq!(
        read_csvs(&dir, "tcp"),
        read_csvs(&dir, "serial"),
        "TCP transport diverged from the serial run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn invalid_samples_get_a_worker_error_instead_of_a_node_death() {
    // A job whose sample does not fit the space must come back as an
    // Error frame (ExecError::Worker) from a worker that stays up, not
    // kill the process and surface as a node loss.
    let (mut worker, addr) = spawn_worker(&["--addr", "tcp:127.0.0.1:0", "--domain", "dlrm"]);
    let scenario = EvalScenario::new("dlrm", BackendSpec::Simulator).expect("dlrm scenario");
    let space = scenario.space();
    let options = PoolOptions {
        max_node_retries: 0,
        ..PoolOptions::default()
    };
    let addr = NodeAddr::parse(&addr).expect("announced address");
    let mut pool = DistributedPool::connect(&[addr], scenario.fingerprint(), options)
        .expect("handshake with the worker");
    let mut out_of_range = space.baseline_sample();
    out_of_range[0] = space.decisions()[0].choices;
    for sample in [vec![0, 0, 0], out_of_range] {
        match pool.execute(vec![encode_eval_job(0, 0, &sample)]) {
            Err(ExecError::Worker { message, .. }) => {
                assert!(message.contains("invalid sample"), "{message}")
            }
            other => panic!("expected a worker error, got {other:?}"),
        }
    }
    let valid = pool.execute(vec![encode_eval_job(0, 0, &space.baseline_sample())]);
    pool.shutdown();
    let _ = worker.kill();
    let _ = worker.wait();
    valid.expect("the worker still evaluates a valid sample");
}

#[test]
fn scenario_mismatch_fails_the_handshake_with_a_typed_error() {
    let dir = unique_temp_dir("mismatch");
    // Worker evaluates the CNN space; the controller searches DLRM.
    let (mut worker, addr) = spawn_worker(&["--addr", "tcp:127.0.0.1:0", "--domain", "cnn"]);
    let out = run_search(&dir, None, &["--nodes", &addr]);
    let _ = worker.kill();
    let _ = worker.wait();
    assert!(
        !out.status.success(),
        "a domain-mismatched worker must fail the handshake"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("scenario fingerprint"),
        "expected a scenario-mismatch error, got: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Like [`run_search`], with extra environment variables on the child —
/// how the spawn-managed chaos runs inject `H2O_CHAOS_EXIT_AFTER` /
/// `H2O_CHAOS_NODE` into the controller (which forwards them to exactly
/// one worker as `--chaos-exit-after`).
fn run_search_env(
    dir: &Path,
    stem: Option<&str>,
    extra: &[&str],
    envs: &[(&str, &str)],
) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_h2o"));
    cmd.args([
        "search", "--domain", "dlrm", "--steps", "6", "--shards", "4",
    ]);
    cmd.args(extra);
    for (key, value) in envs {
        cmd.env(key, value);
    }
    if let Some(stem) = stem {
        cmd.arg("--csv").arg(dir.join(stem));
    }
    cmd.output().expect("h2o binary runs")
}

/// Reads the value of an exact metric series (name including any labels)
/// from a Prometheus text export.
fn metric_value(text: &str, series: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("metric {series} not found in export:\n{text}"))
}

#[test]
fn chaos_matrix_killed_node_completes_without_resume_and_matches_golden() {
    // The tentpole proof: one of N spawn-managed nodes dies before its
    // first batch (exit-after 0), at a batch boundary (exit-after 4 = all
    // of steps 0-1 for its 2 shards at 2 nodes), or mid-batch
    // (exit-after 5) — and the run still completes WITHOUT resume,
    // byte-identical to the uninterrupted serial golden, because
    // unfinished jobs are redispatched (and the worker respawned) while
    // submission-order reduction keeps placement invisible.
    let dir = unique_temp_dir("chaos_matrix");
    let out = run_search(&dir, Some("golden"), &[]);
    assert_success(&out, "serial golden run");
    let golden = read_csvs(&dir, "golden");
    for (nodes, chaos_node, exit_after) in [
        ("2", "0", "0"),
        ("2", "0", "4"),
        ("2", "1", "5"),
        ("4", "2", "3"),
    ] {
        let stem = format!("chaos_n{nodes}_c{chaos_node}_x{exit_after}");
        let metrics = dir.join(format!("{stem}.prom"));
        let out = run_search_env(
            &dir,
            Some(&stem),
            &[
                "--nodes",
                nodes,
                "--metrics-out",
                metrics.to_str().expect("utf-8 path"),
            ],
            &[
                ("H2O_CHAOS_EXIT_AFTER", exit_after),
                ("H2O_CHAOS_NODE", chaos_node),
            ],
        );
        assert_success(
            &out,
            &format!("{nodes}-node run with node {chaos_node} dying after {exit_after} jobs"),
        );
        assert_eq!(
            read_csvs(&dir, &stem),
            golden,
            "chaos run {stem} diverged from the serial golden"
        );
        let prom = std::fs::read_to_string(&metrics).expect("metrics export");
        assert!(
            metric_value(&prom, "h2o_exec_node_deaths_total") >= 1.0,
            "{stem}: the death must be counted in the export"
        );
        assert!(
            metric_value(&prom, "h2o_exec_redispatched_jobs_total") >= 1.0,
            "{stem}: redispatched jobs must be counted in the export"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_spawn_managed_node_is_respawned_and_reconnected() {
    // With --node-retries the controller revives the dead worker: the
    // reconnect counter must show it, and the per-node liveness gauges
    // must read 1 again at export time.
    let dir = unique_temp_dir("chaos_respawn");
    let out = run_search(&dir, Some("golden"), &[]);
    assert_success(&out, "serial golden run");
    let metrics = dir.join("respawn.prom");
    let out = run_search_env(
        &dir,
        Some("respawned"),
        &[
            "--nodes",
            "2",
            "--node-retries",
            "2",
            "--metrics-out",
            metrics.to_str().expect("utf-8 path"),
        ],
        &[("H2O_CHAOS_EXIT_AFTER", "4"), ("H2O_CHAOS_NODE", "0")],
    );
    assert_success(&out, "respawning chaos run");
    assert_eq!(
        read_csvs(&dir, "respawned"),
        read_csvs(&dir, "golden"),
        "respawning chaos run diverged from the serial golden"
    );
    let prom = std::fs::read_to_string(&metrics).expect("metrics export");
    assert!(metric_value(&prom, "h2o_exec_node_deaths_total") >= 1.0);
    assert!(
        metric_value(&prom, "h2o_exec_node_reconnects_total") >= 1.0,
        "the respawned worker must reconnect"
    );
    for node in ["0", "1"] {
        assert_eq!(
            metric_value(&prom, &format!("h2o_exec_node_live{{node=\"{node}\"}}")),
            1.0,
            "node {node} must be live at the end of the run"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_tcp_external_node_death_degrades_to_the_survivor() {
    // External (address-list) workers have no respawner: the pool must
    // degrade to the surviving node and still finish byte-identically.
    let dir = unique_temp_dir("chaos_tcp");
    let out = run_search(&dir, Some("serial"), &[]);
    assert_success(&out, "serial run");
    let (mut chaotic, addr_a) = spawn_worker(&[
        "--addr",
        "tcp:127.0.0.1:0",
        "--domain",
        "dlrm",
        "--chaos-exit-after",
        "5",
    ]);
    let (mut healthy, addr_b) = spawn_worker(&["--addr", "tcp:127.0.0.1:0", "--domain", "dlrm"]);
    let nodes = format!("{addr_a},{addr_b}");
    let out = run_search(&dir, Some("tcp_chaos"), &["--nodes", &nodes]);
    let _ = chaotic.kill();
    let _ = healthy.kill();
    let _ = chaotic.wait();
    let _ = healthy.wait();
    assert_success(&out, "TCP chaos run");
    assert_eq!(
        read_csvs(&dir, "tcp_chaos"),
        read_csvs(&dir, "serial"),
        "degraded TCP run diverged from the serial run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_below_min_live_nodes_fails_with_a_typed_step_error() {
    // With the respawner disabled (--node-retries 0) a single death drops
    // a 2-node pool below --min-live-nodes 2: the run must fail with the
    // typed eval error naming the step, not hang or succeed degraded.
    let dir = unique_temp_dir("chaos_min_live");
    let out = run_search_env(
        &dir,
        None,
        &[
            "--nodes",
            "2",
            "--min-live-nodes",
            "2",
            "--node-retries",
            "0",
        ],
        &[("H2O_CHAOS_EXIT_AFTER", "4"), ("H2O_CHAOS_NODE", "0")],
    );
    assert!(
        !out.status.success(),
        "dropping below --min-live-nodes must fail the run"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("candidate collection failed at step"),
        "expected a typed eval error naming the step, got: {stderr}"
    );
    assert!(
        stderr.contains("below the configured minimum"),
        "expected the NodesExhausted rendering, got: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_node_surfaces_typed_error_and_checkpoint_resume_recovers() {
    let dir = unique_temp_dir("chaos");
    let ckpt = dir.join("ckpt");
    let ckpt = ckpt.to_str().expect("utf-8 path");
    let out = run_search(&dir, Some("golden"), &[]);
    assert_success(&out, "serial golden run");

    // The worker answers 12 jobs (steps 0..3 at 4 shards), then vanishes
    // mid-step-3 without a Shutdown or Error frame — indistinguishable
    // from a crashed node. It is the pool's ONLY node and it is external
    // (no respawner), so the pool exhausts below its min-live floor of 1
    // and the run fails typed. Checkpoints land after step 2 (and would
    // land at 4 and 6); the last one before death is step 2.
    let sock = dir.join("chaos.sock");
    let addr = format!("unix:{}", sock.display());
    let (mut worker, _addr) = spawn_worker(&[
        "--addr",
        &addr,
        "--domain",
        "dlrm",
        "--chaos-exit-after",
        "12",
    ]);
    let out = Command::new(env!("CARGO_BIN_EXE_h2o"))
        .args([
            "search", "--domain", "dlrm", "--steps", "6", "--shards", "4",
        ])
        .args(["--nodes", &addr, "--node-timeout-ms", "10000"])
        .args(["--checkpoint-dir", ckpt, "--checkpoint-every", "2"])
        .output()
        .expect("h2o binary runs");
    let _ = worker.kill();
    let _ = worker.wait();
    assert!(
        !out.status.success(),
        "a search whose only node died must fail"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("candidate collection failed at step 3"),
        "expected a typed eval error naming the failed step, got: {stderr}"
    );

    // The checkpoint from step 2 is intact: a serial resume completes the
    // search and reproduces the golden run byte-for-byte.
    let out = run_search(
        &dir,
        Some("recovered"),
        &[
            "--checkpoint-dir",
            ckpt,
            "--checkpoint-every",
            "2",
            "--resume",
        ],
    );
    assert_success(&out, "post-chaos resume");
    assert_eq!(
        read_csvs(&dir, "recovered"),
        read_csvs(&dir, "golden"),
        "resume after node death must reproduce the uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
}
