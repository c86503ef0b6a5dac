//! Multi-process search plumbing shared by the `h2o` CLI's controller
//! side (`--nodes`) and its `node-worker` subprocess mode.
//!
//! The evaluation recipe itself — the [`EvalScenario`] both sides agree
//! on, and the `BackendSpec → EvalBackend` factory every evaluator is
//! built through — lives in [`crate::eval`] (`h2o-eval`) and is
//! re-exported here for convenience. This module keeps the process
//! plumbing: the worker serve loop and the local cluster spawner.
//!
//! Determinism across process counts holds because both execution paths
//! run the *same* evaluator closure from
//! [`EvalScenario::shard_evaluator`]: the in-process path hands it to
//! `ParallelStage` (one per shard, shared backend handle), the worker
//! path hosts one per process behind `h2o_exec::serve`. Backends are
//! value-invisible to topology — caches memoize value-identical results,
//! and the model-served backend's frozen-generation rule (see the
//! `h2o-eval` docs) guarantees served values are pure functions of the
//! candidate — so process-local state cannot perturb the outcome.

use crate::core::{decode_eval_job, encode_eval_result};
use crate::exec::{serve, NodeAddr, NodeListener};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

pub use crate::eval::{Domain, EvalScenario};

/// How long a freshly-spawned worker waits for its controller to connect
/// before giving up and exiting with a timeout error.
const ACCEPT_TIMEOUT: Duration = Duration::from_secs(60);

/// Runs the `node-worker` serve loop: bind, pass the resolved address to
/// `announce` (the CLI prints `node-worker listening <addr>` on stdout —
/// how callers discover a TCP port chosen by the OS), accept one
/// controller, then answer Job frames until Shutdown or peer close. A job
/// whose sample does not fit the scenario's space is answered with an
/// Error frame, which the controller reports as a typed worker error.
///
/// `chaos_exit_after` is a fault-injection hook for the node-death tests:
/// after answering that many jobs the process exits abruptly
/// (no Shutdown, no Error frame — exactly how a crashed node looks to the
/// controller).
///
/// # Errors
///
/// Any bind/accept/transport failure, rendered for CLI display.
pub fn run_worker(
    addr_spec: &str,
    scenario: EvalScenario,
    chaos_exit_after: Option<usize>,
    announce: impl FnOnce(&NodeAddr),
) -> Result<(), String> {
    let addr = NodeAddr::parse(addr_spec).map_err(|e| e.to_string())?;
    let listener = NodeListener::bind(&addr).map_err(|e| e.to_string())?;
    let resolved = listener.local_addr().map_err(|e| e.to_string())?;
    announce(&resolved);
    let mut transport = listener.accept(ACCEPT_TIMEOUT).map_err(|e| e.to_string())?;
    let backend = scenario.backend()?;
    let mut evaluate = scenario.shard_evaluator(&backend);
    let space = scenario.space();
    let mut served = 0usize;
    serve(&mut transport, scenario.fingerprint(), move |payload| {
        if chaos_exit_after.is_some_and(|limit| served >= limit) {
            #[expect(
                clippy::disallowed_methods,
                reason = "simulated node death for the fault-tolerance tests: vanish mid-conversation without Shutdown or Error frame, leaving the controller a half-open socket"
            )]
            std::process::exit(41);
        }
        served += 1;
        let (_step, _shard, sample) = decode_eval_job(payload).map_err(|e| e.to_string())?;
        space
            .validate(&sample)
            .map_err(|e| format!("invalid sample: {e}"))?;
        Ok(encode_eval_result(&evaluate(&sample)))
    })
    .map_err(|e| e.to_string())
}

/// Monotonic suffix so two clusters spawned by one controller process
/// never reuse a socket path.
static CLUSTER_COUNTER: AtomicUsize = AtomicUsize::new(0);

/// A set of auto-spawned local `node-worker` subprocesses listening on
/// Unix sockets, with best-effort teardown on drop.
///
/// Spawn-managed workers are *revivable*: [`NodeCluster::respawn`] kills
/// whatever is left of a dead worker and brings up a fresh one, which is
/// how the pool's reconnect path replaces nodes lost to churn.
#[derive(Debug)]
pub struct NodeCluster {
    children: Vec<Child>,
    addrs: Vec<NodeAddr>,
    dir: PathBuf,
    exe: PathBuf,
    worker_args: Vec<String>,
    /// Per-node respawn generation, so a replacement worker never races a
    /// predecessor for the same socket path.
    generations: Vec<usize>,
}

impl NodeCluster {
    /// Spawns `count` workers of the current executable in `scenario`
    /// mode, one Unix socket each under a fresh temp directory.
    ///
    /// The sockets come up asynchronously; `DistributedPool::connect`'s
    /// retry window absorbs the startup race.
    ///
    /// Chaos injection for the fault-tolerance tests: when
    /// `H2O_CHAOS_EXIT_AFTER=<n>` is set, the worker at index
    /// `H2O_CHAOS_NODE` (default 0) is launched with
    /// `--chaos-exit-after <n>` so it dies mid-run. Respawned
    /// replacements are always healthy — the chaos flag applies to the
    /// initial spawn only.
    ///
    /// # Errors
    ///
    /// Process-spawn or filesystem failures, rendered for CLI display.
    pub fn spawn(count: usize, scenario: &EvalScenario) -> Result<Self, String> {
        if count == 0 {
            return Err("--nodes must be at least 1".to_string());
        }
        let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
        let dir = std::env::temp_dir().join(format!(
            "h2o-nodes-{}-{}",
            std::process::id(),
            CLUSTER_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let chaos = std::env::var("H2O_CHAOS_EXIT_AFTER")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map(|limit| {
                let node = std::env::var("H2O_CHAOS_NODE")
                    .ok()
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or(0);
                (node, limit)
            });
        let mut cluster = Self {
            children: Vec::with_capacity(count),
            addrs: Vec::with_capacity(count),
            dir,
            exe,
            worker_args: scenario.worker_args(),
            generations: vec![0; count],
        };
        for i in 0..count {
            let sock = cluster.dir.join(format!("node-{i}.sock"));
            let mut command = Command::new(&cluster.exe);
            command
                .arg("node-worker")
                .arg("--addr")
                .arg(format!("unix:{}", sock.display()))
                .args(&cluster.worker_args)
                .stdout(Stdio::null());
            if let Some((chaos_node, limit)) = chaos {
                if chaos_node == i {
                    command.arg("--chaos-exit-after").arg(limit.to_string());
                }
            }
            let child = command
                .spawn()
                .map_err(|e| format!("spawning node {i}: {e}"))?;
            cluster.children.push(child);
            cluster.addrs.push(NodeAddr::Unix(sock));
        }
        Ok(cluster)
    }

    /// The workers' socket addresses, in spawn order.
    pub fn addrs(&self) -> &[NodeAddr] {
        &self.addrs
    }

    /// Replaces the worker at `index`: reaps whatever is left of the old
    /// process and spawns a fresh (always healthy) one on a new socket
    /// path. Returns the new worker's address for the pool to reconnect
    /// to. This is the cluster half of the pool's bounded
    /// reconnect-with-backoff cycle.
    ///
    /// # Errors
    ///
    /// Unknown index, or process-spawn failure.
    pub fn respawn(&mut self, index: usize) -> Result<NodeAddr, String> {
        if index >= self.children.len() {
            return Err(format!(
                "respawn index {index} out of range for {} workers",
                self.children.len()
            ));
        }
        let old = &mut self.children[index];
        let _ = old.kill();
        let _ = old.wait();
        if let NodeAddr::Unix(path) = &self.addrs[index] {
            let _ = std::fs::remove_file(path);
        }
        self.generations[index] += 1;
        let sock = self
            .dir
            .join(format!("node-{index}-r{}.sock", self.generations[index]));
        let child = Command::new(&self.exe)
            .arg("node-worker")
            .arg("--addr")
            .arg(format!("unix:{}", sock.display()))
            .args(&self.worker_args)
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("respawning node {index}: {e}"))?;
        self.children[index] = child;
        self.addrs[index] = NodeAddr::Unix(sock);
        Ok(self.addrs[index].clone())
    }

    /// Reaps the workers. Workers that already received a Shutdown frame
    /// exit on their own; stragglers are killed.
    pub fn shutdown(&mut self) {
        self.teardown();
    }

    fn teardown(&mut self) {
        for child in &mut self.children {
            match child.try_wait() {
                Ok(Some(_)) => {}
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                }
            }
        }
        self.children.clear();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Drop for NodeCluster {
    fn drop(&mut self) {
        self.teardown();
    }
}
