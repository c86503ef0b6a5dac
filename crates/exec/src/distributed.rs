//! The process-per-node executor: a [`DistributedPool`] fanning byte jobs
//! out over [`NodeTransport`]s, and the worker-side [`serve`] loop.
//!
//! This is the multi-process sibling of the in-process [`crate::Executor`]
//! and it keeps the same contract: **submission-order reduction**.
//! `execute(jobs)[i]` is always the result of `jobs[i]` no matter which
//! node answered it, so shard→node placement is invisible in the results
//! and a 1-process run, a 2-node run and a 4-node run of the same search
//! produce byte-identical output (`tests/distributed_determinism.rs` at
//! the workspace root proves it on whole CSVs).
//!
//! Node death is a **recoverable event**, not a run-ending one. A batch
//! leg that fails with an I/O-class error ([`ExecError::is_node_loss`]:
//! timeout, peer hang-up, torn frame) marks that node dead, salvages the
//! replies it already returned (frames are checksummed, so a fully
//! decoded reply is trustworthy), and redispatches only the *unfinished*
//! jobs over the surviving nodes. A pool given a [`NodeRespawner`] (the
//! spawn-managed `--nodes N` path) additionally attempts a bounded
//! respawn-reconnect-rehandshake cycle with linear backoff before
//! degrading to the smaller node set. Because evaluations are pure
//! functions of the job payload, redispatch cannot change any result —
//! the output stays byte-identical whether or not a death occurred. Only
//! when the live set drops below [`PoolOptions::min_live_nodes`] does the
//! batch fail, with the typed [`ExecError::NodesExhausted`].
//!
//! Jobs and results are opaque byte payloads — closures cannot cross a
//! process boundary, so the caller (`h2o-core`'s `DistributedStage`)
//! encodes `(step, shard, sample)` jobs and decodes `EvalResult` bytes
//! with the shared [`crate::wire`] codec. A handshake pins the scenario:
//! both sides exchange a fingerprint of the evaluation configuration and
//! refuse to proceed on a mismatch ([`ExecError::ScenarioMismatch`]), so a
//! worker can never silently evaluate under different settings.

use crate::frame::{ExecError, FrameKind};
use crate::transport::{NodeAddr, NodeTransport};
use crate::wire::{Dec, Enc};
use crate::Executor;
use std::time::Duration;

/// Encodes an `(index, payload)` pair for a `Job` or `Result` frame.
pub fn encode_indexed(index: u64, payload: &[u8]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(index);
    e.bytes(payload);
    e.into_vec()
}

/// Decodes an `(index, payload)` pair from a `Job` or `Result` frame.
///
/// # Errors
///
/// [`ExecError::Truncated`] / [`ExecError::Protocol`] on malformed bytes.
pub fn decode_indexed(bytes: &[u8]) -> Result<(u64, Vec<u8>), ExecError> {
    let mut d = Dec::new(bytes);
    let index = d.u64()?;
    let payload = d.bytes_vec()?;
    d.finish()?;
    Ok((index, payload))
}

/// Timeouts and fault-tolerance knobs governing a [`DistributedPool`].
#[derive(Debug, Clone, Copy)]
pub struct PoolOptions {
    /// How long to keep retrying the initial connect per node (covers
    /// worker process startup — and respawned-worker startup on the
    /// reconnect path).
    pub connect_timeout: Duration,
    /// Per-read/per-write socket timeout after the connection is up. One
    /// evaluation must complete within this bound or the node counts as
    /// dead.
    pub io_timeout: Duration,
    /// Respawn-and-reconnect attempts per node death, when the pool has a
    /// [`NodeRespawner`]. `0` disables reconnection — a dead node stays
    /// dead and the pool degrades to the survivors.
    pub max_node_retries: usize,
    /// Base delay before each reconnect attempt; attempt `k` (1-based)
    /// waits `k * retry_backoff` so a crash-looping worker doesn't get
    /// hammered.
    pub retry_backoff: Duration,
    /// The fewest live nodes the pool will keep executing with. When
    /// deaths (after any reconnect attempts) leave fewer than this,
    /// `execute` fails with [`ExecError::NodesExhausted`]. Values below 1
    /// are treated as 1.
    pub min_live_nodes: usize,
}

impl Default for PoolOptions {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(10),
            io_timeout: Duration::from_secs(30),
            max_node_retries: 2,
            retry_backoff: Duration::from_millis(200),
            min_live_nodes: 1,
        }
    }
}

/// Callback reviving a dead spawn-managed worker: kill and reap whatever
/// is left of node `index`'s process, spawn a fresh one, and return the
/// address to reconnect to. Supplied by the layer that owns the worker
/// processes (the facade's `NodeCluster`); pools attached to externally
/// managed workers have none and degrade instead of reconnecting.
pub type NodeRespawner = Box<dyn FnMut(usize) -> Result<NodeAddr, String> + Send>;

/// A pool of connected node processes executing byte jobs with
/// submission-order reduction — the distributed counterpart of
/// [`crate::Executor::execute`] — that survives node deaths by
/// redispatching unfinished jobs (see the module docs).
///
/// `nodes[i]` is `Some(transport)` while node `i` is live and `None`
/// after it died (until a [`NodeRespawner`] revives it).
pub struct DistributedPool {
    nodes: Vec<Option<NodeTransport>>,
    /// Runs the per-node legs of a batch, one worker per node. Its threads
    /// park at once: a leg waits on its node's socket far longer than the
    /// executor's spin budget.
    executor: Executor,
    fingerprint: u64,
    options: PoolOptions,
    respawner: Option<NodeRespawner>,
    node_jobs: Vec<h2o_obs::Counter>,
    node_roundtrip: Vec<h2o_obs::Histogram>,
    node_live: Vec<h2o_obs::Gauge>,
    deaths: h2o_obs::Counter,
    redispatched: h2o_obs::Counter,
    reconnects: h2o_obs::Counter,
}

impl std::fmt::Debug for DistributedPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistributedPool")
            .field("nodes", &self.nodes.len())
            .field("live", &self.live_nodes())
            .field("options", &self.options)
            .field("has_respawner", &self.respawner.is_some())
            .finish()
    }
}

/// Connects to `addr` and runs the client half of the scenario handshake.
fn connect_node(
    addr: &NodeAddr,
    node: usize,
    fingerprint: u64,
    options: &PoolOptions,
) -> Result<NodeTransport, ExecError> {
    let mut transport = NodeTransport::connect(addr, options.connect_timeout, options.io_timeout)?;
    let mut hello = Enc::new();
    hello.u64(fingerprint);
    transport.send(FrameKind::Hello, hello.as_slice())?;
    let ack = transport.recv()?;
    match ack.kind {
        FrameKind::HelloAck => {
            let mut d = Dec::new(&ack.payload);
            let theirs = d.u64()?;
            d.finish()?;
            if theirs != fingerprint {
                return Err(ExecError::ScenarioMismatch {
                    found: theirs,
                    expected: fingerprint,
                });
            }
        }
        FrameKind::Error => {
            return Err(ExecError::Worker {
                node,
                message: String::from_utf8_lossy(&ack.payload).into_owned(),
            })
        }
        other => {
            return Err(ExecError::Protocol(format!(
                "expected HelloAck, got {other:?}"
            )))
        }
    }
    Ok(transport)
}

impl DistributedPool {
    /// Connects to every node and performs the scenario handshake.
    ///
    /// The client sends `Hello(fingerprint)`; each worker answers
    /// `HelloAck(its own fingerprint)`. Both sides compare — a mismatch is
    /// [`ExecError::ScenarioMismatch`] on both ends, so neither can run a
    /// search whose evaluation settings differ from its peer's.
    ///
    /// The initial connect is all-or-nothing: a pool that cannot reach
    /// every configured node at startup is a configuration problem, not
    /// churn, so it fails typed instead of silently starting degraded.
    ///
    /// # Errors
    ///
    /// [`ExecError::Connect`] / [`ExecError::Timeout`] on dead nodes, any
    /// frame-shaped error on protocol trouble, [`ExecError::Protocol`] if
    /// `addrs` is empty or `min_live_nodes` exceeds the node count.
    pub fn connect(
        addrs: &[NodeAddr],
        fingerprint: u64,
        options: PoolOptions,
    ) -> Result<Self, ExecError> {
        if addrs.is_empty() {
            return Err(ExecError::Protocol(
                "a pool needs at least one node".to_string(),
            ));
        }
        if options.min_live_nodes > addrs.len() {
            return Err(ExecError::Protocol(format!(
                "min_live_nodes {} exceeds the {} configured node(s)",
                options.min_live_nodes,
                addrs.len()
            )));
        }
        let mut nodes = Vec::with_capacity(addrs.len());
        for (i, addr) in addrs.iter().enumerate() {
            nodes.push(Some(connect_node(addr, i, fingerprint, &options)?));
        }
        let node_jobs = (0..nodes.len())
            .map(|n| h2o_obs::counter(&format!("h2o_exec_node_jobs_total{{node=\"{n}\"}}")))
            .collect();
        let node_roundtrip = (0..nodes.len())
            .map(|n| {
                h2o_obs::histogram(&format!("h2o_exec_node_roundtrip_seconds{{node=\"{n}\"}}"))
            })
            .collect();
        let node_live: Vec<h2o_obs::Gauge> = (0..nodes.len())
            .map(|n| h2o_obs::gauge(&format!("h2o_exec_node_live{{node=\"{n}\"}}")))
            .collect();
        for gauge in &node_live {
            gauge.set(1.0);
        }
        Ok(Self {
            executor: Executor::parking(nodes.len()),
            nodes,
            fingerprint,
            options,
            respawner: None,
            node_jobs,
            node_roundtrip,
            node_live,
            deaths: h2o_obs::counter("h2o_exec_node_deaths_total"),
            redispatched: h2o_obs::counter("h2o_exec_redispatched_jobs_total"),
            reconnects: h2o_obs::counter("h2o_exec_node_reconnects_total"),
        })
    }

    /// Installs the hook that revives dead spawn-managed workers. Without
    /// one, a dead node stays dead and the pool degrades to the
    /// survivors.
    pub fn set_respawner(&mut self, respawner: NodeRespawner) {
        self.respawner = Some(respawner);
    }

    /// The number of configured nodes (live or dead).
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The number of currently live (connected) nodes.
    pub fn live_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// Runs every byte job on the pool and returns results in
    /// **submission order**: `execute(jobs)[i]` is the result of
    /// `jobs[i]`.
    ///
    /// Pending jobs are spread round-robin over the live nodes; each
    /// node's leg is pipelined (all sent, then all received) on a worker of
    /// the pool's executor, the per-socket I/O timeout bounding every blocking
    /// read. A leg that fails with an I/O-class error marks its node dead
    /// (salvaging the checksummed replies it already produced), triggers
    /// the bounded respawn-reconnect cycle when a [`NodeRespawner`] is
    /// installed, and leaves its unfinished jobs to be redispatched over
    /// whatever nodes remain live. Placement is invisible in the results,
    /// so a batch that survived a death is byte-identical to one that
    /// never saw it.
    ///
    /// # Errors
    ///
    /// [`ExecError::NodesExhausted`] when deaths leave fewer than
    /// [`PoolOptions::min_live_nodes`] live nodes; any non-I/O-class
    /// [`ExecError`] (protocol violation, worker-reported evaluation
    /// failure, scenario skew) immediately — the lowest-numbered failing
    /// node's error, deterministically. After a fatal error the pool must
    /// be considered poisoned (in-flight frames are not resynchronised)
    /// and rebuilt; after an `Ok` the pool is at a frame boundary and
    /// ready for the next batch even if nodes died along the way.
    pub fn execute(&mut self, jobs: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>, ExecError> {
        let n_jobs = jobs.len();
        h2o_obs::counter("h2o_exec_node_batches_total").inc();
        let mut slots: Vec<Option<Vec<u8>>> = (0..n_jobs).map(|_| None).collect();
        let mut last_loss: Option<ExecError> = None;
        let mut round = 0usize;
        loop {
            let pending: Vec<usize> = slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_none())
                .map(|(i, _)| i)
                .collect();
            if pending.is_empty() {
                break;
            }
            let live: Vec<usize> = self
                .nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.is_some())
                .map(|(i, _)| i)
                .collect();
            let min_live = self.options.min_live_nodes.max(1);
            if live.len() < min_live {
                return Err(ExecError::NodesExhausted {
                    live: live.len(),
                    min: min_live,
                    last_error: last_loss
                        .map(|e| e.to_string())
                        .unwrap_or_else(|| "no prior node loss".to_string()),
                });
            }
            if round > 0 {
                // Every job sent after round 0 is a job whose original
                // node died before answering it.
                self.redispatched.add(pending.len() as u64);
            }
            round += 1;

            // Round-robin the pending jobs over the live nodes in index
            // order. On round 0 with a fully live pool this reproduces the
            // historical `i % nodes` placement exactly; either way,
            // submission-order reduction makes placement invisible.
            let mut per_node: Vec<IndexedBatch> =
                (0..self.nodes.len()).map(|_| Vec::new()).collect();
            for (k, &index) in pending.iter().enumerate() {
                per_node[live[k % live.len()]].push((index as u64, jobs[index].clone()));
            }

            // One leg per live node with work, on the pool's executor;
            // legs come back in node order.
            let node_roundtrip = &self.node_roundtrip;
            let legs: Vec<_> = self
                .nodes
                .iter_mut()
                .zip(per_node)
                .enumerate()
                .filter_map(|(node, (slot, batch))| {
                    let transport = slot.as_mut().filter(|_| !batch.is_empty())?;
                    Some(move || {
                        let watch = h2o_obs::Stopwatch::start();
                        let outcome = run_node_batch(transport, node, batch);
                        node_roundtrip[node].record(watch.elapsed_secs());
                        (node, outcome)
                    })
                })
                .collect();

            // Merge every salvaged result first, then classify failures:
            // fatal errors abort (lowest node wins, deterministically),
            // node losses mark the node dead and feed the revive path.
            let mut lost: Vec<(usize, ExecError)> = Vec::new();
            for (node, outcome) in self.executor.execute(legs) {
                self.node_jobs[node].add(outcome.results.len() as u64);
                for (index, payload) in outcome.results {
                    let slot = slots.get_mut(index as usize).ok_or_else(|| {
                        ExecError::Protocol(format!(
                            "node {node} returned result index {index} beyond batch size {n_jobs}"
                        ))
                    })?;
                    if slot.is_some() {
                        return Err(ExecError::Protocol(format!(
                            "node {node} returned result index {index} twice"
                        )));
                    }
                    *slot = Some(payload);
                }
                if let Some(error) = outcome.error {
                    if !error.is_node_loss() {
                        return Err(error);
                    }
                    lost.push((node, error));
                }
            }
            for (node, error) in lost {
                self.deaths.inc();
                self.node_live[node].set(0.0);
                self.nodes[node] = None;
                last_loss = Some(error);
                self.try_revive(node);
            }
        }
        let mut out = Vec::with_capacity(n_jobs);
        for (i, slot) in slots.into_iter().enumerate() {
            out.push(slot.ok_or_else(|| {
                ExecError::Protocol(format!("no node returned a result for job {i}"))
            })?);
        }
        Ok(out)
    }

    /// Bounded respawn-reconnect-rehandshake cycle for a dead node: up to
    /// `max_node_retries` attempts, attempt `k` (1-based) backing off
    /// `k * retry_backoff` first. A node that cannot be revived stays
    /// dead and the pool degrades; there is no respawner for externally
    /// managed workers, so those degrade immediately.
    fn try_revive(&mut self, node: usize) {
        let Some(respawner) = self.respawner.as_mut() else {
            return;
        };
        for attempt in 1..=self.options.max_node_retries {
            std::thread::sleep(self.options.retry_backoff.saturating_mul(attempt as u32));
            let Ok(addr) = respawner(node) else {
                continue;
            };
            match connect_node(&addr, node, self.fingerprint, &self.options) {
                Ok(transport) => {
                    self.nodes[node] = Some(transport);
                    self.node_live[node].set(1.0);
                    self.reconnects.inc();
                    return;
                }
                Err(_) => continue,
            }
        }
    }

    /// Asks every live node to exit cleanly. Best-effort: a node that
    /// already died is skipped.
    pub fn shutdown(mut self) {
        for slot in &mut self.nodes {
            if let Some(transport) = slot.as_mut() {
                let _ = transport.send(FrameKind::Shutdown, &[]);
            }
        }
    }
}

/// A batch of submission-index-tagged payloads, one entry per job.
type IndexedBatch = Vec<(u64, Vec<u8>)>;

/// What one node's batch leg produced: every reply that arrived intact,
/// plus the error that ended the leg early (if one did). Salvaged replies
/// are trustworthy even when the leg failed — each came from a fully
/// checksummed frame.
struct BatchOutcome {
    results: IndexedBatch,
    error: Option<ExecError>,
}

/// One node's half of [`DistributedPool::execute`]: pipeline all jobs out,
/// then collect replies until one per job has arrived or the leg fails.
fn run_node_batch(transport: &mut NodeTransport, node: usize, batch: IndexedBatch) -> BatchOutcome {
    let mut outcome = BatchOutcome {
        results: Vec::with_capacity(batch.len()),
        error: None,
    };
    for (index, job) in &batch {
        if let Err(e) = transport.send(FrameKind::Job, &encode_indexed(*index, job)) {
            outcome.error = Some(e);
            return outcome;
        }
    }
    for _ in 0..batch.len() {
        let frame = match transport.recv() {
            Ok(frame) => frame,
            Err(e) => {
                outcome.error = Some(e);
                return outcome;
            }
        };
        match frame.kind {
            FrameKind::Result => match decode_indexed(&frame.payload) {
                Ok(result) => outcome.results.push(result),
                Err(e) => {
                    outcome.error = Some(e);
                    return outcome;
                }
            },
            FrameKind::Error => {
                outcome.error = Some(ExecError::Worker {
                    node,
                    message: String::from_utf8_lossy(&frame.payload).into_owned(),
                });
                return outcome;
            }
            other => {
                outcome.error = Some(ExecError::Protocol(format!(
                    "node {node}: expected Result, got {other:?}"
                )));
                return outcome;
            }
        }
    }
    outcome
}

/// The worker side: answers the scenario handshake, then evaluates every
/// `Job` frame through `handler` until the client shuts down or hangs up.
///
/// A handler error is reported to the client as an `Error` frame (the
/// client surfaces it as [`ExecError::Worker`]) and the loop continues —
/// the client decides whether the batch is lost. Returns `Ok(())` on a
/// clean `Shutdown` or a peer hang-up at a frame boundary.
///
/// # Errors
///
/// [`ExecError::ScenarioMismatch`] when the client's fingerprint differs
/// from `fingerprint` (after telling the client ours), or any frame-shaped
/// error from the transport.
pub fn serve<F>(
    transport: &mut NodeTransport,
    fingerprint: u64,
    mut handler: F,
) -> Result<(), ExecError>
where
    F: FnMut(&[u8]) -> Result<Vec<u8>, String>,
{
    let jobs_served = h2o_obs::counter("h2o_exec_node_worker_jobs_total");
    loop {
        let frame = match transport.recv() {
            Ok(frame) => frame,
            Err(ExecError::PeerClosed) => return Ok(()),
            Err(e) => return Err(e),
        };
        match frame.kind {
            FrameKind::Hello => {
                let mut d = Dec::new(&frame.payload);
                let theirs = d.u64()?;
                d.finish()?;
                let mut ack = Enc::new();
                ack.u64(fingerprint);
                transport.send(FrameKind::HelloAck, ack.as_slice())?;
                if theirs != fingerprint {
                    return Err(ExecError::ScenarioMismatch {
                        found: theirs,
                        expected: fingerprint,
                    });
                }
            }
            FrameKind::Job => {
                let (index, payload) = decode_indexed(&frame.payload)?;
                match handler(&payload) {
                    Ok(result) => {
                        jobs_served.inc();
                        transport.send(FrameKind::Result, &encode_indexed(index, &result))?;
                    }
                    Err(message) => {
                        transport.send(FrameKind::Error, message.as_bytes())?;
                    }
                }
            }
            FrameKind::Shutdown => return Ok(()),
            other => {
                return Err(ExecError::Protocol(format!(
                    "worker received unexpected {other:?} frame"
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::NodeListener;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_sock(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("h2o_dpool_{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        dir.join(format!("{name}.sock"))
    }

    /// Spawns an in-process worker thread serving `handler` on a fresh
    /// unix socket; returns its address.
    fn spawn_worker<F>(name: &str, fingerprint: u64, handler: F) -> NodeAddr
    where
        F: FnMut(&[u8]) -> Result<Vec<u8>, String> + Send + 'static,
    {
        let addr = NodeAddr::Unix(temp_sock(name));
        let listener = NodeListener::bind(&addr).unwrap();
        std::thread::spawn(move || {
            let mut handler = handler;
            if let Ok(mut t) = listener.accept(Duration::from_secs(10)) {
                let _ = serve(&mut t, fingerprint, &mut handler);
            }
        });
        addr
    }

    /// Spawns a worker that answers the handshake, echoes `die_after` jobs
    /// doubled, then drops its socket mid-conversation — exactly how a
    /// crashed node looks to the pool.
    fn spawn_dying_worker(name: &str, fingerprint: u64, die_after: usize) -> NodeAddr {
        let addr = NodeAddr::Unix(temp_sock(name));
        let listener = NodeListener::bind(&addr).unwrap();
        std::thread::spawn(move || {
            let Ok(mut t) = listener.accept(Duration::from_secs(10)) else {
                return;
            };
            let mut served = 0usize;
            let _ = serve(&mut t, fingerprint, move |job: &[u8]| {
                if served >= die_after {
                    // Simulated crash: the serve loop is abandoned by
                    // panicking out of the handler thread, which drops the
                    // transport without a Shutdown or Error frame.
                    std::panic::panic_any(NodeDeath);
                }
                served += 1;
                Ok(double(job))
            });
        });
        addr
    }

    /// Panic payload used to unwind a dying worker thread quietly.
    struct NodeDeath;

    fn double(job: &[u8]) -> Vec<u8> {
        let mut out = job.to_vec();
        out.iter_mut().for_each(|b| *b = b.wrapping_mul(2));
        out
    }

    fn opts() -> PoolOptions {
        PoolOptions {
            connect_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(5),
            retry_backoff: Duration::from_millis(5),
            ..PoolOptions::default()
        }
    }

    #[test]
    fn pool_reduces_in_submission_order() {
        let addrs: Vec<NodeAddr> = (0..3)
            .map(|i| spawn_worker(&format!("order{i}"), 7, |job: &[u8]| Ok(double(job))))
            .collect();
        let mut pool = DistributedPool::connect(&addrs, 7, opts()).unwrap();
        assert_eq!(pool.nodes(), 3);
        assert_eq!(pool.live_nodes(), 3);
        let jobs: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i]).collect();
        let results = pool.execute(jobs).unwrap();
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r, &vec![(i as u8) * 2], "job {i} out of order");
        }
        pool.shutdown();
    }

    #[test]
    fn handshake_rejects_fingerprint_skew() {
        let addr = spawn_worker("skew", 1111, |job: &[u8]| Ok(job.to_vec()));
        let err = DistributedPool::connect(&[addr], 2222, opts()).expect_err("fingerprints differ");
        assert_eq!(
            err,
            ExecError::ScenarioMismatch {
                found: 1111,
                expected: 2222,
            }
        );
    }

    #[test]
    fn worker_handler_error_is_typed_and_fatal() {
        let addr = spawn_worker("fail", 3, |_: &[u8]| Err("simulator exploded".to_string()));
        let mut pool = DistributedPool::connect(&[addr], 3, opts()).unwrap();
        let err = pool.execute(vec![vec![1]]).expect_err("handler fails");
        assert_eq!(
            err,
            ExecError::Worker {
                node: 0,
                message: "simulator exploded".to_string(),
            }
        );
        assert!(
            !err.is_node_loss(),
            "a worker-reported failure is not recoverable churn"
        );
    }

    #[test]
    fn empty_batch_is_fine() {
        let addr = spawn_worker("empty", 4, |job: &[u8]| Ok(job.to_vec()));
        let mut pool = DistributedPool::connect(&[addr], 4, opts()).unwrap();
        assert!(pool.execute(Vec::new()).unwrap().is_empty());
        pool.shutdown();
    }

    #[test]
    fn indexed_payload_round_trips() {
        let bytes = encode_indexed(42, b"payload");
        assert_eq!(decode_indexed(&bytes).unwrap(), (42, b"payload".to_vec()));
        assert!(decode_indexed(&bytes[..3]).is_err());
    }

    #[test]
    fn dead_node_jobs_redispatch_to_the_survivor() {
        // Node 0 answers 3 jobs then vanishes mid-batch; node 1 is
        // healthy. Every job must still come back, in submission order,
        // with node 0's salvaged replies reused rather than re-run.
        let addrs = vec![
            spawn_dying_worker("redisp-dying", 11, 3),
            spawn_worker("redisp-healthy", 11, |job: &[u8]| Ok(double(job))),
        ];
        let redispatched = h2o_obs::counter("h2o_exec_redispatched_jobs_total");
        let deaths = h2o_obs::counter("h2o_exec_node_deaths_total");
        let (redisp_before, deaths_before) = (redispatched.value(), deaths.value());
        let mut pool = DistributedPool::connect(&addrs, 11, opts()).unwrap();
        let jobs: Vec<Vec<u8>> = (0..12u8).map(|i| vec![i]).collect();
        let results = pool.execute(jobs).expect("the pool survives one death");
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r, &vec![(i as u8) * 2], "job {i} wrong after redispatch");
        }
        assert_eq!(pool.live_nodes(), 1, "the dead node stays dead");
        assert!(deaths.value() > deaths_before, "death must be counted");
        assert!(
            redispatched.value() > redisp_before,
            "redispatched jobs must be counted"
        );
        pool.shutdown();
    }

    #[test]
    fn exhausted_pool_fails_typed() {
        // The only node dies immediately and there is no respawner: the
        // pool drops below min_live_nodes=1 and must fail typed.
        let addr = spawn_dying_worker("exhaust", 12, 0);
        let mut pool = DistributedPool::connect(&[addr], 12, opts()).unwrap();
        let err = pool
            .execute(vec![vec![1], vec![2]])
            .expect_err("no nodes left");
        match err {
            ExecError::NodesExhausted { live, min, .. } => {
                assert_eq!(live, 0);
                assert_eq!(min, 1);
            }
            other => panic!("expected NodesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn min_live_nodes_floor_fails_a_degraded_pool() {
        // Two nodes, min_live_nodes=2: one death is already below the
        // floor even though a survivor could finish the work.
        let addrs = vec![
            spawn_dying_worker("floor-dying", 13, 1),
            spawn_worker("floor-healthy", 13, |job: &[u8]| Ok(double(job))),
        ];
        let options = PoolOptions {
            min_live_nodes: 2,
            ..opts()
        };
        let mut pool = DistributedPool::connect(&addrs, 13, options).unwrap();
        let jobs: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i]).collect();
        let err = pool.execute(jobs).expect_err("below the live floor");
        assert!(
            matches!(
                err,
                ExecError::NodesExhausted {
                    live: 1,
                    min: 2,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn respawner_revives_a_dead_node() {
        // Node 0 dies after 2 jobs; the respawner brings up a healthy
        // replacement worker on a fresh socket. The batch completes and
        // the node is live again afterwards.
        let addr = spawn_dying_worker("revive-initial", 14, 2);
        let reconnects = h2o_obs::counter("h2o_exec_node_reconnects_total");
        let reconnects_before = reconnects.value();
        let mut pool = DistributedPool::connect(&[addr], 14, opts()).unwrap();
        static GENERATION: AtomicUsize = AtomicUsize::new(0);
        pool.set_respawner(Box::new(|node| {
            let generation = GENERATION.fetch_add(1, Ordering::Relaxed);
            Ok(spawn_worker(
                &format!("revive-{node}-{generation}"),
                14,
                |job: &[u8]| Ok(double(job)),
            ))
        }));
        let jobs: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i]).collect();
        let results = pool.execute(jobs).expect("revived pool completes");
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r, &vec![(i as u8) * 2], "job {i} wrong after revival");
        }
        assert_eq!(pool.live_nodes(), 1, "the node is back");
        assert!(
            reconnects.value() > reconnects_before,
            "the reconnect must be counted"
        );
        pool.shutdown();
    }

    #[test]
    fn min_live_nodes_above_pool_size_is_rejected_at_connect() {
        let addr = spawn_worker("floor-toohigh", 15, |job: &[u8]| Ok(job.to_vec()));
        let options = PoolOptions {
            min_live_nodes: 3,
            ..opts()
        };
        let err = DistributedPool::connect(&[addr], 15, options)
            .expect_err("floor above pool size is a config error");
        assert!(matches!(err, ExecError::Protocol(_)), "{err:?}");
    }
}
