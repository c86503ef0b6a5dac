//! # h2o-ckpt — crash-safe checkpoints for H2O-NAS searches
//!
//! Long searches (the paper's production runs span days across pods) must
//! survive preemption. This crate provides the durable half of the
//! checkpoint/resume contract defined in `h2o-core`. A checkpoint
//! directory holds two kinds of file, so a write costs the same at step
//! 10 as at step 10 000:
//!
//! * an **append-only log** of step records and evaluated candidates: each
//!   checkpoint appends one length-prefixed, FNV-1a-checksummed frame with
//!   the records the log does not hold yet;
//! * a **constant-size controller snapshot** per checkpoint: a versioned
//!   file with a magic header, config fingerprint and whole-file FNV-1a
//!   checksum around the policy logits, the reward baseline, the supernet
//!   state and the length of the log prefix it covers.
//!
//! Corrupt, truncated, or mismatched files are rejected with a typed
//! [`CkptError`] instead of silently resuming a wrong trajectory. The
//! [`CheckpointStore`] fsyncs each log frame before it publishes the
//! snapshot that covers it (temp file → fsync → rename → directory fsync),
//! so a crash at any point leaves the previous snapshot and its log prefix
//! intact. A [`FileCheckpointSink`] implements [`h2o_core::CheckpointSink`],
//! plugging the store into [`h2o_core::SearchDriver::run`] at a fixed step
//! cadence; a failed write stops the search with a typed
//! `DriverError::Checkpoint`.
//!
//! Floats are serialised via their IEEE-754 bit patterns, so a restored
//! search continues **bit-identically** — the determinism tests in the
//! workspace root assert interrupted+resumed runs equal uninterrupted ones
//! byte for byte. Snapshots in the v1 format, which held the history and
//! candidates inline, still load; nothing writes them.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

use h2o_core::{CheckpointSink, Policy, ResumeState, RewardBaseline, SearchSnapshot};
use h2o_core::{EvalResult, EvaluatedCandidate, StepRecord};
use h2o_exec::wire::{self, Dec, Enc, WireError};
use std::borrow::Cow;
use std::cell::Cell;
use std::fmt;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// First 8 bytes of every snapshot file.
const MAGIC: &[u8; 8] = b"H2OCKPT\0";
/// Current format version; bumped on any incompatible layout change.
pub const FORMAT_VERSION: u32 = 2;
/// The self-contained snapshot format (history and candidates inline): read
/// on resume, never written.
const V1: u32 = 1;
/// Filename extension of finished snapshots.
const EXT: &str = "h2o";
/// Name of the log inside a checkpoint directory.
const LOG_FILE: &str = "ckpt.log";

/// Everything that can go wrong saving or loading a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// Filesystem error (formatted `std::io::Error`).
    Io(String),
    /// The file does not start with the checkpoint magic — not a
    /// checkpoint at all.
    BadMagic,
    /// The file's format version is not one this build reads.
    BadVersion {
        /// Version found in the file.
        found: u32,
        /// Version this build writes.
        expected: u32,
    },
    /// A checksum does not match: bit rot or a torn write.
    ChecksumMismatch,
    /// The checkpoint was written under a different search configuration
    /// (space shape, seed, shards, …) and must not seed this run.
    FingerprintMismatch {
        /// Fingerprint recorded in the file.
        found: u64,
        /// Fingerprint of the config attempting to resume.
        expected: u64,
    },
    /// The file ends before the declared content does.
    Truncated,
    /// The payload decoded inconsistently (bad lengths, trailing bytes, a
    /// log that does not match its snapshot).
    Corrupt(String),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CkptError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CkptError::BadVersion { found, expected } => {
                write!(
                    f,
                    "checkpoint format v{found}, this build reads v{V1} to v{expected}"
                )
            }
            CkptError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CkptError::FingerprintMismatch { found, expected } => write!(
                f,
                "checkpoint fingerprint {found:#018x} does not match search config {expected:#018x}"
            ),
            CkptError::Truncated => write!(f, "checkpoint file truncated"),
            CkptError::Corrupt(why) => write!(f, "checkpoint payload corrupt: {why}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e.to_string())
    }
}

impl From<WireError> for CkptError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated => CkptError::Truncated,
            WireError::Corrupt(why) => CkptError::Corrupt(why),
        }
    }
}

// ---------------------------------------------------------------------------
// Payload codec: the shared `h2o_exec::wire` dialect (little-endian u64s,
// LEB128 varints, floats as IEEE-754 bits so the round trip is bit-exact) —
// the same codec the node transport's frames use, so checkpoints and the
// distributed protocol can never drift apart byte-wise.
// ---------------------------------------------------------------------------

fn to_usize(v: u64) -> Result<usize, CkptError> {
    usize::try_from(v).map_err(|_| CkptError::Corrupt(format!("{v} does not fit in usize")))
}

/// Step count, policy logits and reward baseline: the head of both
/// snapshot versions.
fn encode_controller(e: &mut Enc, snapshot: &SearchSnapshot<'_>) {
    e.u64(snapshot.steps_done as u64);
    let logits = snapshot.policy.logits();
    e.u64(logits.len() as u64);
    for decision in logits {
        e.u64(decision.len() as u64);
        for &l in decision {
            e.f64(l);
        }
    }
    e.f64(snapshot.baseline.value());
    e.f64(snapshot.baseline.momentum());
    e.u64(snapshot.baseline.initialized() as u64);
}

fn decode_controller(d: &mut Dec<'_>) -> Result<(usize, Policy, RewardBaseline), CkptError> {
    let steps_done = d.u64()? as usize;
    let num_decisions = d.len("policy decisions")?;
    if num_decisions == 0 {
        return Err(CkptError::Corrupt("policy has no decisions".into()));
    }
    let mut logits = Vec::with_capacity(num_decisions);
    for _ in 0..num_decisions {
        let choices = d.len("decision logits")?;
        if choices == 0 {
            return Err(CkptError::Corrupt("decision has no choices".into()));
        }
        let mut row = Vec::with_capacity(choices);
        for _ in 0..choices {
            row.push(d.f64()?);
        }
        logits.push(row);
    }
    let policy = Policy::from_logits(logits);
    let value = d.f64()?;
    let momentum = d.f64()?;
    if !(0.0..1.0).contains(&momentum) {
        return Err(CkptError::Corrupt(format!(
            "baseline momentum {momentum} outside [0, 1)"
        )));
    }
    let initialized = match d.u64()? {
        0 => false,
        1 => true,
        other => {
            return Err(CkptError::Corrupt(format!(
                "baseline initialized flag {other} is not 0/1"
            )))
        }
    };
    let baseline = RewardBaseline::from_parts(value, momentum, initialized);
    Ok((steps_done, policy, baseline))
}

/// Supernet shared weights (one-shot loops): the tail of both snapshot
/// versions.
fn encode_supernet(e: &mut Enc, state: Option<&[u8]>) {
    match state {
        Some(state) => {
            e.u64(1);
            e.bytes(state);
        }
        None => e.u64(0),
    }
}

fn decode_supernet(d: &mut Dec<'_>) -> Result<Option<Vec<u8>>, CkptError> {
    match d.u64()? {
        0 => Ok(None),
        1 => Ok(Some(d.bytes_vec()?)),
        other => Err(CkptError::Corrupt(format!(
            "supernet presence flag {other} is not 0/1"
        ))),
    }
}

/// Decodes a v1 payload, which holds the history and candidates inline
/// (every integer a `u64`).
fn decode_v1_payload(payload: &[u8]) -> Result<ResumeState, CkptError> {
    let mut d = Dec::new(payload);
    let (steps_done, policy, baseline) = decode_controller(&mut d)?;
    let n_history = d.len("history")?;
    let mut history = Vec::with_capacity(n_history);
    for _ in 0..n_history {
        history.push(StepRecord {
            step: d.u64()? as usize,
            mean_reward: d.f64()?,
            best_reward: d.f64()?,
            entropy: d.f64()?,
            step_time_ms: d.f64()?,
        });
    }
    let n_evaluated = d.len("evaluated candidates")?;
    let mut evaluated = Vec::with_capacity(n_evaluated);
    for _ in 0..n_evaluated {
        let n_sample = d.len("arch sample")?;
        let mut sample = Vec::with_capacity(n_sample);
        for _ in 0..n_sample {
            sample.push(d.u64()? as usize);
        }
        let quality = d.f64()?;
        let n_perf = d.len("perf values")?;
        let mut perf_values = Vec::with_capacity(n_perf);
        for _ in 0..n_perf {
            perf_values.push(d.f64()?);
        }
        let reward = d.f64()?;
        evaluated.push(EvaluatedCandidate {
            sample,
            result: EvalResult {
                quality,
                perf_values,
            },
            reward,
        });
    }
    let supernet_state = decode_supernet(&mut d)?;
    d.finish()?;
    Ok(ResumeState {
        steps_done,
        policy,
        baseline,
        history,
        evaluated,
        supernet_state,
    })
}

// ---------------------------------------------------------------------------
// The log: a sequence of frames `payload_len u64 | payload | fnv1a u64`
// (the checksum over the length and payload), where a payload is
// `n varint | n step records | m varint | m candidates`. It has no header:
// the snapshot that covers a prefix carries the version and fingerprint,
// and its digest ties it to exactly those frames.
// ---------------------------------------------------------------------------

/// The log prefix a snapshot covers: its first `bytes` bytes hold exactly
/// the first `history_len` step records and `evaluated_len` evaluated
/// candidates.
/// `digest` chains the checksums of every frame in the prefix, so a
/// snapshot only matches the frames written before it. The default is the
/// empty log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LogCursor {
    bytes: u64,
    history_len: usize,
    evaluated_len: usize,
    digest: u64,
}

/// Folds a frame's checksum into the digest of the frames before it.
fn chain_digest(digest: u64, checksum: u64) -> u64 {
    let mut pair = [0u8; 16];
    pair[..8].copy_from_slice(&digest.to_le_bytes());
    pair[8..].copy_from_slice(&checksum.to_le_bytes());
    wire::fnv1a(&pair)
}

impl LogCursor {
    /// Writes `history` and `evaluated`, the records past this cursor, to
    /// `out` as one frame; returns the cursor after it. Writes nothing when
    /// there is nothing new.
    fn append_frame(
        self,
        out: &mut Vec<u8>,
        history: &[StepRecord],
        evaluated: &[EvaluatedCandidate],
    ) -> Self {
        if history.is_empty() && evaluated.is_empty() {
            return self;
        }
        let mut e = Enc::new();
        e.varint(history.len() as u64);
        for r in history {
            e.varint(r.step as u64);
            e.f64(r.mean_reward);
            e.f64(r.best_reward);
            e.f64(r.entropy);
            e.f64(r.step_time_ms);
        }
        e.varint(evaluated.len() as u64);
        for c in evaluated {
            e.varint(c.sample.len() as u64);
            for &choice in &c.sample {
                e.varint(choice as u64);
            }
            e.f64(c.result.quality);
            e.varint(c.result.perf_values.len() as u64);
            for &p in &c.result.perf_values {
                e.f64(p);
            }
            e.f64(c.reward);
        }
        let payload = e.into_vec();
        let at = out.len();
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        let checksum = wire::fnv1a(&out[at..]);
        out.extend_from_slice(&checksum.to_le_bytes());
        Self {
            bytes: self.bytes + (out.len() - at) as u64,
            history_len: self.history_len + history.len(),
            evaluated_len: self.evaluated_len + evaluated.len(),
            digest: chain_digest(self.digest, checksum),
        }
    }
}

fn decode_log_frame(payload: &[u8], state: &mut ResumeState) -> Result<(), CkptError> {
    let mut d = Dec::new(payload);
    let n_history = d.varint_len("history")?;
    state.history.reserve(n_history);
    for _ in 0..n_history {
        state.history.push(StepRecord {
            step: to_usize(d.varint()?)?,
            mean_reward: d.f64()?,
            best_reward: d.f64()?,
            entropy: d.f64()?,
            step_time_ms: d.f64()?,
        });
    }
    let n_evaluated = d.varint_len("evaluated candidates")?;
    state.evaluated.reserve(n_evaluated);
    for _ in 0..n_evaluated {
        let n_sample = d.varint_len("arch sample")?;
        let mut sample = Vec::with_capacity(n_sample);
        for _ in 0..n_sample {
            sample.push(to_usize(d.varint()?)?);
        }
        let quality = d.f64()?;
        let n_perf = d.varint_len("perf values")?;
        let mut perf_values = Vec::with_capacity(n_perf);
        for _ in 0..n_perf {
            perf_values.push(d.f64()?);
        }
        let reward = d.f64()?;
        state.evaluated.push(EvaluatedCandidate {
            sample,
            result: EvalResult {
                quality,
                perf_values,
            },
            reward,
        });
    }
    Ok(d.finish()?)
}

/// Verifies `log`, which must be exactly the prefix `cursor` describes,
/// and appends its records to `state`'s (empty) history and candidates:
/// per frame bounds → checksum → decode, then the record counts and the
/// frame digest against `cursor`.
fn decode_log(log: &[u8], cursor: &LogCursor, state: &mut ResumeState) -> Result<(), CkptError> {
    let mut digest = LogCursor::default().digest;
    let mut pos = 0;
    while pos < log.len() {
        let overrun = || CkptError::Corrupt(format!("log frame at byte {pos} overruns the log"));
        let len = wire::read_u64_le(log.get(pos..pos + 8).ok_or_else(overrun)?)?;
        let end = usize::try_from(len)
            .ok()
            .and_then(|len| (pos + 16).checked_add(len))
            .filter(|&end| end <= log.len())
            .ok_or_else(overrun)?;
        let (framed, checksum) = log[pos..end].split_at(end - pos - 8);
        let checksum = wire::read_u64_le(checksum)?;
        if wire::fnv1a(framed) != checksum {
            return Err(CkptError::ChecksumMismatch);
        }
        decode_log_frame(&framed[8..], state)?;
        digest = chain_digest(digest, checksum);
        pos = end;
    }
    if state.history.len() != cursor.history_len
        || state.evaluated.len() != cursor.evaluated_len
        || digest != cursor.digest
    {
        return Err(CkptError::Corrupt(
            "log does not hold the frames its snapshot covers".into(),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Snapshot files.
// ---------------------------------------------------------------------------

/// Frames a snapshot payload as a file:
/// `MAGIC | version u32 | fingerprint u64 | payload_len u64 | payload |
/// fnv1a-checksum u64` — all integers little-endian, the checksum covering
/// every preceding byte.
fn frame_file(payload: &[u8], fingerprint: u64, version: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(MAGIC.len() + 28 + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let checksum = wire::fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// A v2 snapshot: the controller state, then the log prefix it covers
/// (bytes, step records, candidates, digest; four `u64`s), then the supernet
/// state. Its size does not depend on how long the search has run.
fn encode_snapshot(snapshot: &SearchSnapshot<'_>, log: &LogCursor, fingerprint: u64) -> Vec<u8> {
    let mut e = Enc::new();
    encode_controller(&mut e, snapshot);
    e.u64(log.bytes);
    e.u64(log.history_len as u64);
    e.u64(log.evaluated_len as u64);
    e.u64(log.digest);
    encode_supernet(&mut e, snapshot.supernet_state);
    frame_file(e.as_slice(), fingerprint, FORMAT_VERSION)
}

/// A validated snapshot file.
enum Snapshot {
    /// The whole resume state, as a v1 file holds it.
    V1(ResumeState),
    /// A v2 file: the resume state without its history and candidates,
    /// which the log prefix `log` holds.
    V2 { state: ResumeState, log: LogCursor },
}

/// Validation order: magic → whole-file checksum → format version →
/// fingerprint → payload length → payload decode.
fn decode_snapshot(bytes: &[u8], expected_fingerprint: u64) -> Result<Snapshot, CkptError> {
    // Fixed overhead: magic(8) + version(4) + fingerprint(8) + len(8) +
    // checksum(8).
    const HEADER: usize = 8 + 4 + 8 + 8;
    if bytes.len() < HEADER + 8 {
        return Err(CkptError::Truncated);
    }
    if &bytes[..8] != MAGIC {
        return Err(CkptError::BadMagic);
    }
    let (content, checksum_bytes) = bytes.split_at(bytes.len() - 8);
    let stored = wire::read_u64_le(checksum_bytes)?;
    if wire::fnv1a(content) != stored {
        return Err(CkptError::ChecksumMismatch);
    }
    let version = wire::read_u32_le(&content[8..12])?;
    if version != V1 && version != FORMAT_VERSION {
        return Err(CkptError::BadVersion {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let fingerprint = wire::read_u64_le(&content[12..20])?;
    if fingerprint != expected_fingerprint {
        return Err(CkptError::FingerprintMismatch {
            found: fingerprint,
            expected: expected_fingerprint,
        });
    }
    let payload_len = wire::read_u64_le(&content[20..28])?;
    let payload = &content[28..];
    if payload_len != payload.len() as u64 {
        return Err(CkptError::Corrupt(format!(
            "declared payload length {payload_len}, found {}",
            payload.len()
        )));
    }
    if version == V1 {
        return decode_v1_payload(payload).map(Snapshot::V1);
    }
    let mut d = Dec::new(payload);
    let (steps_done, policy, baseline) = decode_controller(&mut d)?;
    let log = LogCursor {
        bytes: d.u64()?,
        history_len: to_usize(d.u64()?)?,
        evaluated_len: to_usize(d.u64()?)?,
        digest: d.u64()?,
    };
    let supernet_state = decode_supernet(&mut d)?;
    d.finish()?;
    let state = ResumeState {
        steps_done,
        policy,
        baseline,
        history: Vec::new(),
        evaluated: Vec::new(),
        supernet_state,
    };
    Ok(Snapshot::V2 { state, log })
}

/// Serialises a snapshot as the two files a fresh [`CheckpointStore`]
/// writes for it: the controller snapshot (current format version, stamped
/// with the config `fingerprint`) and a log holding the snapshot's history
/// and candidates in one frame. Returns `(snapshot, log)`.
pub fn encode_file(snapshot: &SearchSnapshot<'_>, fingerprint: u64) -> (Vec<u8>, Vec<u8>) {
    let mut log = Vec::new();
    let cursor = LogCursor::default().append_frame(&mut log, snapshot.history, snapshot.evaluated);
    (encode_snapshot(snapshot, &cursor, fingerprint), log)
}

/// Parses and validates a snapshot file and the log it covers.
///
/// Validation order: magic → whole-file checksum → format version →
/// fingerprint → payload length → payload decode, then each frame's
/// checksum in the log prefix the snapshot covers, and that prefix's
/// record counts and frame digest. The fingerprint must equal
/// `expected_fingerprint` ([`CkptError::FingerprintMismatch`] otherwise) —
/// resuming under a different search config would silently produce a
/// trajectory neither run ever had. Log bytes past the covered prefix are
/// ignored: a save that crashed before publishing its snapshot left them.
/// A v1 snapshot holds its history and candidates itself and ignores
/// `log`.
///
/// # Errors
///
/// Any [`CkptError`] variant except `Io`.
pub fn decode_file(
    snapshot: &[u8],
    log: &[u8],
    expected_fingerprint: u64,
) -> Result<ResumeState, CkptError> {
    let prefix = |len: u64| {
        usize::try_from(len)
            .ok()
            .and_then(|len| log.get(..len))
            .map(Cow::Borrowed)
            .ok_or(CkptError::Truncated)
    };
    decode_checkpoint(snapshot, expected_fingerprint, prefix).map(|(state, _)| state)
}

/// [`decode_file`] with the log prefix supplied by `read_log`, given its
/// length in bytes. Also returns the prefix the snapshot covers: the empty
/// one for a v1 snapshot, which holds its records itself.
fn decode_checkpoint<'a>(
    snapshot: &[u8],
    expected_fingerprint: u64,
    read_log: impl FnOnce(u64) -> Result<Cow<'a, [u8]>, CkptError>,
) -> Result<(ResumeState, LogCursor), CkptError> {
    match decode_snapshot(snapshot, expected_fingerprint)? {
        Snapshot::V1(state) => Ok((state, LogCursor::default())),
        Snapshot::V2 { mut state, log } => {
            decode_log(&read_log(log.bytes)?, &log, &mut state)?;
            Ok((state, log))
        }
    }
}

// ---------------------------------------------------------------------------
// Durable store.
// ---------------------------------------------------------------------------

/// Best-effort directory fsync, so a create, rename or removal in `dir`
/// survives a crash; not all platforms allow opening a directory for sync.
fn sync_dir(dir: &Path) {
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

/// A directory of checkpoints for one search run, all stamped with the same
/// config fingerprint: one log, and the snapshots `ckpt-<steps>.h2o` that
/// each cover a prefix of it.
///
/// A save appends the step records and candidates the log lacks as one
/// frame and fsyncs the log; only then does it publish the snapshot,
/// atomically: the file is assembled under a `.tmp` name, fsynced, renamed
/// into place, and the directory is fsynced. A crash at any point leaves
/// every earlier snapshot and the log prefix it covers intact. Whatever the
/// log holds past the latest snapshot's prefix is ignored by a load and
/// overwritten by the next save.
///
/// The store remembers the log prefix it last saved or loaded (the empty
/// prefix after loading a v1 snapshot, which needs no log). A save whose
/// snapshot holds at least that prefix's records appends the rest after
/// it. Any other save, such as the first of a fresh run, starts the log
/// over, and first removes every snapshot in the directory.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    fingerprint: u64,
    /// The log prefix this store last saved or loaded; the next frame goes
    /// right after it.
    tail: Cell<Option<LogCursor>>,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory for a search whose
    /// config fingerprints to `fingerprint`.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] if the directory cannot be created.
    pub fn new(dir: impl Into<PathBuf>, fingerprint: u64) -> Result<Self, CkptError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            fingerprint,
            tail: Cell::new(None),
        })
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The config fingerprint stamped on every snapshot.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Final path of the snapshot taken after `steps_done` steps.
    pub fn path_for(&self, steps_done: usize) -> PathBuf {
        self.dir.join(format!("ckpt-{steps_done:08}.{EXT}"))
    }

    /// Path of the log of step records and evaluated candidates.
    pub fn log_path(&self) -> PathBuf {
        self.dir.join(LOG_FILE)
    }

    /// Appends what the log lacks, then atomically writes the snapshot;
    /// returns the snapshot's final path.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] on any filesystem failure (the `.tmp` file is left
    /// behind for post-mortem only if the rename itself failed).
    pub fn save(&self, snapshot: &SearchSnapshot<'_>) -> Result<PathBuf, CkptError> {
        let span = h2o_obs::span("ckpt_save");
        let mut frames = Vec::new();
        let kept = self.tail.get().and_then(|tail| {
            let history = snapshot.history.get(tail.history_len..)?;
            let evaluated = snapshot.evaluated.get(tail.evaluated_len..)?;
            Some((tail, history, evaluated))
        });
        let (offset, tail) = match kept {
            Some((tail, history, evaluated)) => (
                tail.bytes,
                tail.append_frame(&mut frames, history, evaluated),
            ),
            None => {
                self.remove_snapshots()?;
                let empty = LogCursor::default();
                let tail = empty.append_frame(&mut frames, snapshot.history, snapshot.evaluated);
                (0, tail)
            }
        };
        if !frames.is_empty() {
            let mut log = fs::OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(self.log_path())?;
            // Drops whatever a crashed save left past the kept prefix.
            log.set_len(offset)?;
            log.seek(SeekFrom::Start(offset))?;
            log.write_all(&frames)?;
            // The frames must be on disk before a snapshot covering them
            // is published.
            log.sync_all()?;
        }
        let bytes = encode_snapshot(snapshot, &tail, self.fingerprint);
        let final_path = self.path_for(snapshot.steps_done);
        let tmp_path = final_path.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp_path)?;
            f.write_all(&bytes)?;
            // Data must be on disk before the rename publishes the file.
            f.sync_all()?;
        }
        fs::rename(&tmp_path, &final_path)?;
        sync_dir(&self.dir);
        self.tail.set(Some(tail));
        h2o_obs::counter("h2o_ckpt_snapshots_written_total").inc();
        h2o_obs::counter("h2o_ckpt_bytes_written_total").add((frames.len() + bytes.len()) as u64);
        span.finish();
        Ok(final_path)
    }

    /// Every finished snapshot in the directory, as `(steps_done, path)`.
    fn snapshots(&self) -> Result<Vec<(usize, PathBuf)>, CkptError> {
        let mut found = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name
                .strip_prefix("ckpt-")
                .and_then(|s| s.strip_suffix(&format!(".{EXT}")))
            else {
                continue;
            };
            if let Ok(steps) = stem.parse::<usize>() {
                found.push((steps, entry.path()));
            }
        }
        Ok(found)
    }

    /// Removes every snapshot before the log starts over: once its frames
    /// are rewritten, a snapshot of the old run would point past the log's
    /// end or into frames it never covered, and a v1 one would resume the
    /// old run instead of the new.
    fn remove_snapshots(&self) -> Result<(), CkptError> {
        for (_, path) in self.snapshots()? {
            fs::remove_file(&path)?;
        }
        // The removals must be durable before the log is rewritten.
        sync_dir(&self.dir);
        Ok(())
    }

    /// The highest `steps_done` among complete checkpoints in the
    /// directory, or `None` if there are none.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] if the directory cannot be read.
    pub fn latest_step(&self) -> Result<Option<usize>, CkptError> {
        Ok(self.snapshots()?.into_iter().map(|(steps, _)| steps).max())
    }

    /// Reads the first `len` bytes of the log.
    fn read_log_prefix(&self, len: u64) -> Result<Vec<u8>, CkptError> {
        if len == 0 {
            // A snapshot with no records covers the empty log, which a save
            // does not create.
            return Ok(Vec::new());
        }
        let file = fs::File::open(self.log_path())?;
        // `len` comes from the snapshot: check it against the file before
        // allocating for it.
        if file.metadata()?.len() < len {
            return Err(CkptError::Truncated);
        }
        let mut prefix = Vec::with_capacity(to_usize(len)?);
        file.take(len).read_to_end(&mut prefix)?;
        if (prefix.len() as u64) < len {
            return Err(CkptError::Truncated);
        }
        Ok(prefix)
    }

    /// Loads and validates the checkpoint taken after `steps_done` steps:
    /// the snapshot and exactly the log prefix it covers. The next save
    /// appends right after that prefix.
    ///
    /// # Errors
    ///
    /// Any [`CkptError`]: missing file, corruption, version or fingerprint
    /// mismatch, a log shorter than the snapshot records.
    pub fn load(&self, steps_done: usize) -> Result<ResumeState, CkptError> {
        let span = h2o_obs::span("ckpt_load");
        let bytes = fs::read(self.path_for(steps_done))?;
        let (state, tail) = decode_checkpoint(&bytes, self.fingerprint, |len| {
            self.read_log_prefix(len).map(Cow::Owned)
        })?;
        // After a v1 snapshot the next save appends the whole history to an
        // empty log.
        self.tail.set(Some(tail));
        h2o_obs::counter("h2o_ckpt_restores_total").inc();
        span.finish();
        Ok(state)
    }

    /// Loads the most recent checkpoint, or `None` if the directory holds
    /// none.
    ///
    /// # Errors
    ///
    /// As for [`CheckpointStore::load`].
    pub fn load_latest(&self) -> Result<Option<ResumeState>, CkptError> {
        match self.latest_step()? {
            Some(steps) => Ok(Some(self.load(steps)?)),
            None => Ok(None),
        }
    }
}

/// A [`CheckpointSink`] that persists every `every`-th completed step into
/// a [`CheckpointStore`].
#[derive(Debug)]
pub struct FileCheckpointSink {
    store: CheckpointStore,
    every: usize,
}

impl FileCheckpointSink {
    /// Snapshots after every `every` completed steps (so step counts
    /// `every, 2·every, …`).
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn new(store: CheckpointStore, every: usize) -> Self {
        assert!(every > 0, "checkpoint cadence must be at least 1 step");
        Self { store, every }
    }

    /// The underlying store.
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }
}

impl CheckpointSink for FileCheckpointSink {
    fn should_checkpoint(&self, steps_done: usize) -> bool {
        steps_done > 0 && steps_done.is_multiple_of(self.every)
    }

    fn on_checkpoint(&mut self, snapshot: &SearchSnapshot<'_>) -> Result<(), String> {
        self.store
            .save(snapshot)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> ResumeState {
        ResumeState {
            steps_done: 12,
            policy: Policy::from_logits(vec![vec![0.25, -1.5, 3.0], vec![0.0, 42.5]]),
            baseline: RewardBaseline::from_parts(-0.125, 0.9, true),
            history: vec![
                StepRecord {
                    step: 0,
                    mean_reward: -1.0,
                    best_reward: -0.5,
                    entropy: 1.09,
                    step_time_ms: 3.25,
                },
                StepRecord {
                    step: 11,
                    mean_reward: 0.75,
                    best_reward: 1.5,
                    entropy: 0.4,
                    step_time_ms: 2.0,
                },
            ],
            evaluated: vec![EvaluatedCandidate {
                sample: vec![2, 1],
                result: EvalResult {
                    quality: 0.875,
                    perf_values: vec![1e6, 2.5],
                },
                reward: -0.25,
            }],
            supernet_state: Some(vec![7, 0, 255, 3]),
        }
    }

    /// The v1 encoder older binaries ran, kept to produce the files they
    /// left behind.
    fn encode_v1(snapshot: &SearchSnapshot<'_>, fingerprint: u64) -> Vec<u8> {
        let mut e = Enc::new();
        encode_controller(&mut e, snapshot);
        e.u64(snapshot.history.len() as u64);
        for r in snapshot.history {
            e.u64(r.step as u64);
            e.f64(r.mean_reward);
            e.f64(r.best_reward);
            e.f64(r.entropy);
            e.f64(r.step_time_ms);
        }
        e.u64(snapshot.evaluated.len() as u64);
        for c in snapshot.evaluated {
            e.u64(c.sample.len() as u64);
            for &choice in &c.sample {
                e.u64(choice as u64);
            }
            e.f64(c.result.quality);
            e.u64(c.result.perf_values.len() as u64);
            for &p in &c.result.perf_values {
                e.f64(p);
            }
            e.f64(c.reward);
        }
        encode_supernet(&mut e, snapshot.supernet_state);
        frame_file(e.as_slice(), fingerprint, V1)
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("h2o_ckpt_{}_{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn bytes_round_trip_bit_exactly() {
        let state = sample_state();
        let (snapshot, log) = encode_file(&state.as_snapshot(), 0xDEAD_BEEF);
        let back = decode_file(&snapshot, &log, 0xDEAD_BEEF).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn encoded_bytes_are_pinned() {
        // The v1 bytes every earlier binary wrote: they must keep loading.
        let bytes = encode_v1(&sample_state().as_snapshot(), 0xDEAD_BEEF);
        assert_eq!(bytes.len(), 312);
        assert_eq!(wire::fnv1a(&bytes), 0x030a_e6b0_d992_8b7d);
        assert_eq!(decode_file(&bytes, &[], 0xDEAD_BEEF), Ok(sample_state()));
    }

    #[test]
    fn v2_bytes_are_pinned() {
        // Round trips cannot see a layout change; these digests can. A new
        // digest means directories written by older binaries no longer
        // resume, so it must come with a FORMAT_VERSION bump.
        let (snapshot, log) = encode_file(&sample_state().as_snapshot(), 0xDEAD_BEEF);
        assert_eq!(snapshot.len(), 184);
        assert_eq!(wire::fnv1a(&snapshot), 0x7132_f13c_46b4_b4d1);
        assert_eq!(log.len(), 120);
        assert_eq!(wire::fnv1a(&log), 0xd85e_2fea_0dea_07ac);
    }

    #[test]
    fn no_supernet_state_round_trips() {
        let mut state = sample_state();
        state.supernet_state = None;
        let (snapshot, log) = encode_file(&state.as_snapshot(), 1);
        assert_eq!(decode_file(&snapshot, &log, 1).unwrap(), state);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let state = sample_state();
        let (snapshot, log) = encode_file(&state.as_snapshot(), 5);
        for i in 0..snapshot.len() {
            let mut bad = snapshot.clone();
            bad[i] ^= 0x40;
            let err = decode_file(&bad, &log, 5).expect_err("flip must be rejected");
            assert!(
                matches!(err, CkptError::ChecksumMismatch | CkptError::BadMagic),
                "snapshot byte {i}: unexpected error {err:?}"
            );
        }
        for i in 0..log.len() {
            let mut bad = log.clone();
            bad[i] ^= 0x40;
            let err = decode_file(&snapshot, &bad, 5).expect_err("flip must be rejected");
            assert!(
                matches!(err, CkptError::ChecksumMismatch | CkptError::Corrupt(_)),
                "log byte {i}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let state = sample_state();
        let (snapshot, log) = encode_file(&state.as_snapshot(), 5);
        for cut in [0, 7, 20, snapshot.len() - 1] {
            let err =
                decode_file(&snapshot[..cut], &log, 5).expect_err("truncation must be rejected");
            assert!(
                matches!(err, CkptError::Truncated | CkptError::ChecksumMismatch),
                "cut {cut}: unexpected error {err:?}"
            );
        }
        for cut in [0, 7, 8, log.len() - 1] {
            assert_eq!(
                decode_file(&snapshot, &log[..cut], 5),
                Err(CkptError::Truncated),
                "log cut at {cut}"
            );
        }
    }

    #[test]
    fn bytes_past_the_covered_prefix_are_ignored() {
        let state = sample_state();
        let (snapshot, mut log) = encode_file(&state.as_snapshot(), 5);
        log.extend_from_slice(b"torn frame");
        assert_eq!(decode_file(&snapshot, &log, 5), Ok(state));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let state = sample_state();
        let (_, log) = encode_file(&state.as_snapshot(), 5);
        let mut e = Enc::new();
        encode_controller(&mut e, &state.as_snapshot());
        let future = frame_file(e.as_slice(), 5, FORMAT_VERSION + 1);
        assert_eq!(
            decode_file(&future, &log, 5),
            Err(CkptError::BadVersion {
                found: FORMAT_VERSION + 1,
                expected: FORMAT_VERSION,
            })
        );
    }

    #[test]
    fn wrong_fingerprint_is_rejected() {
        let state = sample_state();
        let (snapshot, log) = encode_file(&state.as_snapshot(), 5);
        assert_eq!(
            decode_file(&snapshot, &log, 6),
            Err(CkptError::FingerprintMismatch {
                found: 5,
                expected: 6,
            })
        );
    }

    #[test]
    fn a_log_of_other_frames_is_rejected() {
        // Same lengths and counts, different bytes: a snapshot only matches
        // the frames written before it.
        let state = sample_state();
        let (snapshot, _) = encode_file(&state.as_snapshot(), 5);
        let mut other = state.clone();
        other.history[0].step_time_ms = 9.5;
        let (_, log) = encode_file(&other.as_snapshot(), 5);
        assert!(matches!(
            decode_file(&snapshot, &log, 5),
            Err(CkptError::Corrupt(_))
        ));
    }

    #[test]
    fn store_round_trips_and_leaves_no_tmp_files() {
        let dir = temp_dir("store");
        let store = CheckpointStore::new(&dir, 99).unwrap();
        let state = sample_state();
        let path = store.save(&state.as_snapshot()).unwrap();
        assert!(path.ends_with("ckpt-00000012.h2o"));
        assert_eq!(store.load(12).unwrap(), state);
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .and_then(|x| x.to_str())
                    == Some("tmp")
            })
            .collect();
        assert!(leftovers.is_empty(), "no temp files may survive a save");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_latest_picks_the_highest_step() {
        let dir = temp_dir("latest");
        let store = CheckpointStore::new(&dir, 7).unwrap();
        for steps in [4, 12, 8] {
            let mut state = sample_state();
            state.steps_done = steps;
            store.save(&state.as_snapshot()).unwrap();
        }
        assert_eq!(store.latest_step().unwrap(), Some(12));
        assert_eq!(store.load_latest().unwrap().unwrap().steps_done, 12);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_store_has_no_latest() {
        let dir = temp_dir("empty");
        let store = CheckpointStore::new(&dir, 7).unwrap();
        assert_eq!(store.latest_step().unwrap(), None);
        assert!(store.load_latest().unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_snapshot_without_records_round_trips_through_the_store() {
        let dir = temp_dir("no_records");
        let store = CheckpointStore::new(&dir, 3).unwrap();
        let mut state = sample_state();
        state.history.clear();
        state.evaluated.clear();
        store.save(&state.as_snapshot()).unwrap();
        let reopened = CheckpointStore::new(&dir, 3).unwrap();
        assert_eq!(reopened.load_latest().unwrap(), Some(state));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_v1_directory_resumes_and_its_file_outlives_the_new_log() {
        let dir = temp_dir("v1");
        let store = CheckpointStore::new(&dir, 0xDEAD_BEEF).unwrap();
        let mut state = sample_state();
        let v1 = encode_v1(&state.as_snapshot(), 0xDEAD_BEEF);
        fs::write(store.path_for(12), &v1).unwrap();
        assert_eq!(store.load_latest().unwrap(), Some(state.clone()));
        // The first save after a v1 resume appends the whole history to an
        // empty log; the v1 file stays, because it needs no log.
        state.steps_done = 14;
        store.save(&state.as_snapshot()).unwrap();
        assert_eq!(fs::read(store.path_for(12)).unwrap(), v1);
        let reopened = CheckpointStore::new(&dir, 0xDEAD_BEEF).unwrap();
        assert_eq!(reopened.load_latest().unwrap(), Some(state.clone()));
        // A fresh run into the directory removes both, v1 file included.
        state.steps_done = 2;
        let fresh = CheckpointStore::new(&dir, 0xDEAD_BEEF).unwrap();
        fresh.save(&state.as_snapshot()).unwrap();
        assert_eq!(fresh.latest_step().unwrap(), Some(2));
        assert_eq!(fresh.load_latest().unwrap(), Some(state));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sink_checkpoints_on_the_requested_cadence() {
        let dir = temp_dir("sink");
        let store = CheckpointStore::new(&dir, 7).unwrap();
        let sink = FileCheckpointSink::new(store, 4);
        assert!(!sink.should_checkpoint(0), "never before the first step");
        assert!(!sink.should_checkpoint(3));
        assert!(sink.should_checkpoint(4));
        assert!(!sink.should_checkpoint(5));
        assert!(sink.should_checkpoint(8));
        let _ = fs::remove_dir_all(&dir);
    }
}
