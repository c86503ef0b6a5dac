//! Property tests for the checkpoint file format: arbitrary snapshots
//! round-trip bit-exactly through encode/decode and through a store whose
//! log holds them in several frames, and arbitrary corruption of the
//! snapshot or the log never slips past validation.

use h2o_ckpt::{decode_file, encode_file, CheckpointStore, CkptError};
use h2o_core::{EvalResult, EvaluatedCandidate, Policy, ResumeState, RewardBaseline, StepRecord};
use proptest::prelude::*;

/// Builds a `ResumeState` from plain generated parts (logits per decision,
/// float payloads via bit patterns so NaNs and infinities are covered too).
#[allow(clippy::type_complexity)]
fn state_from(
    steps_done: usize,
    logits: Vec<Vec<u64>>,
    baseline_bits: u64,
    initialized: bool,
    history_bits: Vec<(u64, u64, u64)>,
    candidates: Vec<(Vec<u64>, u64, Vec<u64>)>,
    supernet: Option<Vec<u8>>,
) -> ResumeState {
    ResumeState {
        steps_done,
        policy: Policy::from_logits(
            logits
                .into_iter()
                .map(|row| row.into_iter().map(f64::from_bits).collect())
                .collect(),
        ),
        baseline: RewardBaseline::from_parts(f64::from_bits(baseline_bits), 0.9, initialized),
        history: history_bits
            .into_iter()
            .enumerate()
            .map(|(i, (mean, best, entropy))| StepRecord {
                step: i,
                mean_reward: f64::from_bits(mean),
                best_reward: f64::from_bits(best),
                entropy: f64::from_bits(entropy),
                step_time_ms: i as f64,
            })
            .collect(),
        evaluated: candidates
            .into_iter()
            .map(|(sample, quality, perf)| EvaluatedCandidate {
                sample: sample.into_iter().map(|c| c as usize).collect(),
                result: EvalResult {
                    quality: f64::from_bits(quality),
                    perf_values: perf.into_iter().map(f64::from_bits).collect(),
                },
                reward: f64::from_bits(quality ^ 1),
            })
            .collect(),
        supernet_state: supernet,
    }
}

// The vendored proptest only samples numeric ranges, tuples, and vectors,
// so richer shapes are built from those: bools from `0..2`, `Option` from a
// (discriminant, payload) pair, and raw bytes from `0u64..256`.
const BITS: std::ops::Range<u64> = 0u64..u64::MAX;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    fn arbitrary_snapshots_round_trip_bit_exactly(
        steps_done in 0usize..10_000,
        logits in prop::collection::vec(prop::collection::vec(BITS, 1..6), 1..5),
        baseline_bits in BITS,
        initialized in 0usize..2,
        history in prop::collection::vec((BITS, BITS, BITS), 0..8),
        candidates in prop::collection::vec(
            (prop::collection::vec(0u64..64, 0..5), BITS,
             prop::collection::vec(BITS, 0..3)),
            0..6,
        ),
        supernet in (0usize..2, prop::collection::vec(0u64..256, 0..64)),
        fingerprint in BITS,
    ) {
        let (has_supernet, supernet_bytes) = supernet;
        let supernet = (has_supernet == 1)
            .then(|| supernet_bytes.into_iter().map(|b| b as u8).collect());
        let state = state_from(
            steps_done, logits, baseline_bits, initialized == 1, history, candidates, supernet,
        );
        let (snapshot, log) = encode_file(&state.as_snapshot(), fingerprint);
        let back = decode_file(&snapshot, &log, fingerprint).expect("well-formed files decode");
        // Bit-level equality: compare a re-encoding, which is sensitive to
        // every stored bit (including NaN payloads PartialEq would miss).
        prop_assert_eq!(encode_file(&back.as_snapshot(), fingerprint), (snapshot, log));
    }

    fn corruption_never_slips_past_validation(
        steps_done in 0usize..100,
        logits in prop::collection::vec(prop::collection::vec(BITS, 1..4), 1..3),
        // At least one record, so the log has a frame to corrupt.
        history in prop::collection::vec((BITS, BITS, BITS), 1..4),
        candidates in prop::collection::vec(
            (prop::collection::vec(0u64..300, 0..5), BITS,
             prop::collection::vec(BITS, 0..3)),
            0..4,
        ),
        in_log in 0usize..2,
        offset in 0usize..1_000_000,
        flip in 1u64..256,
    ) {
        let state = state_from(steps_done, logits, 0, false, history, candidates, None);
        let (mut snapshot, mut log) = encode_file(&state.as_snapshot(), 42);
        let bytes = if in_log == 1 { &mut log } else { &mut snapshot };
        let i = offset % bytes.len();
        bytes[i] ^= flip as u8;
        // Any single-byte corruption must be caught — never decoded into a
        // different state: in the snapshot by the magic or the whole-file
        // checksum, in the log by a frame checksum or the log's framing.
        let err = decode_file(&snapshot, &log, 42).expect_err("corruption detected");
        let caught = if in_log == 1 {
            matches!(err, CkptError::ChecksumMismatch | CkptError::Corrupt(_))
        } else {
            matches!(err, CkptError::ChecksumMismatch | CkptError::BadMagic)
        };
        prop_assert!(caught, "unexpected error {:?} (in_log = {})", err, in_log);
    }
}

proptest! {
    // Every case writes files and fsyncs them, so fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    fn a_log_of_several_frames_round_trips_through_the_store(
        history in prop::collection::vec((BITS, BITS, BITS), 0..12),
        candidates in prop::collection::vec(
            (prop::collection::vec(0u64..1 << 20, 0..5), BITS,
             prop::collection::vec(BITS, 0..3)),
            0..12,
        ),
        cuts in prop::collection::vec((0usize..13, 0usize..13), 0..4),
    ) {
        let state = state_from(30, vec![vec![0, 1]], 0, true, history, candidates, None);
        let dir = std::env::temp_dir().join(format!("h2o_ckpt_props_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir, 3).expect("store opens");
        // Save growing prefixes, one frame each, then the whole state.
        let (mut steps, mut cands) = (0, 0);
        for (i, (h, c)) in cuts.into_iter().enumerate() {
            steps = (steps + h).min(state.history.len());
            cands = (cands + c).min(state.evaluated.len());
            let mut prefix = state.clone();
            prefix.steps_done = i + 1;
            prefix.history.truncate(steps);
            prefix.evaluated.truncate(cands);
            store.save(&prefix.as_snapshot()).expect("prefix saves");
        }
        store.save(&state.as_snapshot()).expect("state saves");
        let back = CheckpointStore::new(&dir, 3)
            .and_then(|s| s.load(state.steps_done))
            .expect("state loads");
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(
            encode_file(&back.as_snapshot(), 3),
            encode_file(&state.as_snapshot(), 3)
        );
    }
}
