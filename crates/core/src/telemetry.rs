//! Search telemetry export.
//!
//! Production NAS runs are monitored: reward curves, entropy decay and the
//! evaluated-candidate cloud (Fig. 5a's scatter) all come from step
//! telemetry. This module writes a [`SearchOutcome`] as CSV, ready for any
//! plotting tool, streaming rows straight to disk — the only on-disk
//! artefact the system produces (architectures and telemetry only; never
//! training data, per the §3 privacy posture).

use crate::search::{EvaluatedCandidate, SearchOutcome, StepRecord};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Writes per-step telemetry
/// (`step, mean_reward, best_reward, entropy, step_time_ms`) as CSV: the
/// header, then one row per record. The timing column is fed by the span
/// timers around each search step.
///
/// # Errors
///
/// Propagates the first error `out` returns.
pub fn write_history(out: &mut impl Write, history: &[StepRecord]) -> io::Result<()> {
    out.write_all(b"step,mean_reward,best_reward,entropy,step_time_ms\n")?;
    for record in history {
        writeln!(
            out,
            "{},{},{},{},{}",
            record.step,
            record.mean_reward,
            record.best_reward,
            record.entropy,
            record.step_time_ms
        )?;
    }
    Ok(())
}

/// Writes the evaluated-candidate cloud
/// (`reward, quality, perf_0..perf_{n-1}, sample`) as CSV: the header,
/// sized by the first candidate's perf values, then one row per candidate.
/// The sample is encoded as `/`-joined choice indices so it stays a single
/// CSV field; each choice is written straight to `out`.
///
/// # Errors
///
/// Propagates the first error `out` returns.
pub fn write_candidates(out: &mut impl Write, evaluated: &[EvaluatedCandidate]) -> io::Result<()> {
    let n_perf = evaluated.first().map_or(0, |c| c.result.perf_values.len());
    out.write_all(b"reward,quality")?;
    for i in 0..n_perf {
        write!(out, ",perf_{i}")?;
    }
    out.write_all(b",sample\n")?;
    for c in evaluated {
        write!(out, "{},{}", c.reward, c.result.quality)?;
        for v in &c.result.perf_values {
            write!(out, ",{v}")?;
        }
        out.write_all(b",")?;
        for (i, choice) in c.sample.iter().enumerate() {
            if i > 0 {
                out.write_all(b"/")?;
            }
            write_decimal(out, *choice)?;
        }
        out.write_all(b"\n")?;
    }
    Ok(())
}

/// Writes `v` as `{v}` would, without the formatting machinery's per-call
/// cost: a production-DLRM row holds 110 choices.
fn write_decimal(out: &mut impl Write, mut v: usize) -> io::Result<()> {
    const MAX_DIGITS: usize = usize::MAX.ilog10() as usize + 1;
    let mut digits = [0u8; MAX_DIGITS];
    let mut start = MAX_DIGITS;
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.write_all(&digits[start..])
}

/// The history CSV of [`write_history`] as a `String`.
pub fn history_csv(outcome: &SearchOutcome) -> String {
    render(|out| write_history(out, &outcome.history))
}

/// The candidates CSV of [`write_candidates`] as a `String`.
pub fn candidates_csv(outcome: &SearchOutcome) -> String {
    render(|out| write_candidates(out, &outcome.evaluated))
}

fn render(write: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> String {
    let mut out = Vec::new();
    // Writing into a `Vec` cannot fail, and the writers emit only ASCII.
    let _ = write(&mut out);
    String::from_utf8_lossy(&out).into_owned()
}

/// Writes both CSVs next to each other: `<stem>_history.csv` and
/// `<stem>_candidates.csv`, each streamed through a buffer.
///
/// # Errors
///
/// Propagates filesystem errors, including one that only the final flush
/// of a file meets.
pub fn write_csvs(outcome: &SearchOutcome, stem: &Path) -> io::Result<()> {
    let create = |suffix: &str| {
        let mut name = stem.file_name().unwrap_or_default().to_os_string();
        name.push(suffix);
        File::create(stem.with_file_name(name))
    };
    write_buffered(create("_history.csv")?, |out| {
        write_history(out, &outcome.history)
    })?;
    write_buffered(create("_candidates.csv")?, |out| {
        write_candidates(out, &outcome.evaluated)
    })
}

/// Runs `rows` against `file` through a [`BufWriter`], then flushes it:
/// dropping a `BufWriter` would discard the error of its last write.
fn write_buffered<W: Write>(
    file: W,
    rows: impl FnOnce(&mut BufWriter<W>) -> io::Result<()>,
) -> io::Result<()> {
    let mut out = BufWriter::new(file);
    rows(&mut out)?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{EvalResult, EvaluatedCandidate, StepRecord};
    use crate::Policy;
    use h2o_space::{Decision, SearchSpace};

    /// A per-test temp dir: process id + test name, so parallel test
    /// binaries and in-process test threads never collide.
    fn unique_temp_dir(test_name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "h2o_telemetry_{}_{}",
            std::process::id(),
            test_name
        ))
    }

    fn outcome() -> SearchOutcome {
        let mut space = SearchSpace::new("t");
        space.push(Decision::new("a", 3));
        SearchOutcome {
            best: vec![1],
            policy: Policy::uniform(&space),
            history: vec![
                StepRecord {
                    step: 0,
                    mean_reward: 1.0,
                    best_reward: 2.0,
                    entropy: 1.1,
                    step_time_ms: 12.5,
                },
                StepRecord {
                    step: 1,
                    mean_reward: 1.5,
                    best_reward: 2.5,
                    entropy: 0.9,
                    step_time_ms: 11.0,
                },
            ],
            evaluated: vec![EvaluatedCandidate {
                sample: vec![2],
                result: EvalResult {
                    quality: 9.0,
                    perf_values: vec![0.5, 100.0],
                },
                reward: 8.5,
            }],
        }
    }

    #[test]
    fn history_csv_has_header_and_rows() {
        let csv = history_csv(&outcome());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "step,mean_reward,best_reward,entropy,step_time_ms"
        );
        assert!(lines[1].starts_with("0,1,2,"));
        assert!(lines[1].ends_with(",12.5"));
    }

    #[test]
    fn candidates_csv_encodes_perf_columns_and_sample() {
        let csv = candidates_csv(&outcome());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "reward,quality,perf_0,perf_1,sample");
        assert_eq!(lines[1], "8.5,9,0.5,100,2");
    }

    #[test]
    fn write_csvs_creates_both_files() {
        let dir = unique_temp_dir("write_csvs_creates_both_files");
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join("run1");
        write_csvs(&outcome(), &stem).unwrap();
        assert!(dir.join("run1_history.csv").exists());
        assert!(dir.join("run1_candidates.csv").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn written_history_round_trips_the_timing_column() {
        let dir = unique_temp_dir("written_history_round_trips_the_timing_column");
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join("run2");
        write_csvs(&outcome(), &stem).unwrap();
        let text = std::fs::read_to_string(dir.join("run2_history.csv")).unwrap();
        assert!(text.starts_with("step,mean_reward,best_reward,entropy,step_time_ms\n"));
        assert!(text.contains(",12.5\n"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The `String` formatter the streaming writers replaced, kept as their
    /// reference.
    fn reference_csvs(outcome: &SearchOutcome) -> (String, String) {
        use std::fmt::Write as _;
        let mut history = String::from("step,mean_reward,best_reward,entropy,step_time_ms\n");
        for record in &outcome.history {
            let _ = writeln!(
                history,
                "{},{},{},{},{}",
                record.step,
                record.mean_reward,
                record.best_reward,
                record.entropy,
                record.step_time_ms
            );
        }
        let n_perf = outcome
            .evaluated
            .first()
            .map(|c| c.result.perf_values.len())
            .unwrap_or(0);
        let mut candidates = String::from("reward,quality");
        for i in 0..n_perf {
            let _ = write!(candidates, ",perf_{i}");
        }
        candidates.push_str(",sample\n");
        for c in &outcome.evaluated {
            let _ = write!(candidates, "{},{}", c.reward, c.result.quality);
            for v in &c.result.perf_values {
                let _ = write!(candidates, ",{v}");
            }
            let sample: Vec<String> = c.sample.iter().map(|x| x.to_string()).collect();
            let _ = writeln!(candidates, ",{}", sample.join("/"));
        }
        (history, candidates)
    }

    /// An outcome whose rows hold multi-digit and extreme choices and
    /// non-finite, negative-zero and subnormal floats, with `n_perf` perf
    /// columns.
    fn edge_outcome(n_perf: usize) -> SearchOutcome {
        let floats = [
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 4.0,
            -1.5e-7,
            8.25,
        ];
        let choices = [0, 9, 10, 99, 100, usize::MAX];
        let float = |i: usize| floats[i % floats.len()];
        let mut o = outcome();
        o.history = (0..floats.len())
            .map(|i| StepRecord {
                step: [i, usize::MAX][i % 2],
                mean_reward: float(i),
                best_reward: float(i + 1),
                entropy: float(i + 2),
                step_time_ms: float(i + 3),
            })
            .collect();
        o.evaluated = (0..floats.len())
            .map(|i| EvaluatedCandidate {
                sample: (0..choices.len() + i)
                    .map(|j| choices[(i + j) % choices.len()])
                    .collect(),
                result: EvalResult {
                    quality: float(i + 1),
                    perf_values: (0..n_perf).map(|j| float(i + 2 + j)).collect(),
                },
                reward: float(i),
            })
            .collect();
        o.evaluated.push(EvaluatedCandidate {
            sample: vec![],
            result: EvalResult {
                quality: 0.0,
                perf_values: vec![1.0; n_perf],
            },
            reward: 0.0,
        });
        o
    }

    #[test]
    fn writers_match_the_reference_formatter_byte_for_byte() {
        let dir = unique_temp_dir("writers_match_the_reference_formatter");
        std::fs::create_dir_all(&dir).unwrap();
        let mut empty = edge_outcome(0);
        empty.history.clear();
        empty.evaluated.clear();
        for (name, o) in [
            ("zero_perf", edge_outcome(0)),
            ("two_perf", edge_outcome(2)),
            ("empty", empty),
        ] {
            let (history, candidates) = reference_csvs(&o);
            assert_eq!(history_csv(&o), history, "{name}");
            assert_eq!(candidates_csv(&o), candidates, "{name}");
            let stem = dir.join(name);
            write_csvs(&o, &stem).unwrap();
            let read = |suffix: &str| {
                std::fs::read_to_string(dir.join(format!("{name}{suffix}"))).unwrap()
            };
            assert_eq!(read("_history.csv"), history, "{name}");
            assert_eq!(read("_candidates.csv"), candidates, "{name}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Takes `.0` more bytes, then fails every write, as a disk that fills
    /// up mid-file does.
    struct FailAfter(usize);

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.0 == 0 {
                return Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"));
            }
            let n = buf.len().min(self.0);
            self.0 -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_write_error_mid_file_reaches_the_caller() {
        // The large file fails while rows are still being written, the
        // small one only in the final flush.
        let mut large = edge_outcome(2);
        let rows = large.evaluated.clone();
        for _ in 0..100 {
            large.evaluated.extend_from_slice(&rows);
        }
        let (_, large_csv) = reference_csvs(&large);
        assert!(large_csv.len() > 8 * 1024, "larger than the write buffer");
        let small = outcome();
        let (small_history, small_csv) = reference_csvs(&small);
        let fails = |limit: usize, rows: &dyn Fn(&mut BufWriter<FailAfter>) -> io::Result<()>| {
            write_buffered(FailAfter(limit), rows).map_err(|e| e.kind())
        };
        for limit in [0, 100, large_csv.len() - 1] {
            assert_eq!(
                fails(limit, &|out| write_candidates(out, &large.evaluated)),
                Err(io::ErrorKind::StorageFull),
                "large candidates file, failing after {limit} bytes"
            );
        }
        for limit in [0, small_csv.len() - 1] {
            assert_eq!(
                fails(limit, &|out| write_candidates(out, &small.evaluated)),
                Err(io::ErrorKind::StorageFull),
                "small candidates file, failing after {limit} bytes"
            );
        }
        assert_eq!(
            fails(small_history.len() - 1, &|out| {
                write_history(out, &small.history)
            }),
            Err(io::ErrorKind::StorageFull)
        );
        assert_eq!(
            fails(large_csv.len(), &|out| write_candidates(
                out,
                &large.evaluated
            )),
            Ok(())
        );
    }

    #[test]
    fn empty_outcome_yields_headers_only() {
        let mut o = outcome();
        o.history.clear();
        o.evaluated.clear();
        assert_eq!(history_csv(&o).lines().count(), 1);
        assert_eq!(candidates_csv(&o).lines().count(), 1);
    }
}
