#!/usr/bin/env bash
# CI entry point: build, test, format and lint the whole workspace.
# Run from the repository root. Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

# Lockfile drift: a manifest change that would rewrite Cargo.lock or
# searchbench/trace/Cargo.lock fails here, before `cargo build` or the
# searchbench build below get the chance to rewrite either one.
echo "==> cargo metadata --locked (root and searchbench/trace lockfiles)"
cargo metadata --locked --offline --format-version 1 >/dev/null
cargo metadata --locked --offline --format-version 1 \
    --manifest-path searchbench/trace/Cargo.toml >/dev/null

echo "==> cargo build --release"
cargo build --release

# The examples that drive a search each call SearchDriver::run, but
# `cargo test` only compiles examples; run them so a broken one fails CI.
echo "==> search examples (release)"
for example in quickstart driver_custom_stage dlrm_oneshot_search vision_oneshot; do
  cargo run -q --release --example "$example" >/dev/null
done

# The evaluation executor promises bit-identical search output for any
# worker count, so the suite runs under both a serial and a wide pool —
# any schedule leak shows up as a determinism-test failure in one matrix
# leg but not the other.
echo "==> cargo test -q --workspace (H2O_WORKERS=1)"
H2O_WORKERS=1 cargo test -q --workspace

echo "==> cargo test -q --workspace (H2O_WORKERS=4)"
H2O_WORKERS=4 cargo test -q --workspace

# The executor holds the workspace's one `unsafe` block (the lifetime
# erasure that lets parked helper threads run borrowing jobs), and an
# optimized build interleaves its threads differently from a debug one,
# so its suite runs once more in release mode.
echo "==> cargo test -q --release -p h2o-exec"
cargo test -q --release -p h2o-exec

# The supernet weight step's kernels (Adam, the transposed-block backward
# product) are vectorised only in optimized builds, so the debug legs above
# never run the loops the benchmark times. Re-run h2o-tensor's bit-exact
# reference properties and the one-shot/TuNAS goldens in release mode.
echo "==> cargo test -q --release -p h2o-tensor"
cargo test -q --release -p h2o-tensor
echo "==> cargo test -q --release --test driver_equivalence"
cargo test -q --release --test driver_equivalence

# Checkpoint/resume smoke through the release binary, once per executor
# width: a run truncated at step 4 and resumed must write the same
# telemetry as an uninterrupted run (history compared modulo the
# wall-clock column). The torn leg resumes a copy of the truncated run's
# directory with junk appended to its log, as a crash mid-append would
# leave it: resume reads only the prefix the latest snapshot covers.
echo "==> checkpoint-resume smoke (H2O_WORKERS=1 and 4, clean and torn log)"
for w in 1 4; do
  ckdir=$(mktemp -d)
  ./target/release/h2o search --domain dlrm --steps 6 --shards 4 --workers "$w" \
      --csv "$ckdir/full" >/dev/null
  ./target/release/h2o search --domain dlrm --steps 4 --shards 4 --workers "$w" \
      --checkpoint-dir "$ckdir/clean" --checkpoint-every 2 >/dev/null
  cp -r "$ckdir/clean" "$ckdir/torn"
  printf 'torn frame' >> "$ckdir/torn/ckpt.log"
  for leg in clean torn; do
    ./target/release/h2o search --domain dlrm --steps 6 --shards 4 --workers "$w" \
        --checkpoint-dir "$ckdir/$leg" --checkpoint-every 2 --resume \
        --csv "$ckdir/$leg" >/dev/null
    cmp "$ckdir/full_candidates.csv" "$ckdir/${leg}_candidates.csv"
    cmp <(cut -d, -f1-4 "$ckdir/full_history.csv") \
        <(cut -d, -f1-4 "$ckdir/${leg}_history.csv")
  done
  rm -rf "$ckdir"
done

# Multi-process smoke: the same search fanned out over two node-worker
# subprocesses (Unix sockets under a temp dir) must write byte-identical
# telemetry to the serial run — the cross-process leg of the determinism
# contract, through the release binary.
echo "==> multi-process smoke (--nodes 2 vs serial)"
mpdir=$(mktemp -d)
./target/release/h2o search --domain dlrm --steps 6 --shards 4 \
    --csv "$mpdir/serial" >/dev/null
./target/release/h2o search --domain dlrm --steps 6 --shards 4 --nodes 2 \
    --csv "$mpdir/nodes" >/dev/null
cmp "$mpdir/serial_candidates.csv" "$mpdir/nodes_candidates.csv"
cmp <(cut -d, -f1-4 "$mpdir/serial_history.csv") \
    <(cut -d, -f1-4 "$mpdir/nodes_history.csv")
rm -rf "$mpdir"

# Chaos smoke: the fault-tolerance leg of the contract, through the
# release binary. One of the two spawn-managed workers is launched with
# --chaos-exit-after (via the H2O_CHAOS_* env hooks) and dies mid-run;
# redispatch + respawn must complete the run with exit 0 and telemetry
# byte-identical to the serial run — no resume involved.
echo "==> chaos smoke (--nodes 2, one worker dies mid-run)"
chdir=$(mktemp -d)
./target/release/h2o search --domain dlrm --steps 6 --shards 4 \
    --csv "$chdir/serial" >/dev/null
H2O_CHAOS_EXIT_AFTER=5 H2O_CHAOS_NODE=0 \
./target/release/h2o search --domain dlrm --steps 6 --shards 4 --nodes 2 \
    --csv "$chdir/chaos" --metrics-out "$chdir/chaos.prom" >/dev/null
cmp "$chdir/serial_candidates.csv" "$chdir/chaos_candidates.csv"
cmp <(cut -d, -f1-4 "$chdir/serial_history.csv") \
    <(cut -d, -f1-4 "$chdir/chaos_history.csv")
grep -q '^h2o_exec_node_deaths_total [1-9]' "$chdir/chaos.prom"
grep -q '^h2o_exec_redispatched_jobs_total [1-9]' "$chdir/chaos.prom"
rm -rf "$chdir"

# Model-served smoke: a search evaluated by the pretrained performance
# model with a gate tight enough that some candidates fall back to the
# simulator. Both paths must actually run (served > 0, fallback > 0 in
# the metrics export) and — because the frozen model makes every routing
# decision deterministically — two identical runs must write
# byte-identical telemetry.
echo "==> model-served smoke (--eval-backend model, served + fallback mix)"
msdir=$(mktemp -d)
for run in a b; do
  ./target/release/h2o search --domain dlrm --steps 8 --shards 4 --workers 2 \
      --eval-backend model --gate-threshold 0.4 --finetune-cadence 2 \
      --csv "$msdir/$run" --metrics-out "$msdir/$run.prom" >/dev/null
done
grep -q '^h2o_eval_served_total [1-9]' "$msdir/a.prom"
grep -q '^h2o_eval_fallback_total [1-9]' "$msdir/a.prom"
grep -q '^h2o_eval_finetune_rounds_total [1-9]' "$msdir/a.prom"
cmp "$msdir/a_candidates.csv" "$msdir/b_candidates.csv"
cmp <(cut -d, -f1-4 "$msdir/a_history.csv") \
    <(cut -d, -f1-4 "$msdir/b_history.csv")
rm -rf "$msdir"

# Benchmark output check: the harness's own tests, then a one-second run
# of every searchbench workload, untraced and traced. Every run's CSVs must
# match searchbench/reference.json, so each result line must report
# correct: true and failed: 0. Timings are not gated: a one-second run is
# too short to time. On a host with too few CPUs for a workload the
# harness exits 2, which fails this step.
echo "==> searchbench (unit tests + output check of every workload)"
python3 -m unittest discover -s searchbench
for workload in dlrm_sim dlrm_model dlrm_durable dlrm_oneshot; do
  for trace in 0 1; do
    python3 searchbench/run.py --workload "$workload" --seconds 1 --trace "$trace" \
        | tail -n 1 | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
print("    %s --trace %s: correct %s, %d runs, %d failed"
      % (sys.argv[1], sys.argv[2], r["correct"], r["attempted"], r["failed"]))
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)
' "$workload" "$trace"
  done
done

# Workspace invariant checker: the contracts clippy cannot express — the
# float-ordering token rule plus the cross-file semantic rules
# (nondet-taint, fingerprint-completeness, float-cast-on-reward-path) —
# are enforced mechanically (see DESIGN.md, "static-analysis contract").
# Any un-allowed finding fails the build.
echo "==> h2o-lint (workspace invariant checker)"
cargo run -q --release -p h2o-lint

echo "==> cargo fmt --check"
cargo fmt --check

# The rest of the static-analysis contract (wall clock, ambient RNG,
# unordered collections, panics, printing, process exit, unreachable!) is
# clippy lints: clippy.toml plus the attributes at each crate root.
echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The driver/stage API is trait-heavy; broken intra-doc links or malformed
# examples should fail CI, not ship.
echo "==> cargo doc --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> CI green"
