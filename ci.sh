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

# `cargo test` only compiles examples; run every one so a broken one fails
# CI. Four drive a search through SearchDriver::run, hardware_explorer
# walks the simulator and perf_model_two_phase pretrains and fine-tunes
# the performance model.
echo "==> examples (release)"
for example in quickstart driver_custom_stage dlrm_oneshot_search vision_oneshot \
    hardware_explorer perf_model_two_phase; do
  cargo run -q --release --example "$example" >/dev/null
done

# HLO interchange smoke: a model dumped as textual HLO and simulated from
# that file must print exactly what simulating the model directly prints,
# for a training step and for serving. The HLO text records no batch, so
# the --hlo side passes the batch the model was dumped at: the default 64,
# and 8 for a second dlrm leg.
echo "==> HLO round trip (h2o dump | h2o simulate --hlo)"
hlodir=$(mktemp -d)
for leg in dlrm:64 coatnet-0:64 efficientnet-x-b0:64 dlrm:8; do
  model=${leg%:*}
  batch=${leg#*:}
  ./target/release/h2o dump --model "$model" --batch "$batch" > "$hlodir/$model.hlo"
  for mode in training serving; do
    serving=()
    if [ "$mode" = serving ]; then serving=(--serving); fi
    cmp <(./target/release/h2o simulate --model "$model" --batch "$batch" "${serving[@]}") \
        <(./target/release/h2o simulate --hlo "$hlodir/$model.hlo" --batch "$batch" \
            "${serving[@]}")
  done
done
rm -rf "$hlodir"

# The evaluation executor promises bit-identical search output for any
# worker count, so the suite runs under both a serial and a wide pool —
# any schedule leak shows up as a determinism-test failure in one matrix
# leg but not the other. Each leg reports its wall time (the first one
# includes building the test targets at the dev profile, opt-level 1).
for workers in 1 4; do
  echo "==> cargo test -q --workspace (H2O_WORKERS=$workers)"
  leg_start=$SECONDS
  H2O_WORKERS=$workers cargo test -q --workspace
  echo "    H2O_WORKERS=$workers leg: $((SECONDS - leg_start)) s"
done

# The executor holds the workspace's one `unsafe` block (the lifetime
# erasure that lets parked helper threads run borrowing jobs), and an
# optimized build interleaves its threads differently from a debug one,
# so its suite runs once more in release mode.
echo "==> cargo test -q --release -p h2o-exec"
cargo test -q --release -p h2o-exec

# The training kernels (Adam, the forward block product, the block xᵀ·d
# weight-gradient accumulation and the transposed-block input gradient)
# are vectorised only from opt-level 2 (the release profile), so the
# debug legs above, at opt-level 1, never run the loops the benchmark
# times. Both supernets and the perf model's MLP train through them.
# Re-run h2o-tensor's bit-exact reference properties, the supernets'
# properties (h2o-space), the perf model's suite (h2o-perfmodel), the
# pinned digests (consistency, supernet state and perf model included)
# and the one-shot/TuNAS goldens in release mode.
echo "==> cargo test -q --release -p h2o-tensor"
cargo test -q --release -p h2o-tensor
echo "==> cargo test -q --release -p h2o-space"
cargo test -q --release -p h2o-space
echo "==> cargo test -q --release -p h2o-perfmodel"
cargo test -q --release -p h2o-perfmodel
echo "==> cargo test -q --release --test consistency"
cargo test -q --release --test consistency
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
# byte-identical telemetry. A third run at --workers 1 checks the
# row-split REINFORCE update, which dominates this backend's step,
# against the single-threaded one in the optimized binary.
echo "==> model-served smoke (--eval-backend model, served + fallback mix)"
msdir=$(mktemp -d)
for run in a:2 b:2 serial:1; do
  ./target/release/h2o search --domain dlrm --steps 8 --shards 4 --workers "${run#*:}" \
      --eval-backend model --gate-threshold 0.4 --finetune-cadence 2 \
      --csv "$msdir/${run%:*}" --metrics-out "$msdir/${run%:*}.prom" >/dev/null
done
grep -q '^h2o_eval_served_total [1-9]' "$msdir/a.prom"
grep -q '^h2o_eval_fallback_total [1-9]' "$msdir/a.prom"
grep -q '^h2o_eval_finetune_rounds_total [1-9]' "$msdir/a.prom"
for run in b serial; do
  cmp "$msdir/a_candidates.csv" "$msdir/${run}_candidates.csv"
  cmp <(cut -d, -f1-4 "$msdir/a_history.csv") \
      <(cut -d, -f1-4 "$msdir/${run}_history.csv")
done
rm -rf "$msdir"

# One-shot smoke: 150 steps of 8 shards are 1,200 Adam steps, enough for
# the first moments of weights that stop getting gradient to decay into
# the subnormals, so the optimized binary runs Adam's absorbed path, the
# step's fanned-out quality forwards and the weight update, whose
# per-path weight-gradient and Adam tasks both threads of each train
# step's two-job batch run. --workers 1, 2 and 4 (4 workers on a 2-CPU
# host; each batch still has two jobs) must write the same telemetry
# (history modulo the wall-clock column). Each run prints its wall time
# and mean step time. The checkpoint leg runs --workers 2 to step 75 with
# a checkpoint every 25 steps, then resumes it to 150: its telemetry must
# equal the uninterrupted --workers 1 run's, so every path was back in
# the network before each snapshot.
echo "==> one-shot smoke (dlrm-oneshot, 150 steps, --workers 1, 2 and 4, checkpoint leg)"
osdir=$(mktemp -d)
for w in 1 2 4; do
  run_start=$(date +%s%N)
  ./target/release/h2o search --domain dlrm-oneshot --steps 150 --shards 8 --workers "$w" \
      --csv "$osdir/w$w" >/dev/null
  run_ms=$(( ($(date +%s%N) - run_start) / 1000000 ))
  step_ms=$(awk -F, 'NR > 1 { s += $5; n++ } END { printf "%.2f", s / n }' "$osdir/w${w}_history.csv")
  echo "    --workers $w: ${run_ms} ms wall, ${step_ms} ms mean step"
done
./target/release/h2o search --domain dlrm-oneshot --steps 75 --shards 8 --workers 2 \
    --checkpoint-dir "$osdir/ck" --checkpoint-every 25 >/dev/null
./target/release/h2o search --domain dlrm-oneshot --steps 150 --shards 8 --workers 2 \
    --checkpoint-dir "$osdir/ck" --checkpoint-every 25 --resume --csv "$osdir/resumed" >/dev/null
for run in w2 w4 resumed; do
  cmp "$osdir/w1_candidates.csv" "$osdir/${run}_candidates.csv"
  cmp <(cut -d, -f1-4 "$osdir/w1_history.csv") \
      <(cut -d, -f1-4 "$osdir/${run}_history.csv")
done
rm -rf "$osdir"

# Exporter smoke: the global tracer keeps span events only when
# --trace-out asks for them, so a traced run's trace must hold the step
# and shard spans, and --metrics-out, written after the CSVs, must hold
# the CSV write's span series.
echo "==> exporter smoke (--csv, --metrics-out, --trace-out)"
exdir=$(mktemp -d)
./target/release/h2o search --domain dlrm --steps 6 --shards 4 --csv "$exdir/run" \
    --metrics-out "$exdir/run.prom" --trace-out "$exdir/run.json" >/dev/null
python3 - "$exdir/run.json" <<'EOF'
import json, sys
names = {e["name"] for e in json.load(open(sys.argv[1]))["traceEvents"]}
missing = {"search_step", "shard_evaluate"} - names
sys.exit("trace lacks %s" % sorted(missing) if missing else 0)
EOF
grep -q '^span_seconds_count{path="write_csvs"} 1$' "$exdir/run.prom"
rm -rf "$exdir"

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
# (nondet-taint, float-cast-on-reward-path) — are enforced mechanically
# (see DESIGN.md, "static-analysis contract"). Any un-allowed finding
# fails the build.
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
