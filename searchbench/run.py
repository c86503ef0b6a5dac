#!/usr/bin/env python3
"""Search benchmark for the ``h2o search`` CLI.

Run from the repository root:

    python3 searchbench/run.py --workload dlrm_sim --seed 1 --seconds 20 --trace 0
    python3 searchbench/run.py --workload dlrm_sim --seed 1 --seconds 20 --trace 1
    python3 searchbench/run.py --record        # re-record reference digests

It builds the release ``h2o`` binary and the traced replica
(``searchbench/trace``) into ``$CARGO_TARGET_DIR`` (default ``target``),
then, in a closed loop, runs one search process at a time until
``--seconds`` have passed. ``--trace 0`` times the untraced CLI and
reports the end-to-end metrics as medians over the repetitions;
``--trace 1`` runs the traced replica and reports the per-layer table.
Every run's CSVs are checked against the workload's recorded digest. The
last stdout line is the JSON result; the line before it records the host,
the source revision and every repetition. See ``searchbench/README.md``.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
# `h2o search` fixes its search seed at 0 and has no flag to change it, so
# every workload's inputs are those of seed 0 whatever --seed says; the
# traced replica takes the search seed as an argument and is given this.
SEARCH_SEED = 0
SHARDS = 8
SETUP_REPS = 15
# Untraced CLI runs a traced run's wall time is compared with.
UNTRACED_REPS = 3
# Hard limit on any single child process.
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    """One `h2o search` command shape and its run length."""

    flags: tuple
    steps: int
    mode: str
    resume_at: int = 0
    checkpoint_every: int = 0

    @property
    def parallelism(self):
        """Concurrent workers or node processes the command starts."""
        for flag in ("--workers", "--nodes"):
            if flag in self.flags:
                return int(self.flags[self.flags.index(flag) + 1])
        return 1


WORKLOADS = {
    "dlrm_sim": Workload(
        flags=("--domain", "dlrm", "--eval-backend", "sim", "--workers", "2"),
        steps=500,
        mode="sim",
    ),
    "dlrm_model": Workload(
        flags=("--domain", "dlrm", "--eval-backend", "model", "--workers", "2"),
        steps=1500,
        mode="model",
    ),
    "dlrm_durable": Workload(
        flags=("--domain", "dlrm", "--nodes", "2"),
        steps=600,
        mode="durable",
        resume_at=300,
        checkpoint_every=10,
    ),
    "dlrm_oneshot": Workload(
        flags=("--domain", "dlrm-oneshot", "--workers", "2"),
        steps=120,
        mode="oneshot",
    ),
}


def _metric_units(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


class BenchError(Exception):
    """A failure that stops the benchmark without a result."""


@dataclass
class Rep:
    """One measured search: a process, or both legs of a resumed run."""

    ok: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    rows: int
    steal_s: float = 0.0
    ckpt_mb: float = 0.0
    note: str = ""


@dataclass
class Context:
    workload: Workload
    h2o: str
    trace_bin: str
    work: str
    env: dict
    reference: dict
    reps: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, "target"))


def build():
    """Builds `h2o` and the traced replica; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        raise BenchError(f"no Cargo.toml at {ROOT}: not a checkout of the repository")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for argv in (
        ["cargo", "build", "--release", "--offline", "-q", "--bin", "h2o"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         os.path.join(HERE, "trace", "Cargo.toml")],
    ):
        done = subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(argv)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "h2o"), os.path.join(release, "searchbench-trace")


def source_rev():
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if done.returncode == 0:
            return done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def child_env(work):
    """Environment of every child: no inherited H2O_* knobs, and a short
    relative TMPDIR so node sockets stay inside the run directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("H2O_")}
    env["TMPDIR"] = "tmp"
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    return env


def cli_argv(ctx, steps, stem, checkpoint_dir=None, resume=False):
    w = ctx.workload
    argv = [ctx.h2o, "search", *w.flags, "--steps", str(steps), "--shards", str(SHARDS),
            "--csv", stem]
    if checkpoint_dir:
        argv += ["--checkpoint-dir", checkpoint_dir,
                 "--checkpoint-every", str(w.checkpoint_every)]
    if resume:
        argv.append("--resume")
    return argv


def measure(ctx, argv):
    return benchlib.run_measured(argv, ctx.work, ctx.env, CHILD_TIMEOUT_S,
                                 os.path.join(ctx.work, "stderr.log"))


def check_outputs(ctx, stem, rep):
    """Digest check of a finished run's CSVs, which are then removed."""
    cands = os.path.join(ctx.work, stem + "_candidates.csv")
    hist = os.path.join(ctx.work, stem + "_history.csv")
    try:
        digest, rep.rows = benchlib.csv_digest(cands, hist)
        problem = f"CSV digest {digest[:12]} differs from the reference"
    except OSError as e:
        digest, problem = None, f"missing CSVs: {e}"
    finally:
        for path in (cands, hist):
            if os.path.exists(path):
                os.remove(path)
    if rep.ok and not benchlib.digest_matches(digest, ctx.reference.get("digest")):
        rep.ok, rep.note = False, problem


def cli_rep(ctx):
    """One full untraced search of the workload, checked and cleaned up."""
    w = ctx.workload
    stem = "run"
    if w.mode == "durable":
        ckpt = "ckpt"
        legs = [measure(ctx, cli_argv(ctx, w.resume_at, stem, ckpt)),
                measure(ctx, cli_argv(ctx, w.steps, stem, ckpt, resume=True))]
        ckpt_path = os.path.join(ctx.work, ckpt)
        ckpt_mb = benchlib.dir_bytes(ckpt_path) / 1e6
        shutil.rmtree(ckpt_path, ignore_errors=True)
    else:
        legs = [measure(ctx, cli_argv(ctx, w.steps, stem))]
        ckpt_mb = 0.0
    rep = Rep(
        ok=all(u.returncode == 0 for u in legs),
        wall_s=sum(u.wall_s for u in legs),
        cpu_s=sum(u.cpu_s for u in legs),
        peak_rss_mb=max(u.peak_rss_mb for u in legs),
        rows=0,
        steal_s=sum(u.steal_s for u in legs),
        ckpt_mb=ckpt_mb,
    )
    if not rep.ok:
        rep.note = "exit codes " + ",".join(str(u.returncode) for u in legs)
    check_outputs(ctx, stem, rep)
    ctx.attempted += 1
    ctx.failed += 0 if rep.ok else 1
    ctx.reps.append(rep)
    return rep


def setup_times(ctx):
    """Wall time of the workload's command at one search step, repeated."""
    w = ctx.workload
    times = []
    for _ in range(SETUP_REPS):
        ckpt = "ckpt-setup" if w.mode == "durable" else None
        usage = measure(ctx, cli_argv(ctx, 1, "setup", ckpt))
        ctx.attempted += 1
        if usage.returncode != 0:
            ctx.failed += 1
        else:
            times.append(usage.wall_s)
        for suffix in ("_candidates.csv", "_history.csv"):
            path = os.path.join(ctx.work, "setup" + suffix)
            if os.path.exists(path):
                os.remove(path)
        if ckpt:
            shutil.rmtree(os.path.join(ctx.work, ckpt), ignore_errors=True)
    return times


def run_untraced(ctx, seconds):
    deadline = time.perf_counter() + seconds
    setup = setup_times(ctx)
    while not ctx.reps or time.perf_counter() < deadline:
        cli_rep(ctx)
    good = [r for r in ctx.reps if r.ok]
    if not good or not setup:
        raise BenchError("no successful run to report")
    samples = {
        "candidates_per_s": [r.rows / benchlib.unstolen_s(r.wall_s, r.steal_s) for r in good],
        "setup_s": setup,
        "peak_rss_mb": [r.peak_rss_mb for r in good],
        "cpu_us_per_candidate": [r.cpu_s * 1e6 / r.rows for r in good],
    }
    metrics = {k: benchlib.median(v) for k, v in samples.items()}
    record = {"setup_s": setup}
    if len(good) >= 2:
        record["rep_spread"] = {k: benchlib.spread(v) for k, v in samples.items()}
    if ctx.workload.mode == "durable":
        record["ckpt_mb"] = benchlib.median([r.ckpt_mb for r in good])
    return metrics, _metric_units("end_to_end"), record


def traced_argv(ctx, stem):
    w = ctx.workload
    argv = [ctx.trace_bin, "--mode", w.mode, "--steps", str(w.steps), "--shards", str(SHARDS),
            "--seed", str(SEARCH_SEED), "--csv", stem]
    if w.mode == "durable":
        argv += ["--h2o", ctx.h2o, "--nodes", str(w.parallelism),
                 "--checkpoint-dir", "ckpt", "--checkpoint-every", str(w.checkpoint_every),
                 "--resume-at", str(w.resume_at), "--socket-dir", "tmp"]
    else:
        argv += ["--workers", str(w.parallelism)]
    return argv


def traced_rep(ctx, untraced_wall):
    """One traced replica run; returns its layer metrics or None."""
    stem = "traced"
    out_path = os.path.join(ctx.work, "traced.json")
    with open(out_path, "wb") as out, open(os.path.join(ctx.work, "stderr.log"), "ab") as err:
        done = subprocess.run(traced_argv(ctx, stem), cwd=ctx.work, env=ctx.env, stdout=out,
                              stderr=err, timeout=CHILD_TIMEOUT_S)
    shutil.rmtree(os.path.join(ctx.work, "ckpt"), ignore_errors=True)
    rep = Rep(ok=done.returncode == 0, wall_s=0.0, cpu_s=0.0, peak_rss_mb=0.0, rows=0)
    metrics = None
    if rep.ok:
        with open(out_path) as f:
            report = json.loads(f.read().strip().splitlines()[-1])
        rep.wall_s = report["wall_s"]
        if report["check"] != "ok":
            rep.ok, rep.note = False, "replay: " + report["check"]
        else:
            metrics = dict(report["metrics"])
            metrics["trace.overhead"] = rep.wall_s / untraced_wall
    else:
        rep.note = f"traced run exited {done.returncode}"
    check_outputs(ctx, stem, rep)
    ctx.attempted += 1
    ctx.failed += 0 if rep.ok else 1
    ctx.reps.append(rep)
    return metrics if rep.ok else None


def run_traced(ctx, seconds):
    deadline = time.perf_counter() + seconds
    untraced = [cli_rep(ctx) for _ in range(UNTRACED_REPS)]
    failed = [r.note for r in untraced if not r.ok]
    if failed:
        raise BenchError("the untraced reference run failed: " + failed[0])
    untraced_wall = benchlib.median([r.wall_s for r in untraced])
    tables = []
    traced = 0
    while traced == 0 or time.perf_counter() < deadline:
        traced += 1
        table = traced_rep(ctx, untraced_wall)
        if table is not None:
            tables.append(table)
    if not tables:
        raise BenchError("no successful traced run")
    units = _metric_units("per_layer")
    metrics = {}
    for name in units:
        values = [t[name] for t in tables if t.get(name) is not None]
        if not values:
            raise BenchError(f"traced runs reported no {name}")
        metrics[name] = benchlib.median(values)
    return metrics, units, {"untraced_wall_s": untraced_wall}


def load_reference(name, workload):
    with open(REFERENCE) as f:
        ref = json.load(f)["workloads"].get(name)
    if ref is None or ref.get("steps") != workload.steps or ref.get("shards") != SHARDS:
        raise BenchError(f"no reference digest recorded for {name} at this run length; "
                         "re-record with --record")
    return ref


def record_references(h2o):
    """Re-records each workload's reference digest from an uninterrupted,
    single-process CLI run (for dlrm_durable: without nodes or resume)."""
    work = os.path.join(target_dir(), "searchbench", f"record-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    env = child_env(work)
    refs = {}
    try:
        for name, w in WORKLOADS.items():
            flags = ["--domain", "dlrm"] if w.mode == "durable" else list(w.flags)
            argv = [h2o, "search", *flags, "--steps", str(w.steps), "--shards", str(SHARDS),
                    "--csv", "ref"]
            usage = benchlib.run_measured(argv, work, env, CHILD_TIMEOUT_S,
                                          os.path.join(work, "stderr.log"))
            if usage.returncode != 0:
                raise BenchError(f"recording {name}: h2o exited {usage.returncode}")
            digest, rows = benchlib.csv_digest(os.path.join(work, "ref_candidates.csv"),
                                               os.path.join(work, "ref_history.csv"))
            refs[name] = {"steps": w.steps, "shards": SHARDS, "rows": rows, "digest": digest}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(REFERENCE, "w") as f:
        json.dump({"search_seed": SEARCH_SEED, "workloads": refs}, f, indent=2)
        f.write("\n")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="re-record the reference digests and exit")
    args = p.parse_args(argv)
    if not args.record and args.workload is None:
        p.error("--workload is required")
    return args


def main(argv):
    args = parse_args(argv)
    h2o, trace_bin = build()
    if args.record:
        record_references(h2o)
        return 0
    workload = WORKLOADS[args.workload]
    nproc = benchlib.available_cpus()
    refusal = benchlib.host_guard(workload.parallelism, nproc)
    if refusal:
        raise BenchError(f"{args.workload}: {refusal}")
    work = os.path.join(target_dir(), "searchbench", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = Context(workload=workload, h2o=h2o, trace_bin=trace_bin,
                  work=work, env=child_env(work),
                  reference=load_reference(args.workload, workload))
    try:
        runner = run_traced if args.trace else run_untraced
        metrics, units, extra = runner(ctx, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {
        "host": {"nproc": nproc, "rev": source_rev(), "profile": "release",
                 "search_seed": SEARCH_SEED},
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "reps": [vars(r) for r in ctx.reps],
        **extra,
    }
    result = {
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        print(f"searchbench: {e}", file=sys.stderr)
        sys.exit(2)
