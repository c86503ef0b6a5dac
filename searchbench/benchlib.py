"""Helpers of the search benchmark that do not depend on a workload.

Kept apart from ``run.py`` so ``test_benchlib.py`` can exercise them
without building or running anything.
"""

import hashlib
import os
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass


def median(values):
    """Median of a non-empty sequence."""
    return statistics.median(values)


def spread(values):
    """Interquartile range as a share of the median.

    Quartiles are Python's ``statistics.quantiles(values, n=4)`` (the
    default exclusive method), the definition the benchmark's acceptance
    rule uses. A zero median gives an infinite spread unless every value
    is zero.
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    if mid == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(mid)


def csv_digest(candidates_path, history_path):
    """SHA-256 over a run's outputs that do not depend on the clock.

    Covers the whole candidates CSV and the first four history columns
    (``step,mean_reward,best_reward,entropy``); ``step_time_ms`` is wall
    clock and is left out. Returns ``(hex digest, candidate rows)``.
    """
    h = hashlib.sha256()
    with open(candidates_path, "rb") as f:
        candidates = f.read()
    h.update(candidates)
    h.update(b"\0")
    with open(history_path, "rb") as f:
        for line in f:
            h.update(b",".join(line.rstrip(b"\n").split(b",")[:4]) + b"\n")
    rows = max(candidates.count(b"\n") - 1, 0)
    return h.hexdigest(), rows


def digest_matches(actual, reference):
    """A run's outputs are correct only if its digest equals the recorded one."""
    return reference is not None and actual == reference


def available_cpus():
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def host_guard(needed, nproc):
    """Refusal message when a workload wants more parallelism than the host.

    ``needed`` is the workload's largest ``--workers``/``--nodes`` count.
    Running eight workers on one CPU measures time slicing, not the
    executor, so such a workload is refused rather than reported.
    """
    if needed > nproc:
        return (
            f"workload needs {needed} concurrent workers/nodes but this host has "
            f"{nproc} CPU(s); refusing to report time-sliced numbers"
        )
    return None


@dataclass
class ProcessUsage:
    """What one finished process tree cost."""

    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    # Host steal time while it ran, summed over the VM's CPUs.
    steal_s: float


def host_steal_s():
    """CPU time the hypervisor took from this VM so far, summed over its
    CPUs (the ``steal`` column of ``/proc/stat``); 0 where unavailable."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def unstolen_s(wall_s, steal_s):
    """Wall time less the host steal time suffered meanwhile.

    On a shared VM the hypervisor's steal comes in episodes that can
    double a search's wall time. A search step needs every runnable vCPU,
    so steal on any of them stalls it, and the whole summed steal is
    discounted; never more than half the wall time, so that overlapping
    steal on several vCPUs cannot drive the result to zero.
    """
    return wall_s - min(steal_s, wall_s / 2)


def run_measured(argv, cwd, env, timeout_s, stderr_path):
    """Runs ``argv`` to completion and measures it.

    Wall time runs from spawn to reaped exit. CPU time is user + system
    of the process and every descendant it reaped (``wait4``). Peak RSS
    is the largest resident set among them, which for a search is the
    controller holding every candidate. A process still running after
    ``timeout_s`` is killed and reported with its non-zero exit.
    """
    with open(stderr_path, "ab") as err:
        steal = host_steal_s()
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err
        )
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        steal = host_steal_s() - steal
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    return ProcessUsage(
        returncode=code,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        # ru_maxrss is in KiB on Linux.
        peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,
        steal_s=steal,
    )


def dir_bytes(path):
    """Total size of the regular files under ``path`` (0 if it is missing)."""
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            full = os.path.join(root, name)
            if os.path.isfile(full) and not os.path.islink(full):
                total += os.path.getsize(full)
    return total
