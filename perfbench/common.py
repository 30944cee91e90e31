"""Shared pieces: paths, the result record, percentiles, set-up probes."""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")  # spans and scratch files

SETUP_REPEATS = 5
WINDOWS = 9  # latency quantiles are medians over this many windows


class Result:
    """What one workload run reports.  ``metrics`` holds the gated
    metrics (end-to-end untraced, per-layer traced) as name → (value,
    unit); ``extra`` holds figures that are printed but not gated."""

    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.extra: Dict[str, Tuple[float, str]] = {}
        self.checks: Dict[str, object] = {}
        self.repeats: Dict[str, int] = {}
        self.table: List[str] = []  # the traced run's span table

    def fail(self, reason: str) -> None:
        self.failures.append(reason)


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of ``values`` (``q`` in [0, 1])."""
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values)


def windowed(values, q: float, windows: int = WINDOWS) -> float:
    """The median, over ``windows`` consecutive equal slices of
    ``values`` (in the order measured), of each slice's ``q`` quantile:
    a burst of machine noise moves one slice, not the result."""
    n = len(values) // windows
    if n < 2:
        return quantile(values, q)
    return median([quantile(values[i * n:(i + 1) * n], q)
                   for i in range(windows)])


def latency_metrics(res: "Result", times_ms, windows: int = WINDOWS) -> None:
    """The request-latency metrics of a run, from per-request times in
    the order measured: windowed p50 and p90 (gated) and the p99 over
    all requests (printed)."""
    res.metrics["request_ms.p50"] = (windowed(times_ms, 0.5, windows), "ms")
    res.metrics["request_ms.p90"] = (windowed(times_ms, 0.9, windows), "ms")
    res.extra["request_ms.p99"] = (quantile(times_ms, 0.99), "ms")
    res.extra["request_ms.samples"] = (len(times_ms), "count")


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class RssAtWork:
    """Peak RSS once ``RSS_AFTER`` requests are done, or at the end of
    a shorter run.  Caches and the run's own records grow with every
    request, so a peak taken at the end of a timed run would make a
    faster program read as a bigger one."""

    RSS_AFTER = 1000

    def __init__(self):
        self.value = None

    def tick(self, done: int) -> None:
        if self.value is None and done >= self.RSS_AFTER:
            self.value = peak_rss_mb()

    def final(self) -> float:
        return self.value if self.value is not None else peak_rss_mb()


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid``, from ``/proc``."""
    kids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the field after the parenthesised command name is the state,
        # then the parent pid
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == pid:
            kids.append(int(name))
    return kids


def src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def inproc_setup_s(repeats: int = SETUP_REPEATS,
                   path: str = "run") -> Tuple[float, List[float]]:
    """Fresh interpreter to first answer, ``repeats`` times: the median
    and every sample.  Each probe imports the run path, builds the
    prelude environment and the native libraries, and answers one
    request along ``path`` (``run`` or ``worker``, see setup_probe.py)."""
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, probe, path],
                                stdout=subprocess.PIPE, text=True,
                                env=src_env(), cwd=ROOT)
        try:
            line = proc.stdout.readline().strip()
            samples.append(time.perf_counter() - t0)
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if proc.returncode != 0 or line != "7":
            raise RuntimeError(f"set-up probe answered {line!r} "
                               f"(exit {proc.returncode})")
    return (median(samples) if samples else 0.0), samples


def host_loop_ms(repeats: int = 3) -> float:
    """Median time of a fixed pure-Python loop: how fast the host ran
    around a run.  Printed in the envelope, because shared hosts drift
    in speed between runs; not a metric."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i
        samples.append((time.perf_counter() - t0) * 1000.0)
    return median(samples)


def source_digest() -> str:
    """Digest of the program sources under ``src/`` (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_revision() -> str:
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]
