"""The repository's benchmark: one command for every workload.

    python3 perfbench/run.py --workload first-sight --seed 1 \\
        --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``first-sight`` — closed loop, one client, every request a program
  seen for the first time (fresh certificate cache per request);
* ``monitored`` — fixed passes over long monitored programs on a shared
  warm certificate cache;
* ``serve-worker`` — an assumed serve traffic mix (hot-set repeats and
  new programs) in a closed loop straight into a serve worker's entry
  points; its traced run drives a real ``sized serve`` subprocess.

``--workload all`` runs the three in turn and prints every report.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it records spans around each layer's public call and
reports the per-layer metrics instead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only if ``correct`` is true.  Run it
from the repository root; it needs ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("first-sight", "monitored", "serve-worker")
END_TO_END = ("setup_s", "peak_rss_mb", "request_ms.p50", "request_ms.p90",
              "requests_per_s")


def _parse(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}; run the "
              "benchmark from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [SRC, ROOT]
    from perfbench import common, inproc

    if args.workload == "serve-worker":
        from perfbench import serve_load
        workload = serve_load.serve_worker
    else:
        workload = (inproc.first_sight if args.workload == "first-sight"
                    else inproc.monitored)
    host_before = common.host_loop_ms()
    res = workload(args.seed, args.seconds, bool(args.trace))

    envelope = {
        "workload": args.workload,
        "trace": args.trace,
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": res.repeats,
        "git_revision": common.git_revision(),
        "source_sha256": common.source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "host_loop_ms": [host_before, common.host_loop_ms()],
    }
    print("envelope: " + json.dumps(envelope, sort_keys=True))
    print("checks: " + json.dumps(res.checks, sort_keys=True))
    for line in res.table:
        print(line)
    fail_ratio = len(res.failures) / max(res.attempted, 1)
    rows = list(res.metrics.items()) + list(res.extra.items()) + \
        [("fail_ratio", (fail_ratio, "ratio"))]
    for name, (value, unit) in rows:
        print(f"  {name:36} {value:14.4f} {unit}")
    for reason in res.failures:
        print(f"FAIL {args.workload} seed={args.seed}: {reason}")

    digests = res.checks.get("digests", {})
    inputs_ok = (digests.get("seed") == digests.get("again")
                 and digests.get("seed") != digests.get("next"))
    if not inputs_ok:
        print("FAIL: the inputs do not follow from the seed alone")
    expected = [name for name, _ in inproc.PER_LAYER] if args.trace \
        else list(END_TO_END)
    missing = [name for name in expected if name not in res.metrics]
    if missing:
        print(f"FAIL: metrics not measured: {', '.join(missing)}")
    correct = not res.failures and inputs_ok and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": res.attempted,
        "failed": len(res.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in res.metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in turn, each in a fresh interpreter; the last
    line sums them, with metric names prefixed by the workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True).stdout
        lines = out.splitlines() or [""]
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"{lines[-1]}\nFAIL: {workload} printed no result line")
            total["correct"] = False
            continue
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
