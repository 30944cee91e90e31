"""Set-up probe: a fresh interpreter's way to its first answer.

Imports the run path, builds the prelude environment and the native
libraries, answers one request and prints the value.  The benchmark
times it from spawn to the printed line.  With the argument ``run``
the request goes the way `sized run --mode full --discharge try
--machine native` takes it; with ``worker``, through a serve worker's
``worker_init`` / ``worker_job``.
Run as ``PYTHONPATH=src python3 perfbench/setup_probe.py run``.
"""

import sys

from repro.analysis.discharge import VerificationCache, discharge_for_run
from repro.eval.machine import make_env, run_program
from repro.eval.native import ensure_native_libraries
from repro.lang.parser import parse_program
from repro.sct.monitor import SCMonitor
from repro.values.values import write_value

ACK = """
(define (ack m n)
  (cond [(zero? m) (+ n 1)]
        [(zero? n) (ack (- m 1) 1)]
        [else (ack (- m 1) (ack m (- n 1)))]))
(ack 2 2)
"""

def run_path() -> str:
    env = make_env(True, machine="native")
    ensure_native_libraries()
    program = parse_program(ACK)
    result = discharge_for_run(program, text=ACK, cache=VerificationCache())
    answer = run_program(program, mode="full", monitor=SCMonitor(),
                         fuel=5_000_000, machine="native",
                         discharge=result.policy, env=env)
    return write_value(answer.value)


def worker_path() -> str:
    from repro.serve.workers import worker_init, worker_job

    worker_init(None, 0, 0)
    return worker_job({"op": "run", "program": ACK, "fuel": 5_000_000,
                       "machine": "native", "mode": "full",
                       "discharge": "try"})["value"]


if __name__ == "__main__":
    print(worker_path() if sys.argv[1:] == ["worker"] else run_path(),
          flush=True)
