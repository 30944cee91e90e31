"""The in-process workloads, `first-sight` and `monitored`, and the
layered, traced form of one request that every traced run uses.

A request is what `sized run FILE --mode full --discharge try --machine
native` does after start-up: ``parse_program`` → ``discharge_for_run`` →
``run_program`` with the program's own measures, on a prelude
environment built once at set-up.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from time import perf_counter

from repro.analysis.discharge import (VerificationCache,
                                      certificate_from_engine,
                                      defines_are_safe, discharge_for_run,
                                      infer_workload)
from repro.analysis.ljb import scp_check
from repro.eval.machine import compile_code, make_env, run_program
from repro.eval.native import ensure_native, ensure_native_libraries
from repro.lang.parser import parse_program
from repro.sct.monitor import SCMonitor
from repro.sexp.datum import intern
from repro.symbolic.engine import Engine
from repro.values.values import Closure, write_value

from perfbench import inputs
from perfbench.common import (OUT, ROOT, SETUP_REPEATS, Result, RssAtWork,
                              inproc_setup_s, latency_metrics, median)
from perfbench.inputs import FUEL
from perfbench.spans import Spans

CHUNK = 40             # first-sight inputs generated per untimed batch
SELF_CHECK_INPUTS = 20  # inputs replayed twice for the counter check

PROGRAMS = [name for name, _ in inputs.MONITORED_SIZES] + ["scheme"]

# Every per-layer metric, in report order, with its unit.  Times are
# means per request unless the name says otherwise; the engine and LJB
# rows are means per request that ran the verifier.
PER_LAYER = [
    ("lang.parser.ms", "ms"),
    ("lang.parser.nodes", "count/req"),
    ("analysis.discharge.hit_ms", "ms"),
    ("analysis.discharge.miss_ms", "ms"),
    ("analysis.discharge.self_ms", "ms"),
    ("analysis.discharge.hits", "count/req"),
    ("analysis.discharge.misses", "count/req"),
    ("analysis.discharge.rejected", "count/req"),
    ("analysis.discharge.complete_ratio", "ratio"),
    ("symbolic.engine.ms", "ms"),
    ("symbolic.engine.edges", "count/req"),
    ("symbolic.engine.graphs", "count/req"),
    ("analysis.ljb.ms", "ms"),
    ("analysis.ljb.closure_graphs", "count/req"),
    ("lang.resolve.ms", "ms"),
    ("eval.native.emit_ms", "ms"),
    ("eval.machine.exec_ms", "ms"),
    ("eval.machine.steps", "count/req"),
    ("eval.native.tier_share", "ratio"),
    ("sct.monitor.calls", "count/req"),
    ("sct.monitor.checks", "count/req"),
    ("sct.monitor.ms", "ms"),
] + [(f"program.{name}.ms", "ms") for name in PROGRAMS] + [
    ("request.ms", "ms"),
    ("request.self_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("share.emit_of_request", "ratio"),
    ("share.hit_of_worker", "ratio"),
    ("share.frontend_of_light_p50", "ratio"),
    ("serve.worker_ms", "ms"),
    ("serve.frontend_ms", "ms"),
    ("serve.server_latency_ms.p50", "ms"),
    ("serve.batch.mean_size", "count"),
    ("serve.cache.hit_rate", "ratio"),
    ("serve.shed", "count"),
    ("serve.retries", "count"),
    ("serve.lost", "count"),
    ("serve.duplicated", "count"),
    ("serve.generator_late_ms", "ms"),
]


def setup_env():
    env = make_env(True, machine="native")
    ensure_native_libraries()
    return env


def request(inp, env, cache, programs=None):
    """One untraced request; ``programs`` as for :func:`traced_request`."""
    program = programs.get(inp.source) if programs is not None else None
    if program is None:
        program = parse_program(inp.source, source=inp.name)
        if programs is not None:
            programs[inp.source] = program
    result = discharge_for_run(program, text=inp.source,
                               result_kinds=inp.result_kinds, cache=cache)
    monitor = SCMonitor(measures=inp.measures)
    answer = run_program(program, mode="full", monitor=monitor, fuel=FUEL,
                         machine="native", discharge=result.policy, env=env)
    return answer, monitor


def summary(answer):
    """(kind, value text or None, printed output) of an answer."""
    value = write_value(answer.value) if answer.kind == "value" else None
    return answer.kind, value, answer.output


def split_discharge(program, inp, spans: Spans, rid, tally: Counter) -> bool:
    """Time the verifier's two layers through their own public calls on
    the same input, as a measurement separate from the request:
    ``discharge_for_run`` covers both in one call.  False when the
    input has no workload entry to verify."""
    entries, _ = infer_workload(program)
    if entries is None or not defines_are_safe(program)[0]:
        return False
    spans.begin("analysis.discharge.split", rid)
    for entry in entries:
        engine = Engine(program, result_kinds=inp.result_kinds)
        fn = engine.globals.bindings.get(intern(entry.name))
        if not isinstance(fn, Closure):
            break
        spans.begin("symbolic.engine", rid)
        engine.run(fn, list(entry.kinds))
        tally["engine_ns"] += spans.end()
        spans.begin("analysis.ljb", rid)
        certificate_from_engine(engine)
        tally["ljb_ns"] += spans.end()
        tally["edges"] += len(engine.edges)
        tally["graphs"] += sum(len(gs) for gs in engine.edges.values())
        tally["closure_graphs"] += scp_check(engine.edges).total_graphs
    tally["split_n"] += 1
    spans.end()
    return True


def traced_request(inp, env, cache, spans: Spans, rid, tally: Counter,
                   programs=None):
    """One request with a span around each layer's public call.
    Resolution and emission run first, with the skip set
    ``run_program`` derives, so its own calls hit their caches and its
    span holds execution.  ``programs`` (text → parsed program) reuses
    parses the way a serve worker's program cache does."""
    spans.begin("request", rid)
    program = programs.get(inp.source) if programs is not None else None
    parsed = program is None
    if parsed:
        spans.begin("lang.parser", rid)
        program = parse_program(inp.source, source=inp.name)
        spans.end()
        if programs is not None:
            programs[inp.source] = program
    h0, m0, r0 = cache.hits, cache.misses, cache.rejected
    spans.begin("analysis.discharge", rid)
    result = discharge_for_run(program, text=inp.source,
                               result_kinds=inp.result_kinds, cache=cache)
    discharge_ns = spans.end()
    skip = frozenset(result.policy.skip_labels) or None
    spans.begin("lang.resolve", rid)
    codes = [compile_code(form.expr, skip) for form in program.forms]
    spans.end()
    spans.begin("eval.native.emit", rid)
    for code in codes:
        ensure_native(code)
    spans.end()
    monitor = SCMonitor(measures=inp.measures)
    spans.begin("eval.machine", rid)
    answer = run_program(program, mode="full", monitor=monitor, fuel=FUEL,
                         machine="native", discharge=result.policy, env=env)
    exec_ns = spans.end()
    tally["request_ns"] += spans.end()

    tally["requests"] += 1
    if parsed:
        tally["nodes"] += sum(1 for _ in program.iter_nodes())
    hits, misses = cache.hits - h0, cache.misses - m0
    tally["hits"] += hits
    tally["misses"] += misses
    tally["rejected"] += cache.rejected - r0
    if misses:
        tally["miss_n"] += 1
        tally["miss_ns"] += discharge_ns
        if split_discharge(program, inp, spans, rid, tally):
            tally["split_discharge_ns"] += discharge_ns
    elif hits:
        tally["hit_n"] += 1
        tally["hit_ns"] += discharge_ns
    tally["complete"] += result.complete
    tally["steps"] += answer.steps
    tally["native"] += answer.tier == "native"
    tally["calls"] += monitor.calls_seen
    tally["checks"] += monitor.checks_done
    if inp.terminates:
        # the monitor's cost: the same execution under mode=off
        spans.begin("monitor.split", rid)
        spans.begin("eval.machine.off", rid)
        run_program(program, mode="off", monitor=SCMonitor(), fuel=FUEL,
                    machine="native", discharge=result.policy, env=env)
        tally["off_ns"] += spans.end()
        spans.end()
        tally["full_ns"] += exec_ns
        tally["mon_n"] += 1
    return answer


def layer_metrics(spans: Spans, tally: Counter, extra=None):
    """Every per-layer metric (0 where the workload never ran the
    layer), from the spans' self times and the tally's counts."""
    totals = spans.totals()

    def per(key, count_key="requests"):
        return tally[key] / tally[count_key] if tally[count_key] else 0.0

    def self_ms(name):
        return per_request(totals.get(name, {}).get("self_ms", 0.0))

    def per_request(total):
        return total / tally["requests"] if tally["requests"] else 0.0

    engine_ms = per("engine_ns", "split_n") / 1e6
    ljb_ms = per("ljb_ns", "split_n") / 1e6
    request_ms = per("request_ns") / 1e6
    values = {
        "lang.parser.ms": self_ms("lang.parser"),
        "lang.parser.nodes": per("nodes"),
        "analysis.discharge.hit_ms": per("hit_ns", "hit_n") / 1e6,
        "analysis.discharge.miss_ms": per("miss_ns", "miss_n") / 1e6,
        "analysis.discharge.self_ms":
            per("split_discharge_ns", "split_n") / 1e6 - engine_ms - ljb_ms,
        "analysis.discharge.hits": per("hits"),
        "analysis.discharge.misses": per("misses"),
        "analysis.discharge.rejected": per("rejected"),
        "analysis.discharge.complete_ratio": per("complete"),
        "symbolic.engine.ms": engine_ms,
        "symbolic.engine.edges": per("edges", "split_n"),
        "symbolic.engine.graphs": per("graphs", "split_n"),
        "analysis.ljb.ms": ljb_ms,
        "analysis.ljb.closure_graphs": per("closure_graphs", "split_n"),
        "lang.resolve.ms": self_ms("lang.resolve"),
        "eval.native.emit_ms": self_ms("eval.native.emit"),
        "eval.machine.exec_ms": self_ms("eval.machine"),
        "eval.machine.steps": per("steps"),
        "eval.native.tier_share": per("native"),
        "sct.monitor.calls": per("calls"),
        "sct.monitor.checks": per("checks"),
        "sct.monitor.ms":
            (per("full_ns", "mon_n") - per("off_ns", "mon_n")) / 1e6,
        "request.ms": request_ms,
        "request.self_ms": self_ms("request"),
        "trace.overhead_ms":
            request_ms - per("untraced_ns", "untraced_n") / 1e6,
        "share.emit_of_request":
            self_ms("eval.native.emit") / request_ms if request_ms else 0.0,
    }
    values.update(extra or {})
    return {name: (float(values.get(name, 0.0)), unit)
            for name, unit in PER_LAYER}


def span_table(spans: Spans, n: int):
    """Printable rows: layer, spans, total ms, self ms, self ms per
    request."""
    rows = []
    for name, row in sorted(spans.totals().items()):
        rows.append(f"  {name:32} {row['count']:7d} spans "
                    f"{row['total_ms']:10.1f} ms total "
                    f"{row['self_ms']:10.1f} ms self "
                    f"{row['self_ms'] / max(n, 1):8.3f} ms/req")
    return rows


def write_spans(spans: Spans, workload: str, seed: int) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
    spans.write(path)
    return os.path.relpath(path, ROOT)


def counter_self_check(res: Result, inps, env) -> None:
    """Run each input twice from a cold start and require identical
    exact counters (steps, monitored calls and checks, cache misses,
    verifier call edges)."""
    def counters(inp):
        cache = VerificationCache()
        answer, monitor = request(inp, env, cache)
        tally = Counter()
        split_discharge(parse_program(inp.source, source=inp.name), inp,
                        Spans(), 0, tally)
        return (answer.steps, monitor.calls_seen, monitor.checks_done,
                cache.misses, tally["edges"])

    rows = [counters(inp) for inp in inps]
    again = [counters(inp) for inp in inps]
    res.checks["counters_repeat"] = rows == again
    res.checks["counters"] = [sum(col) for col in zip(*rows)]
    if rows != again:
        res.fail("exact counters differ between two runs of the same "
                 "inputs")


def _check_answers(res: Result, records) -> None:
    for inp, (kind, value, output) in records:
        reason = inputs.check(inp, kind, value, output)
        if reason is not None:
            res.fail(reason)


# -- first-sight --------------------------------------------------------------


def first_sight(seed: int, seconds: float, trace: bool) -> Result:
    res = Result()
    res.checks["digests"] = inputs.seed_digests(
        lambda s: itertools.islice(inputs.first_sight_stream(s), 200), seed)
    setup_s, samples = inproc_setup_s(0 if trace else SETUP_REPEATS)
    env = setup_env()
    stream = inputs.first_sight_stream(seed)
    # warm this process's lazy imports on inputs outside the stream
    for inp in inputs.first_sight_stream(seed + 7_777_777):
        request(inp, env, VerificationCache())
        if inp.category == "diverging":
            break

    records = []
    times = []
    spans = Spans()
    tally = Counter()
    busy = 0.0
    rss = RssAtWork()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        chunk = [next(stream) for _ in range(CHUNK)]
        for inp in chunk:
            if trace:
                _traced_first_sight(inp, env, spans, tally, records)
            else:
                t0 = perf_counter()
                answer, _ = request(inp, env, VerificationCache())
                dt = perf_counter() - t0
                busy += dt
                times.append(dt * 1000.0)
                records.append((inp, summary(answer)))
                rss.tick(len(times))
            if perf_counter() >= deadline:
                break
    used = [inp for inp, _ in records]
    inputs.fill_oracles(used, make_env(True, machine="tree"))
    _check_answers(res, records)
    counter_self_check(res, used[:SELF_CHECK_INPUTS], env)
    res.attempted = len(records)
    res.checks["input_digest"] = inputs.digest(used)
    res.repeats = {"requests": len(records), "setup": len(samples)}
    if trace:
        res.metrics = layer_metrics(spans, tally)
        res.table = span_table(spans, tally["requests"])
        res.checks["spans_file"] = write_spans(spans, "first-sight", seed)
        return res
    res.metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss.final(), "MB"),
        "requests_per_s": (len(times) / busy, "1/s"),
    }
    latency_metrics(res, times)
    return res


def _traced_first_sight(inp, env, spans, tally, records) -> None:
    """The input untraced and traced, in alternating order, each from
    a fresh cache: the difference is the tracing overhead."""
    index = tally["inputs"]
    tally["inputs"] += 1

    def untraced():
        t0 = perf_counter()
        answer, _ = request(inp, env, VerificationCache())
        tally["untraced_ns"] += int((perf_counter() - t0) * 1e9)
        tally["untraced_n"] += 1
        records.append((inp, summary(answer)))

    if index % 2:
        untraced()
    answer = traced_request(inp, env, VerificationCache(), spans, index,
                            tally)
    records.append((inp, summary(answer)))
    if not index % 2:
        untraced()


# -- monitored ----------------------------------------------------------------


def monitored(seed: int, seconds: float, trace: bool) -> Result:
    res = Result()
    suite = inputs.monitored_suite()

    res.checks["digests"] = inputs.seed_digests(
        lambda s: itertools.chain.from_iterable(
            itertools.islice(inputs.monitored_passes(s, suite), 50)), seed)
    setup_s, samples = inproc_setup_s(0 if trace else SETUP_REPEATS)
    env = setup_env()
    cache = VerificationCache()
    for inp in suite:  # the warm pass: fills the shared cache
        request(inp, env, cache)
    orders = inputs.monitored_passes(seed, suite)

    records = []
    passes = []
    per_program = {inp.name: [] for inp in suite}
    times = []
    counters = []
    spans = Spans()
    tally = Counter()
    rss = RssAtWork()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not passes:
        traced_pass = trace and len(counters) % 2 == 1
        pass_s = 0.0
        row = {}
        for inp in next(orders):
            if traced_pass:
                answer = traced_request(inp, env, cache, spans,
                                        len(records), tally)
            else:
                t0 = perf_counter()
                answer, monitor = request(inp, env, cache)
                dt = perf_counter() - t0
                pass_s += dt
                per_program[inp.name].append(dt * 1000.0)
                times.append(dt * 1000.0)
                rss.tick(len(times))
                row[inp.name] = (answer.steps, monitor.calls_seen,
                                 monitor.checks_done)
            records.append((inp, summary(answer)))
        if traced_pass:
            counters.append(None)
            continue
        passes.append(pass_s)
        counters.append(row)
        tally["untraced_ns"] += int(pass_s * 1e9)
        tally["untraced_n"] += len(suite)
    _check_answers(res, records)
    rows = [row for row in counters if row is not None]
    res.checks["counters_repeat"] = all(row == rows[0] for row in rows)
    res.checks["counters"] = [sum(col) for col in zip(*rows[0].values())]
    if not res.checks["counters_repeat"]:
        res.fail("exact counters differ between passes")
    res.attempted = len(records)
    res.repeats = {"passes": len(passes), "requests": len(records),
                   "setup": len(samples)}
    res.extra["suite_s"] = (median(passes), "s")
    if trace:
        extra = {f"program.{name}.ms": median(ms)
                 for name, ms in per_program.items()}
        res.metrics = layer_metrics(spans, tally, extra)
        res.table = span_table(spans, tally["requests"])
        res.checks["spans_file"] = write_spans(spans, "monitored", seed)
        return res
    res.metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss.final(), "MB"),
        "requests_per_s": (len(times) / sum(passes), "1/s"),
    }
    latency_metrics(res, times, windows=len(passes))
    return res
