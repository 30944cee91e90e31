"""The `serve-worker` workload, and its traced run against a real server.

Traffic is blocks of 15 requests in a seeded order: 12 repeats from a
hot set (certificate-cache reads, parsed-program cache hits) and 3
programs never seen before, one of them diverging (verification, cache
writes).  The 80/20 split is an assumed mix: no recorded serve traffic
backs it.  The hot set is every Table 1 program serve can run as is
plus 8 seeded generated programs, 33 in all, which is below the 64
entries of a worker's parsed-program cache; repeats therefore almost
always hit it, and the hit path's weight in this workload follows from
that choice.

The untraced run is a closed loop of one caller straight into a serve
worker's entry points.  The traced run adds the socket: a ``sized
serve`` subprocess (default configuration, two shard workers, a fresh
``--cache-dir``) gets the same traffic at a fixed light rate, from this
one asyncio process over one connection
(:class:`repro.serve.client.AsyncServeClient`), each request timed from
the moment it was due.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from collections import Counter
from time import perf_counter

from repro.analysis.discharge import VerificationCache
from repro.eval.machine import make_env
from repro.serve import protocol
from repro.serve.client import AsyncServeClient, RetryPolicy
from repro.serve.workers import worker_init, worker_job

from perfbench import inputs
from perfbench.common import (OUT, Result, RssAtWork, child_pids,
                              inproc_setup_s, latency_metrics, median,
                              src_env)
from perfbench.inproc import (layer_metrics, request, setup_env,
                              span_table, traced_request, write_spans)
from perfbench.spans import Spans

WORKERS = 2
LIGHT_RPS = 50.0
LIGHT_SHARE = 0.55     # share of the traced run's --seconds sent at LIGHT_RPS
LATE_LIMIT_MS = 50.0   # a generator this late is reported as late
HOT_GENERATED = 8      # generated members of the hot set
BLOCK = (("hot", 12), ("first-term", 2), ("first-div", 1))
REQUEST_TIMEOUT_S = 60.0
CHUNK = 40             # serve-worker inputs generated per untimed batch
LISTEN = re.compile(r"listening on ([\d.]+):(\d+)")


class Traffic:
    """The seeded hot set and the seeded request stream."""

    def __init__(self, seed: int):
        self.seed = seed
        term, _ = inputs.corpus_pools()
        # every Table 1 program that needs no custom measure (the serve
        # protocol carries none) and no interpreter-sized run, plus
        # seeded generated programs
        corpus = [inp for inp in term if inp.category == "table1"
                  and not inp.measures and inp.name != "scheme"]
        generated = [inputs.generated_input(seed * 1_000_003 + i,
                                            "terminating")
                     for i in range(HOT_GENERATED)]
        self.hot = [_serve_input(inp) for inp in corpus + generated]

    def stream(self):
        rng = random.Random(f"perfbench/serve/{self.seed}")
        first = itertools.count(self.seed * 1_000_003 + 1_000)
        while True:
            block = [cat for cat, k in BLOCK for _ in range(k)]
            rng.shuffle(block)
            for cat in block:
                if cat == "hot":
                    yield rng.choice(self.hot)
                else:
                    mode = ("terminating" if cat == "first-term"
                            else "diverging")
                    yield inputs.generated_input(next(first), mode)


def _serve_input(inp):
    """The input as serve runs it: the protocol carries no measures
    and no result kinds."""
    return inputs.Input(inp.name, inp.category, inp.source, inp.expect,
                        output=inp.output, gen_fuel=inp.gen_fuel)


def run_request(inp) -> dict:
    return {"op": "run", "program": inp.source, "mode": "full",
            "discharge": "try", "machine": "native"}


def worker_job_for(inp) -> dict:
    """The job the front-end hands a worker for ``run_request(inp)``."""
    return {"op": "run", "program": inp.source, "fuel": inputs.FUEL,
            "machine": "native", "mode": "full", "discharge": "try",
            "mc": False, "entry": None, "kinds": None, "result_kinds": None}


# -- the server process -------------------------------------------------------


class Server:
    def __init__(self, cache_dir: str):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(WORKERS), "--cache-dir", cache_dir],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=src_env())
        line = self.proc.stdout.readline()
        match = LISTEN.search(line)
        if match is None:
            self.kill()
            raise RuntimeError(f"server did not announce a port: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    async def shutdown(self, client) -> None:
        await client.request({"op": "shutdown"}, timeout=10)
        await client.close()
        await asyncio.get_running_loop().run_in_executor(
            None, self.wait)

    def wait(self) -> None:
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
        else:
            self.proc.stdout.close()

    def kill(self) -> None:
        """Stop the server and its workers without a drain."""
        for pid in child_pids(self.proc.pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


async def boot(cache_dir: str, seed: int):
    """Start a server and return it and a client that has had its first
    ``ping`` answered."""
    server = Server(cache_dir)
    try:
        client = await AsyncServeClient.connect(
            server.host, server.port, tag="bench",
            retry=RetryPolicy(retries=4, base=0.05, cap=1.0, seed=seed))
        pong = await client.request({"op": "ping"}, timeout=30)
        if not pong.get("ok"):
            raise RuntimeError(f"ping failed: {pong}")
    except BaseException:
        server.kill()
        raise
    return server, client


# -- the open loop ------------------------------------------------------------


async def open_loop(client, reqs, rate: float, spans):
    """Send ``reqs`` at ``rate`` per second, with one span per request.
    Returns one row per request, ``(input, response or None, latency from due time in ms)``,
    and the generator's maximum lateness in ms."""
    async def one(i, inp, due):
        try:
            response = await client.request(run_request(inp),
                                            timeout=REQUEST_TIMEOUT_S)
        except asyncio.TimeoutError:
            response = None
        done = perf_counter()
        spans.add("serve.request", i, int(due * 1e9), int(done * 1e9))
        return inp, response, (done - due) * 1000.0

    start = perf_counter() + 0.02
    tasks = []
    late = 0.0
    for i, inp in enumerate(reqs):
        due = start + i / rate
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        late = max(late, perf_counter() - due)
        tasks.append(asyncio.ensure_future(one(i, inp, due)))
    rows = await asyncio.gather(*tasks)
    return rows, late * 1000.0


def latencies(rows):
    return [ms for _, response, ms in rows if response is not None
            and response.get("ok")]


# -- checks -------------------------------------------------------------------


def check_rows(res: Result, rows, duplicated: int = 0) -> dict:
    """Oracle and delivery accounting for every response."""
    lost = 0
    steps = {}
    for inp, response, _ in rows:
        if response is None:
            lost += 1
            res.fail(f"{inp.name}: no response within "
                     f"{REQUEST_TIMEOUT_S:.0f} s")
            continue
        if not response.get("ok"):
            etype = (response.get("error") or {}).get("type")
            lost += etype == protocol.E_CONNECTION_LOST
            res.fail(f"{inp.name}: error response {etype}")
            continue
        reason = inputs.check(inp, response["kind"], response.get("value"),
                              response.get("output", ""))
        if reason is not None:
            res.fail(reason)
        steps.setdefault(inp.source, set()).add(
            (response["kind"], response.get("steps")))
    repeat = all(len(seen) == 1 for seen in steps.values())
    if not repeat:
        res.fail("a program's step count differs between its responses")
    if duplicated:
        res.fail(f"{duplicated} duplicated responses")
    return {"lost": lost, "duplicated": duplicated,
            "counters_repeat": repeat}


# -- the workload -------------------------------------------------------------


def serve_worker(seed: int, seconds: float, trace: bool) -> Result:
    """The traffic as a closed loop of one caller straight into a serve
    worker's entry points (``worker_init`` / ``worker_job``, on an
    on-disk certificate store): the hit path and the reuse of parsed
    programs, without the socket, the batch window and IPC.  The traced
    run sends the same traffic to a real server at the light rate, whose
    front-end split explains what this loop leaves out."""
    if trace:
        with _scratch() as scratch:
            return asyncio.run(_traced(seed, seconds, scratch))
    res = Result()
    traffic = Traffic(seed)

    res.checks["digests"] = _seed_digests(seed)
    setup_s, samples = inproc_setup_s(path="worker")
    rows, times = [], []
    busy = 0.0
    rss = RssAtWork()
    with _scratch() as scratch:
        worker_init(os.path.join(scratch, "cache"), 2, 0)
        for inp in traffic.hot + traffic.hot:
            rows.append((inp, worker_job(worker_job_for(inp)), 0.0))
        stream = traffic.stream()
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            for inp in _take(stream, CHUNK):
                t0 = perf_counter()
                response = worker_job(worker_job_for(inp))
                dt = perf_counter() - t0
                busy += dt
                times.append(dt * 1000.0)
                rows.append((inp, response, dt * 1000.0))
                rss.tick(len(times))
                if perf_counter() >= deadline:
                    break
    inputs.fill_oracles([inp for inp, _, _ in rows],
                        make_env(True, machine="tree"))
    res.checks.update(check_rows(res, rows))
    res.attempted = len(rows)
    res.repeats = {"requests": len(times), "setup": len(samples)}
    res.metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss.final(), "MB"),
        "requests_per_s": (len(times) / busy, "1/s"),
    }
    latency_metrics(res, times)
    return res


@contextlib.contextmanager
def _scratch():
    """A scratch directory inside the checkout, removed afterwards."""
    os.makedirs(OUT, exist_ok=True)
    path = tempfile.mkdtemp(prefix="serve-", dir=OUT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _take(stream, n: int):
    return list(itertools.islice(stream, n))


def _seed_digests(seed: int):
    return inputs.seed_digests(
        lambda s: _take(Traffic(s).stream(), 200), seed)


async def _traced(seed, seconds, scratch) -> Result:
    res = Result()
    traffic = Traffic(seed)
    light = _take(traffic.stream(), max(int(LIGHT_RPS * seconds
                                            * LIGHT_SHARE), 2))
    res.checks["digests"] = _seed_digests(seed)

    server, client = await boot(os.path.join(scratch, "cache"), seed)
    spans = Spans()
    checked = []
    try:
        # warm both workers: the first job on a fresh worker pays its
        # lazy imports; the hot set lands in the certificate caches
        for _ in range(2):
            for inp in traffic.hot:
                checked.append((inp, await client.request(
                    run_request(inp), timeout=REQUEST_TIMEOUT_S), 0.0))
        light_rows, late = await open_loop(client, light, LIGHT_RPS, spans)
        stats = (await client.request({"op": "stats"}))["stats"]
        retries = client.retries_used
        await server.shutdown(client)
    except BaseException:
        server.kill()
        raise

    checked += light_rows
    inputs.fill_oracles([inp for inp, _, _ in checked],
                        make_env(True, machine="tree"))
    res.checks.update(check_rows(res, checked, client.unmatched_responses))
    res.attempted = len(checked)
    # Latency is timed from each request's due time, so a late
    # generator's delay is charged to the requests, not hidden.
    res.checks["late"] = late > LATE_LIMIT_MS
    if res.checks["late"]:
        print(f"LATE: the generator sent a request {late:.1f} ms late")
    res.repeats = {"light": len(light_rows)}
    worker_ms, layer_spans, tally = _replay(traffic.hot, light_rows, scratch)
    light_p50 = median(latencies(light_rows))
    extra = {
        "serve.worker_ms": median(worker_ms),
        "serve.frontend_ms": light_p50 - median(worker_ms),
        "share.frontend_of_light_p50":
            (light_p50 - median(worker_ms)) / light_p50,
        "share.hit_of_worker": tally["hit_ns"] / 1e6 / sum(worker_ms),
        "serve.server_latency_ms.p50": stats["latency_ms"]["p50"],
        "serve.batch.mean_size": stats["batches"]["mean_size"],
        "serve.cache.hit_rate": stats["cache"]["hit_rate"],
        "serve.shed": _shed(stats),
        "serve.retries": retries,
        "serve.lost": res.checks["lost"],
        "serve.duplicated": res.checks["duplicated"],
        "serve.generator_late_ms": late,
    }
    res.metrics = layer_metrics(layer_spans, tally, extra)
    res.table = span_table(layer_spans, tally["requests"]) + \
        span_table(spans, len(light_rows))
    res.checks["spans_files"] = [
        write_spans(layer_spans, "serve-worker", seed),
        write_spans(spans, "serve-worker-client", seed)]
    return res


def _shed(stats) -> int:
    resilience = stats["resilience"]
    return resilience["shed_overloaded"] + resilience["shed_shard_queue"]


def _replay(hot, light_rows, scratch):
    """Replay the warm-up and the light-rate requests in this process, three
    times from a cold start: through the worker's own entry points
    (``worker_init`` / ``worker_job``) for the worker's time per
    request, then request by request with the worker's reuse (one
    certificate cache, parsed programs kept by text) untraced and
    traced, for the layer split and the tracing overhead."""
    light = [inp for inp, _, _ in light_rows]
    worker_init(os.path.join(scratch, "replay"), 2, 0)
    for inp in hot + hot:
        worker_job(worker_job_for(inp))
    worker_ms = []
    for inp in light:
        t0 = perf_counter()
        worker_job(worker_job_for(inp))
        worker_ms.append((perf_counter() - t0) * 1000.0)

    env = setup_env()
    tally = Counter()
    cache, programs = VerificationCache(), {}
    for inp in hot + hot:
        request(inp, env, cache, programs)
    for inp in light:
        t0 = perf_counter()
        request(inp, env, cache, programs)
        tally["untraced_ns"] += int((perf_counter() - t0) * 1e9)
        tally["untraced_n"] += 1

    cache, programs = VerificationCache(), {}
    for inp in hot + hot:
        traced_request(inp, env, cache, Spans(), -1, Counter(), programs)
    spans = Spans()
    for i, inp in enumerate(light):
        traced_request(inp, env, cache, spans, i, tally, programs)
    return worker_ms, spans, tally
