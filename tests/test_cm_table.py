"""The compiled machine's cm-strategy size-change table (dict chunks).

Two layers:

* a model test of :func:`repro.eval.machine._table_put` against a plain
  ``dict`` under stack-discipline snapshot and restore — the way
  continuation frames save and reinstate the table — checking lookups,
  that no published chunk is ever mutated, and the chunk-count bound;
* differential tests of a diverging loop whose own entry lies in a merged
  (older) chunk when it recurs: compiled and native must report the tree
  machine's violation, under both evidence monitors, enforcing or not.
"""

import math
import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.discharge import VerificationCache, discharge_for_run
from repro.eval import machine
from repro.eval.machine import Answer, run_program
from repro.lang.parser import parse_program
from repro.mc.monitor import MCMonitor
from repro.sct.monitor import SCMonitor
from repro.values.values import write_value


def chunks(table):
    """The table's chunks, newest first."""
    top, older = table
    return (top,) + older


def lookup(table, key):
    for chunk in chunks(table):
        if key in chunk:
            return chunk[key]
    return None


def bound(n, chunk):
    """The chunk-count ceiling after ``n`` inserts."""
    return max(0, math.ceil(math.log2(n / chunk))) + 2 if n else 1


def replay(ops, chunk):
    """Run ``ops`` — ``("call", k)`` (non-tail: snapshot, then insert),
    ``("tail", k)`` (insert) and ``("ret", _)`` (restore the last
    snapshot) — against the table and a dict model side by side."""
    published = {}  # id(chunk) -> (chunk, its contents when first seen)

    def publish(table):
        for c in chunks(table):
            published.setdefault(id(c), (c, dict(c)))

    table, model, n = machine._EMPTY_TABLE, {}, 0
    publish(table)
    stack = []
    for step, (op, key) in enumerate(ops):
        if op == "ret":
            if stack:
                table, model, n = stack.pop()
        else:
            if op == "call":
                stack.append((table, model, n))
            value = (key, step)  # distinct per insert: advances are visible
            table = machine._table_put(table, key, value)
            model = {**model, key: value}
            n += 1
            publish(table)
        assert len(chunks(table)) <= bound(n, chunk), \
            (n, [len(c) for c in chunks(table)])
        assert lookup(table, key) == model.get(key)
        if step % 25 == 0:
            for k in range(max(model, default=0) + 2):
                assert lookup(table, k) == model.get(k)
    for k in range(max(model, default=0) + 2):
        assert lookup(table, k) == model.get(k)
    for c, contents in published.values():
        assert c == contents, "a published chunk was mutated"


OPS = st.lists(st.tuples(st.sampled_from(["call", "call", "tail", "ret"]),
                         st.integers(min_value=0, max_value=60)),
               max_size=300)


@settings(max_examples=150, deadline=None)
@given(OPS, st.sampled_from([1, 2, 4]))
def test_table_matches_dict_model_small_chunks(ops, chunk):
    """Tiny chunks make short sequences spill and merge repeatedly."""
    with mock.patch.object(machine, "_CHUNK", chunk):
        replay(ops, chunk)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_table_matches_dict_model_real_chunk(seed):
    rng = random.Random(seed)
    ops = [(rng.choice(["call", "tail", "tail", "ret"]),
            rng.randrange(rng.choice([8, 400])))
           for _ in range(1500)]
    replay(ops, machine._CHUNK)


def test_distinct_inserts_keep_the_chunk_count_logarithmic():
    table = machine._EMPTY_TABLE
    for n in range(1, 5001):
        table = machine._table_put(table, n, n)
        assert len(chunks(table)) <= bound(n, machine._CHUNK)
    assert sum(map(len, chunks(table))) == 5000
    assert all(lookup(table, k) == k for k in range(1, 5001))


def test_advance_heavy_inserts_keep_the_chunk_count_logarithmic():
    """Mostly re-inserted keys: merges collapse shadowed duplicates, so
    merged chunks do not double by themselves.  (Merging only into
    neighbours no larger than the merge lets the count pass the bound
    here; the doubling rule keeps it.)"""
    for seed in range(5):
        rng = random.Random(seed)
        table, keys = machine._EMPTY_TABLE, []
        for n in range(1, 40_001):
            if keys and rng.random() < 0.97:
                key = rng.choice(keys)
            else:
                key = len(keys)
                keys.append(key)
            table = machine._table_put(table, key, n)
            assert len(chunks(table)) <= bound(n, machine._CHUNK), (seed, n)


# -- an entry in an old chunk -------------------------------------------------

# Each trip round `loop` enters 100 fresh λs before `loop` recurs, so its
# own entry has been merged into an older chunk by then.  Every `wrap`
# step also calls the prelude's `map`, which the verifier discharges, so
# the native machine runs native frames mid-loop and carries the table
# through them.
WRAP = """
(define (wrap d t)
  (if (zero? d)
      (t)
      ((lambda (x) (wrap (- d 1) t)) (car (map (lambda (z) z) (list d))))))
"""
OLD_CHUNK_LOOP = WRAP + """
(define (loop n) (+ 1 (wrap 100 (lambda () (loop n)))))
(loop 5)
"""
# The same shape counting up to a bound: flagged (no descent), yet it
# terminates, so an unenforced run is the same finite run everywhere.
OLD_CHUNK_COUNT_UP = WRAP + """
(define (loop i) (if (>= i 6) 0 (+ 1 (wrap 100 (lambda () (loop (+ i 1)))))))
(loop 0)
"""

MACHINES = ("tree", "compiled", "native")


def payload(v):
    return (v.function, v.blame, [write_value(a) for a in v.prev_args],
            [write_value(a) for a in v.new_args], str(v.graph),
            str(v.composition), v.call_count, str(v))


def run_all(source, monitor_cls, fuel=1_000_000, **knobs):
    program = parse_program(source)
    policy = discharge_for_run(program, text=source,
                               cache=VerificationCache(None)).policy
    out = {}
    for m in MACHINES:
        monitor = monitor_cls(**knobs)
        a = run_program(program, mode="full", monitor=monitor, machine=m,
                        fuel=fuel, discharge=policy, hot_after=1)
        out[m] = (a, monitor)
    return out


def test_loop_entry_really_lies_in_an_old_chunk():
    """Where `loop`'s entry sits when `loop` recurs: the table the last
    insert (the thunk's) produced."""
    where = []
    put = machine._table_put

    def spy(table, fn, entry):
        table = put(table, fn, entry)
        where.append([i for i, c in enumerate(chunks(table))
                      if any(k.name == "loop" for k in c)])
        return table

    with mock.patch.object(machine, "_table_put", spy):
        a = run_program(parse_program(OLD_CHUNK_LOOP), mode="full",
                        monitor=SCMonitor(), machine="compiled")
    assert a.kind == Answer.SC_ERROR
    assert where[-1] and min(where[-1]) > 0, where[-1]


def test_old_chunk_entry_violation_matches_tree():
    for cls in (SCMonitor, MCMonitor):
        runs = run_all(OLD_CHUNK_LOOP, cls)
        tree, _ = runs["tree"]
        assert tree.kind == Answer.SC_ERROR
        assert runs["native"][0].tier == "native"
        for m in ("compiled", "native"):
            a, _ = runs[m]
            assert a.kind == Answer.SC_ERROR, (cls, m, a)
            assert payload(a.violation) == payload(tree.violation), (cls, m)


def test_old_chunk_entry_violation_lists_match_tree_unenforced():
    """A finite flagged run records the same violations everywhere; a
    diverging one runs until fuel, which the machines count differently
    (the compiled machine charges per argument), so there one list is a
    prefix of the other."""
    for source, finite in ((OLD_CHUNK_COUNT_UP, True),
                           (OLD_CHUNK_LOOP, False)):
        for cls in (SCMonitor, MCMonitor):
            runs = run_all(source, cls, fuel=None if finite else 20_000,
                           enforce=False)
            tree, tree_monitor = runs["tree"]
            expect = [payload(v) for v in tree_monitor.violations]
            assert len(expect) > 1
            for m in ("compiled", "native"):
                a, monitor = runs[m]
                got = [payload(v) for v in monitor.violations]
                assert a.kind == tree.kind, (cls, m, a)
                if finite:
                    assert write_value(a.value) == write_value(tree.value)
                    assert got == expect, (cls, m)
                else:
                    common = min(len(got), len(expect))
                    assert common > 1
                    assert got[:common] == expect[:common], (cls, m)
