"""Seeded inputs for every workload, with an answer oracle per input.

An input's oracle never comes from the tier under test:

* corpus programs that terminate carry their hand-written ``expected``;
* the Fig. 10 shapes of the ``monitored`` workload get their expected
  value computed here in Python (a sum, a factorial, a sorted list);
* generated terminating programs expect the tree machine's ``mode=off``
  answer (value and printed output), computed by :func:`fill_oracles`
  after the timed part of a run;
* diverging programs, and conservative programs that carry no custom
  measure (``cpstak``, ``cross-zero``), expect ``sc-error``.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from typing import Dict, Iterator, List, Optional

from repro.bench.workloads import factorial_source, msort_source, sum_source
from repro.corpus import (all_programs, conservative_programs,
                          diverging_programs, extra_programs, get_program)
from repro.corpus.interpreter import (interpreted_msort_source,
                                      interpreted_sum_source)
from repro.fuzz.gen import generate_program

SC_ERROR = "sc-error"
FUEL = 5_000_000  # the step bound `sized serve` applies by default

# One block of first-sight traffic: how many inputs of each category it
# holds.  Every block is shuffled, so each run sees the same mix in a
# seed-specific order.
FIRST_SIGHT_BLOCK = (("gen-term", 10), ("gen-div", 5),
                     ("corpus-term", 3), ("corpus-div", 2))

# The monitored suite: Fig. 10 shapes at fixed sizes plus `scheme`.
MONITORED_SIZES = (("sum", 100_000), ("factorial", 1_000),
                   ("merge-sort", 600), ("interp-sum", 400),
                   ("interp-merge-sort", 48))


class Input:
    """One program to run, plus what its answer must be.

    ``expect`` is ``("value", text)`` or ``(SC_ERROR,)``; ``output`` is
    the printed output the oracle demands, or ``None`` to not check it.
    A generated terminating program has ``expect is None`` until
    :func:`fill_oracles` runs the tree machine on it."""

    __slots__ = ("name", "category", "source", "measures", "result_kinds",
                 "expect", "output", "gen_fuel")

    def __init__(self, name, category, source, expect, measures=None,
                 result_kinds=None, output=None, gen_fuel=None):
        self.name = name
        self.category = category
        self.source = source
        self.expect = expect
        self.measures = measures
        self.result_kinds = result_kinds
        self.output = output
        self.gen_fuel = gen_fuel

    @property
    def terminates(self) -> bool:
        return self.expect is None or self.expect[0] == "value"


def _corpus_input(prog, category: str) -> Input:
    expected = getattr(prog, "expected", None)
    if expected is None or (category == "conservative"
                            and not prog.measures):
        expect = (SC_ERROR,)
    else:
        expect = ("value", expected)
    return Input(prog.name, category, prog.source, expect,
                 measures=prog.measures,
                 result_kinds=getattr(prog, "result_kinds", None))


def corpus_pools():
    """(terminating-or-conservative, diverging) corpus inputs."""
    term = [_corpus_input(p, "table1") for p in all_programs()]
    term += [_corpus_input(p, "extra") for p in extra_programs()]
    term += [_corpus_input(p, "conservative")
             for p in conservative_programs()]
    div = [_corpus_input(p, "diverging") for p in diverging_programs()]
    return term, div


def generated_input(gen_seed: int, mode: str) -> Input:
    g = generate_program(gen_seed, mode)
    expect = None if mode == "terminating" else (SC_ERROR,)
    category = "gen-term" if mode == "terminating" else "gen-div"
    return Input(f"gen:{mode}:{gen_seed}", category, g.source, expect,
                 gen_fuel=g.fuel)


def _cycle(rng: random.Random, pool: List[Input]) -> Iterator[Input]:
    """Endless seeded permutations of ``pool``: every member is drawn
    equally often, in a seed-specific order."""
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield from order


def first_sight_stream(seed: int) -> Iterator[Input]:
    """The endless first-sight request stream for ``seed``.  Generated
    programs take fresh generator seeds, so none repeats in a run."""
    rng = random.Random(f"perfbench/first-sight/{seed}")
    term, div = corpus_pools()
    corpus = {"corpus-term": _cycle(rng, term),
              "corpus-div": _cycle(rng, div)}
    gen_seeds = itertools.count(seed * 1_000_003)
    while True:
        block = [cat for cat, n in FIRST_SIGHT_BLOCK for _ in range(n)]
        rng.shuffle(block)
        for cat in block:
            if cat in corpus:
                yield next(corpus[cat])
            else:
                mode = "terminating" if cat == "gen-term" else "diverging"
                yield generated_input(next(gen_seeds), mode)


def monitored_suite() -> List[Input]:
    """The programs of one ``monitored`` pass.  They are fixed (the sort
    inputs use the Fig. 10 defaults), so every seed does the same work;
    the seed orders each pass (:func:`monitored_passes`)."""
    sizes = dict(MONITORED_SIZES)
    sum_n, fact_n = sizes["sum"], sizes["factorial"]
    sort_n, isum_n = sizes["merge-sort"], sizes["interp-sum"]
    isort_n = sizes["interp-merge-sort"]
    suite = [
        Input("sum", "fig10", sum_source(sum_n),
              ("value", str(sum_n * (sum_n + 1) // 2))),
        Input("factorial", "fig10", factorial_source(fact_n),
              ("value", str(math.factorial(fact_n)))),
        Input("merge-sort", "fig10", msort_source(sort_n),
              ("value", str(sort_n))),
        Input("interp-sum", "fig10", interpreted_sum_source(isum_n),
              ("value", str(isum_n * (isum_n + 1) // 2))),
        Input("interp-merge-sort", "fig10",
              interpreted_msort_source(isort_n),
              ("value", "(" + " ".join(map(str, range(isort_n))) + ")")),
        _corpus_input(get_program("scheme"), "table1"),
    ]
    return suite


def monitored_passes(seed: int, suite: List[Input]) -> Iterator[List[Input]]:
    """Endless passes over ``suite``, each in its own seeded order."""
    rng = random.Random(f"perfbench/monitored/{seed}")
    while True:
        order = list(suite)
        rng.shuffle(order)
        yield order


def fill_oracles(inputs, tree_env) -> None:
    """Give every generated terminating input its tree-machine
    ``mode=off`` answer (a non-value answer is kept as the expectation,
    so the mismatch shows up against the tier under test)."""
    from repro.eval.machine import Answer, run_program
    from repro.lang.parser import parse_program
    from repro.values.values import write_value

    for inp in inputs:
        if inp.expect is not None:
            continue
        answer = run_program(parse_program(inp.source, source=inp.name),
                             mode="off", machine="tree", fuel=inp.gen_fuel,
                             env=tree_env)
        if answer.kind == Answer.VALUE:
            inp.expect = ("value", write_value(answer.value))
        else:
            inp.expect = (answer.kind,)
        inp.output = answer.output


def digest(inputs) -> str:
    """A short digest of the input texts, in order."""
    h = hashlib.sha256()
    for inp in inputs:
        h.update(inp.name.encode())
        h.update(b"\0")
        h.update(inp.source.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def check(inp: Input, kind: str, value: Optional[str],
          output: str) -> Optional[str]:
    """``None`` when the answer matches the input's oracle, else a
    one-line reason naming the input so it can be replayed."""
    expect = inp.expect
    if expect[0] == "value":
        if kind != "value":
            return f"{inp.name}: expected value {expect[1][:60]}, got {kind}"
        if value != expect[1]:
            return (f"{inp.name}: expected {expect[1][:60]}, "
                    f"got {value[:60]}")
        if inp.output is not None and output != inp.output:
            return f"{inp.name}: printed output differs from the oracle's"
        return None
    if kind != expect[0]:
        return f"{inp.name}: expected {expect[0]}, got {kind}"
    return None


def seed_digests(inputs_for_seed, seed: int) -> Dict[str, str]:
    """Digests of the inputs ``inputs_for_seed(seed)`` makes, twice, and
    of those for ``seed + 1``: the self-check that inputs follow from
    the seed and from nothing else."""
    return {"seed": digest(inputs_for_seed(seed)),
            "again": digest(inputs_for_seed(seed)),
            "next": digest(inputs_for_seed(seed + 1))}
