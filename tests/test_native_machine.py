"""Differential suite: the native tier vs the compiled and tree machines.

The native machine (exec-generated Python bodies for discharged λs,
trampoline-driven, compiled-machine ``eval_code`` fallback for anything
residual-monitored) must be *observably identical* to both other
machines: same answer kind, same printed value, same output bytes, same
violation witness, same error text — across the corpus, under no
monitoring, full monitoring (where every λ falls back), and a residual
policy (where proven λs run as native frames and the rest fall back in
the same run).  Plus the native-only contracts: the fuel boundary
(``fuel=0`` means no steps anywhere, exhaustion mid-native-frame is the
ordinary ``FuelExhausted``), proper tail calls via the trampoline far
past CPython's recursion limit, and the hot hand-off (an admitted λ
runs interpreted until its ``HOT_AFTER``-th entry in the run, is
emitted there, or rejected, and never otherwise).
"""

import sys

import pytest

from repro.analysis.discharge import VerificationCache, discharge_for_run
from repro.corpus import all_programs, diverging_programs
from repro.eval import FuelExhausted
from repro.eval import native
from repro.eval.machine import Answer, compile_code, run_program, run_source
from repro.lang.parser import parse_program
from repro.lang.resolve import (
    T_APP,
    T_BEGIN,
    T_IF,
    T_LAM,
    T_LET,
    T_LETREC,
    T_SETGLOBAL,
    T_SETLOCAL,
    T_TERMC,
)
from repro.sct.monitor import SCMonitor
from repro.values.values import write_value

MACHINES = ("tree", "compiled", "native")
PROGRAMS = all_programs()
DIVERGING = diverging_programs()

MAX_STEPS = 30_000_000


def run_everywhere(program, *, mode, strategy="cm", measures=None,
                   discharge=None, max_steps=MAX_STEPS, fuel=None):
    # ``program`` is a *parsed* Program: λ labels are assigned at parse
    # time, so a residual policy only matches the parse it was computed
    # from — every machine must run the very same object.
    if isinstance(program, str):
        program = parse_program(program)
    answers = {}
    for machine in MACHINES:
        answers[machine] = run_program(
            program, mode=mode, strategy=strategy,
            monitor=SCMonitor(measures=measures), max_steps=max_steps,
            fuel=fuel, machine=machine, discharge=discharge,
        )
    return answers


def assert_same_answer(reference, other):
    assert other.kind == reference.kind, (
        f"kind mismatch: {reference!r} vs {other!r}")
    assert other.output == reference.output
    if reference.kind == Answer.VALUE:
        assert write_value(other.value) == write_value(reference.value)
    if reference.kind == Answer.SC_ERROR:
        rv, ov = reference.violation, other.violation
        assert ov.function == rv.function
        assert ov.blame == rv.blame
        assert [write_value(a) for a in ov.prev_args] == \
            [write_value(a) for a in rv.prev_args]
        assert [write_value(a) for a in ov.new_args] == \
            [write_value(a) for a in rv.new_args]
        assert ov.composition == rv.composition
    if reference.kind == Answer.RT_ERROR:
        assert str(other.error) == str(reference.error)


def assert_all_same(answers):
    tree = answers["tree"]
    for machine in ("compiled", "native"):
        assert_same_answer(tree, answers[machine])


def discharged(source, result_kinds=None):
    parsed = parse_program(source)
    result = discharge_for_run(parsed, text=source,
                               result_kinds=result_kinds,
                               cache=VerificationCache(None))
    return parsed, result


def code_lams(program, skip_labels=None):
    """Every CLam of ``program``'s resolved code under one policy (the
    code cache hands back the very objects a run used)."""
    lams = []
    stack = [compile_code(form.expr, skip_labels) for form in program.forms]
    while stack:
        node = stack.pop()
        t = node.tag
        if t == T_LAM:
            lams.append(node)
            stack.append(node.body)
        elif t == T_APP:
            stack.extend(node.exprs)
        elif t == T_IF:
            stack.extend((node.test, node.then, node.els))
        elif t == T_BEGIN:
            stack.extend(node.body)
        elif t in (T_LET, T_LETREC):
            stack.extend(node.rhss)
            stack.append(node.body)
        elif t in (T_SETLOCAL, T_SETGLOBAL, T_TERMC):
            stack.append(node.expr)
    return lams


@pytest.mark.parametrize("mode", ["off", "full"])
@pytest.mark.parametrize("prog", PROGRAMS, ids=[p.name for p in PROGRAMS])
class TestCorpusDifferential:
    """Byte-identity over the whole corpus.  ``off`` exercises pure
    native execution (nothing is monitored, every compiled λ is
    eligible); ``full`` without a policy exercises the all-fallback
    path (every λ is residual-monitored)."""

    def test_identical_answers(self, prog, mode):
        answers = run_everywhere(prog.source, mode=mode,
                                 measures=prog.measures)
        assert answers["tree"].kind == Answer.VALUE
        assert_all_same(answers)


class TestDischargedCorpus:
    """Byte-identity under residual policies — the tier-mixing runs the
    native machine exists for."""

    @pytest.mark.parametrize(
        "prog", PROGRAMS, ids=[p.name for p in PROGRAMS])
    def test_identical_answers_under_policy(self, prog):
        parsed, result = discharged(prog.source, prog.result_kinds)
        if result.policy is None:
            pytest.skip("no residual policy for this program")
        answers = run_everywhere(parsed, mode="full",
                                 measures=prog.measures,
                                 discharge=result.policy)
        assert answers["tree"].kind == Answer.VALUE
        assert_all_same(answers)


@pytest.mark.parametrize("prog", DIVERGING, ids=[d.name for d in DIVERGING])
class TestDivergingDifferential:
    """Violation payloads are produced by the fallback (every λ is
    monitored, nothing discharged) and must be witness-identical."""

    def test_identical_violation(self, prog):
        answers = run_everywhere(prog.source, mode="full",
                                 measures=prog.measures,
                                 max_steps=3_000_000)
        assert answers["tree"].kind == Answer.SC_ERROR
        assert_all_same(answers)


class TestFallbackBoundary:
    """One run mixing native frames (a proven λ) with monitored
    fallback frames (an unproven diverging λ): the violation must cross
    the boundary with an identical witness."""

    # len recurses past HOT_AFTER, so the native run hands it over.
    SRC = ("(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))\n"
           "(define (up l) (up (cons 1 l)))\n"
           "(len '(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20))\n"
           "(up '())\n")

    def test_violation_identical_across_boundary(self):
        parsed, result = discharged(self.SRC)
        assert not result.complete          # up is unprovable
        assert result.policy is not None
        assert result.policy.skip_labels    # len is proven
        answers = {}
        monitors = {}
        for machine in MACHINES:
            monitors[machine] = SCMonitor()
            answers[machine] = run_program(
                parsed, mode="full", monitor=monitors[machine],
                max_steps=3_000_000, machine=machine,
                discharge=result.policy)
        assert answers["tree"].kind == Answer.SC_ERROR
        assert answers["tree"].violation.function == "up"
        assert_all_same(answers)
        # The native run really mixed tiers: native frames were entered
        # (len) while the monitor still saw the unproven λ's calls (up).
        assert answers["native"].tier == "native"
        assert monitors["native"].calls_seen > 0
        assert monitors["native"].calls_seen == monitors["tree"].calls_seen


class TestFuelBoundary:
    """The fuel contract on the native machine matches the other two:
    0 means no steps run anywhere, and exhaustion mid-native-frame is
    the ordinary distinct outcome."""

    LOOP = "(define (spin n) (spin (+ n 1)))\n(spin 0)\n"
    SUM = ("(define (sum n acc) (if (zero? n) acc (sum (- n 1) "
           "(+ acc n))))\n(sum 100000 0)\n")

    def test_fuel_zero_is_immediate_exhaustion(self):
        a = run_source(self.LOOP, mode="off", fuel=0, machine="native")
        assert a.kind == Answer.TIMEOUT
        assert isinstance(a.error, FuelExhausted)
        assert a.steps == 0

    def test_exhaustion_mid_native_frame(self):
        # Fully-discharged tight loop: the spinning frames are native
        # when the budget runs dry.
        parsed, result = discharged(self.SUM)
        assert result.complete
        a = run_program(parsed, mode="full", fuel=5_000,
                        machine="native", discharge=result.policy)
        assert a.kind == Answer.TIMEOUT
        assert isinstance(a.error, FuelExhausted)
        assert 0 < a.steps <= 5_000

    def test_ample_fuel_returns_value(self):
        parsed, result = discharged(self.SUM)
        a = run_program(parsed, mode="full", fuel=10_000_000,
                        machine="native", discharge=result.policy)
        assert a.kind == Answer.VALUE
        assert write_value(a.value) == "5000050000"


class TestTrampoline:
    """Proper tail calls and constant-stack non-tail returns far past
    CPython's own recursion limit."""

    def test_deep_non_tail_recursion(self):
        n = 50_000
        assert n > sys.getrecursionlimit()
        src = ("(define (count n) (if (zero? n) 0 (+ 1 (count (- n 1)))))\n"
               f"(count {n})\n")
        a = run_source(src, mode="off", machine="native")
        assert a.kind == Answer.VALUE
        assert a.value == n

    def test_deep_tail_recursion(self):
        n = 200_000
        src = ("(define (down n) (if (zero? n) 'done (down (- n 1))))\n"
               f"(down {n})\n")
        a = run_source(src, mode="off", machine="native")
        assert a.kind == Answer.VALUE
        assert write_value(a.value) == "done"

    def test_deep_non_tail_under_residual_policy(self):
        n = 20_000
        assert n > sys.getrecursionlimit()
        src = ("(define (count n) (if (zero? n) 0 (+ 1 (count (- n 1)))))\n"
               f"(count {n})\n")
        parsed, result = discharged(src)
        assert result.complete
        a = run_program(parsed, mode="full", machine="native",
                        discharge=result.policy)
        assert a.kind == Answer.VALUE
        assert a.value == n


class TestMutationOrder:
    """``set!`` pins evaluation order and storage identity: a volatile
    read must be copied before a sibling's mutation can run, and every
    let/letrec binding needs its own slot.  These are the observables
    the locals-mode emitter got wrong (review repros, PR 9) — each case
    asserts byte-identity against the tree machine plus the exact
    expected value."""

    PROBES = [
        # Left argument read before the right argument's set! fires.
        ("(define (f x) (+ x (begin (set! x 99) 1)))\n(f 1)\n", "2"),
        # A let binding from a letrec slot must not alias it.
        ("(define (f x) (letrec ((a x)) (let ((y a)) "
         "(begin (set! y 2) a))))\n(f 1)\n", "1"),
        # let rhs reads the parameter, the body then mutates it.
        ("(define (f x) (let ((y x)) (begin (set! x 50) (+ y x))))\n"
         "(f 1)\n", "51"),
        # letrec* ordering: the second rhs sees the first slot mutated.
        ("(define (f x) (letrec ((a x) (b (begin (set! a 7) a))) "
         "(+ a b)))\n(f 1)\n", "14"),
        # Parallel let: both rhss evaluate before either name binds.
        ("(define (f x) (let ((y x) (z (begin (set! x 9) x))) "
         "(+ (* 100 y) z)))\n(f 1)\n", "109"),
        # Nested lets: each binding gets distinct storage.
        ("(define (f x) (let ((a x)) (let ((b a)) "
         "(begin (set! b 8) (+ a b)))))\n(f 1)\n", "9"),
        # Sequenced rebinds through begin.
        ("(define (f x) (begin (set! x (+ x 1)) (set! x (* x 2)) x))\n"
         "(f 3)\n", "8"),
        # The let value is read out before the set! behind it.
        ("(define (f x) (+ (let ((u x)) (begin (set! x 40) u)) x))\n"
         "(f 2)\n", "42"),
    ]

    @pytest.mark.parametrize("src,expected", PROBES,
                             ids=[f"probe{i}" for i in range(len(PROBES))])
    def test_identical_across_machines(self, src, expected):
        answers = run_everywhere(src, mode="off")
        assert answers["tree"].kind == Answer.VALUE
        assert write_value(answers["tree"].value) == expected
        assert_all_same(answers)

    def test_frame_mode_capture_sees_mutation(self):
        # A nested λ forces frame mode; the closure must observe the
        # set! on the captured frame slot.
        src = ("(define (f x) (let ((g (lambda (y) (+ x y)))) "
               "(begin (set! x 9) (g 1))))\n(f 1)\n")
        answers = run_everywhere(src, mode="off")
        assert answers["tree"].kind == Answer.VALUE
        assert write_value(answers["tree"].value) == "10"
        assert_all_same(answers)

    def test_mutation_runs_on_the_native_tier_when_discharged(self):
        # The ordering contract must hold in actual native frames under
        # monitoring, not only in the unmonitored configuration.
        src = ("(define (f n) (if (zero? n) 0 "
               "(+ (let ((m n)) (+ m (begin (set! m 1) m))) "
               "(f (- n 1)))))\n(f 4)\n")
        parsed, result = discharged(src)
        assert result.complete
        answers = run_everywhere(parsed, mode="full",
                                 discharge=result.policy)
        assert answers["tree"].kind == Answer.VALUE
        assert_all_same(answers)
        a = run_program(parsed, mode="full", machine="native",
                        discharge=result.policy, hot_after=1)
        assert a.tier == "native"
        assert write_value(a.value) == write_value(
            answers["tree"].value)


class TestTierReporting:
    """``Answer.tier`` names the tier that actually did the work."""

    def test_unmonitored_run_reports_native(self):
        # tier is "what ran a λ frame": a program whose λ gets hot
        # reports native; pure top-level arithmetic never enters a frame
        # and honestly reports compiled.
        src = ("(define (f n) (if (zero? n) 1 (f (- n 1))))\n"
               f"(f {native.HOT_AFTER + 5})\n")
        a = run_source(src, mode="off", machine="native")
        assert a.kind == Answer.VALUE and a.value == 1
        assert a.tier == "native"

    def test_all_fallback_run_reports_compiled(self):
        # mode=full with no policy: nothing is discharged, so no native
        # frame ever runs and the answer honestly says so.
        src = "(define (f n) (if (zero? n) 1 (f (- n 1))))\n(f 5)\n"
        a = run_source(src, mode="full", machine="native")
        assert a.kind == Answer.VALUE and a.value == 1
        assert a.tier == "compiled"

    def test_other_machines_report_themselves(self):
        for machine in ("tree", "compiled"):
            a = run_source("(+ 1 2)", mode="off", machine=machine)
            assert a.tier == machine


class TestLazyEmission:
    """Native code is emitted when the hot hand-off (or the trampoline)
    first runs a λ natively, and never for a λ the tier-selection rule
    does not admit."""

    SPIN = ("(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))\n"
            "(define (up l) (up (cons (len l) l)))\n"
            "(up '())\n")

    def test_monitored_run_without_discharge_emits_nothing(self):
        prog = next(p for p in PROGRAMS if p.name == "sct-1")
        parsed = parse_program(prog.source)
        a = run_program(parsed, mode="full", machine="native",
                        monitor=SCMonitor(measures=prog.measures))
        assert a.kind == Answer.VALUE and a.tier == "compiled"
        lams = code_lams(parsed)
        assert lams
        assert all(lam.native_is_gen is None for lam in lams)

    def test_code_emitted_unmonitored_never_runs_a_monitored_frame(self):
        parsed = parse_program(self.SPIN)
        runs = []
        for mode in ("full", "off", "full"):
            mon = SCMonitor()
            runs.append((run_program(parsed, mode=mode, monitor=mon,
                                     fuel=200_000, machine="native"), mon))
        (first, m1), (off, _), (again, m3) = runs
        assert off.kind == Answer.TIMEOUT and off.tier == "native"
        assert all(lam.native is not None for lam in code_lams(parsed))
        assert first.kind == again.kind == Answer.SC_ERROR
        assert again.tier == "compiled"
        assert str(again.violation) == str(first.violation)
        assert_same_answer(first, again)
        assert m1.calls_seen == m3.calls_seen > 0


class TestHotHandOff:
    """``eval_code`` hands an admitted λ to the native tier only at its
    ``HOT_AFTER``-th entry in the run: a cold run stays interpreted and
    emits nothing, a hand-off mid-loop or mid-recursion is observably
    invisible, and the count is per run, so repeat runs match."""

    COUNT = ("(define (count n) (if (zero? n) (begin (display 'bottom) 0)"
             " (+ 1 (count (- n 1)))))\n(count 20000)\n")
    DOWN = ("(define (down n acc) (if (zero? n) (begin (display acc) acc)"
            " (down (- n 1) (+ acc n))))\n(down 50000 0)\n")
    # up descends in n, then spins at n = 0 (a violation); len is
    # discharged and gets hot on the way down.
    UP = ("(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))\n"
          "(define (up n l) (if (zero? n) (up n l)"
          " (up (- n 1) (cons (len l) l))))\n"
          "(up 10 '())\n")

    def test_cold_run_stays_interpreted_and_emits_nothing(self):
        parsed, result = discharged(
            "(define (f n) (if (zero? n) 1 (f (- n 1))))\n"
            f"(f {native.HOT_AFTER - 2})\n")
        assert result.complete
        skip = frozenset(result.policy.skip_labels)
        for mode, discharge, lams in (
                ("off", None, code_lams(parsed)),
                ("full", result.policy, code_lams(parsed, skip))):
            a = run_program(parsed, mode=mode, machine="native",
                            discharge=discharge)
            assert a.kind == Answer.VALUE and a.value == 1
            assert a.tier == "compiled"
            assert lams
            assert all(lam.native_is_gen is None for lam in lams)

    @pytest.mark.parametrize("policy", ["off", "discharged"])
    @pytest.mark.parametrize("src", ["COUNT", "DOWN"])
    def test_hand_off_mid_loop_matches_other_machines(self, src, policy):
        if src == "COUNT":
            assert 20_000 > sys.getrecursionlimit()
        parsed, result = discharged(getattr(self, src))
        assert result.complete
        answers = run_everywhere(
            parsed, mode="off" if policy == "off" else "full",
            discharge=result.policy if policy == "discharged" else None)
        assert answers["tree"].kind == Answer.VALUE
        assert answers["tree"].output
        assert_all_same(answers)
        assert answers["native"].tier == "native"

    @pytest.mark.parametrize("src", ["COUNT", "DOWN", "UP"])
    def test_repeat_runs_take_identical_steps_and_tier(self, src):
        source = getattr(self, src)

        def run(parsed, result):
            return run_program(parsed, mode="full", machine="native",
                               fuel=3_000_000, discharge=result.policy)

        parsed, result = discharged(source)
        first, second = run(parsed, result), run(parsed, result)
        fresh = run(*discharged(source))
        assert first.tier == "native"
        for other in (second, fresh):
            assert (other.steps, other.tier) == (first.steps, first.tier)
            assert_same_answer(first, other)

    def test_violation_after_helper_gets_hot(self):
        parsed, result = discharged(self.UP)
        assert not result.complete
        skip = frozenset(result.policy.skip_labels)
        lams = {lam.name: lam for lam in code_lams(parsed, skip)}
        assert lams["len"].discharged and not lams["up"].discharged
        answers = {machine: run_program(
            parsed, mode="full", machine=machine, fuel=3_000_000,
            discharge=result.policy) for machine in ("compiled", "native")}
        assert answers["compiled"].kind == Answer.SC_ERROR
        assert answers["native"].tier == "native"
        assert lams["len"].native is not None
        assert str(answers["native"].violation) == \
            str(answers["compiled"].violation)
        assert_same_answer(answers["compiled"], answers["native"])


class TestEmitterRejection:
    """A body the emitter refuses (``_Unsupported``) is rejected at its
    first native entry and runs interpreted, observably unchanged."""

    def test_too_deep_callee_rejected_lazily_from_a_native_frame(self):
        body = "n"
        for i in range(native._MAX_INDENT + 5):
            body = f"(if (= n {i + 1000}) {i} {body})"
        src = (f"(define (deep n) (begin (display n) {body}))\n"
               "(define (outer n) (+ 1 (deep n)))\n"
               "(outer 7)\n")
        parsed = parse_program(src)
        answers = {machine: run_program(parsed, mode="off",
                                        machine=machine, hot_after=1)
                   for machine in ("compiled", "native")}
        assert answers["native"].tier == "native"
        assert_same_answer(answers["compiled"], answers["native"])
        assert write_value(answers["native"].value) == "8"
        assert answers["native"].output == "7"
        lams = {lam.name: lam for lam in code_lams(parsed)}
        deep, outer = lams["deep"], lams["outer"]
        assert deep.native is None and deep.native_is_gen is False
        assert outer.native is not None
