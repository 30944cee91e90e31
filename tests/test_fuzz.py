"""The fuzz subsystem: generator discipline, differential oracle,
shrinker, and the regression archive format."""

import pytest

from repro.eval.machine import Answer
from repro.fuzz import (
    ALL_FEATURES,
    Divergence,
    archive_divergence,
    default_cells,
    generate_program,
    run_fuzz,
    run_matrix,
    shrink_divergence,
)
from repro.fuzz.gen import WIDE_TABLE, GenProgram
from repro.fuzz.shrink import load_regression, parse_forms, render_forms


class TestGenerator:
    def test_deterministic_by_seed(self):
        for mode in ("terminating", "diverging"):
            a = generate_program(7, mode)
            b = generate_program(7, mode)
            assert a.source == b.source
            assert a.entry == b.entry
            assert a.entry_kinds == b.entry_kinds
            assert a.features == b.features
            assert a.must_verify == b.must_verify
            assert a.must_discharge == b.must_discharge

    def test_seeds_vary(self):
        sources = {generate_program(s, "terminating").source
                   for s in range(20)}
        assert len(sources) > 10

    def test_oracle_flags(self):
        t = generate_program(3, "terminating")
        assert t.must_verify
        d = generate_program(3, "diverging")
        assert not d.must_verify and not d.must_discharge

    def test_feature_restriction(self):
        p = generate_program(5, "terminating", features=())
        assert p.features == ()
        with pytest.raises(ValueError):
            generate_program(0, "terminating", features=("warp",))
        with pytest.raises(ValueError):
            generate_program(0, "sideways")

    def test_features_eventually_all_used(self):
        used = set()
        for s in range(120):
            used |= set(generate_program(s, "terminating").features)
        assert used == set(ALL_FEATURES)


class TestCells:
    def test_full_is_eighteen(self):
        assert len(default_cells("full")) == 18

    def test_quick_covers_axes(self):
        cells = default_cells("quick")
        assert {c[0] for c in cells} == {"tree", "compiled", "native"}
        assert {c[1] for c in cells} == {"bitmask", "reference"}
        assert {c[2] for c in cells} == {"off", "monitored", "discharged"}

    def test_explicit_spec(self):
        assert default_cells("tree:bitmask:off") == [
            ("tree", "bitmask", "off")]
        with pytest.raises(ValueError):
            default_cells("tree:bitmask")
        with pytest.raises(ValueError):
            default_cells("tree:warp:off")


class TestMatrixOracle:
    def test_terminating_program_clean(self):
        program = generate_program(0, "terminating")
        result = run_matrix(program)
        assert result.divergences == []
        assert all(r.kind == Answer.VALUE for r in result.cells)

    def test_diverging_program_clean(self):
        program = generate_program(1, "diverging")
        result = run_matrix(program)
        assert result.divergences == []
        off = [r for r in result.cells if r.cell[2] == "off"]
        assert off and all(r.kind == Answer.TIMEOUT for r in off)
        assert set(result.verdicts.values()) == {"unknown"}

    def test_parse_error_is_a_divergence(self):
        program = GenProgram(seed=0, mode="terminating", source="(((",
                             entry="f", entry_kinds=("nat",), features=(),
                             must_verify=False, must_discharge=False,
                             fuel=1000)
        result = run_matrix(program)
        assert [d.klass for d in result.divergences] == ["parse-error"]

    def test_oracle_catches_lying_mode(self):
        """A terminating program labelled 'diverging' must trip the
        diverging-side oracle checks — this is the self-test that the
        differential harness actually looks at its observables."""
        program = _lying_diverging()
        result = run_matrix(program)
        classes = {d.klass for d in result.divergences}
        assert "diverging-survived" in classes
        assert "diverging-verified" in classes


def _lying_diverging() -> GenProgram:
    return GenProgram(
        seed=99, mode="diverging",
        source="(define (f n)\n  (if (zero? n) 0 (f (- n 1))))\n(f 3)\n",
        entry="f", entry_kinds=("nat",), features=(),
        must_verify=False, must_discharge=False, fuel=50_000)


class TestWideTable:
    """The opt-in wide-table feature keeps more than 64 monitored λs live
    around every cycle call, so the cm table spills and merges."""

    POOL = ALL_FEATURES + (WIDE_TABLE,)

    def test_adds_wide_chains_to_the_default_program(self):
        for s in range(6):
            for mode in ("terminating", "diverging"):
                plain = generate_program(s, mode)
                wide = generate_program(s, mode, features=self.POOL)
                assert WIDE_TABLE not in plain.features
                assert set(wide.features) == \
                    set(plain.features) | {WIDE_TABLE}
                assert (wide.entry, wide.entry_kinds, wide.fuel) == \
                    (plain.entry, plain.entry_kinds, plain.fuel)
                assert "(define (wide0 k d t)" in wide.source
                assert not wide.must_verify and not wide.must_discharge

    def test_runs_the_spill_path_and_stays_clean(self):
        from unittest import mock

        from repro.eval import machine

        put = machine._table_put
        widest = []

        def spy(table, fn, entry):
            table = put(table, fn, entry)
            top, older = table
            widest.append((1 + len(older), len(top) + sum(map(len, older))))
            return table

        for mode, kind in (("terminating", Answer.VALUE),
                           ("diverging", Answer.SC_ERROR)):
            program = generate_program(1, mode, features=self.POOL)
            widest.clear()
            with mock.patch.object(machine, "_table_put", spy):
                result = run_matrix(program)
            assert result.divergences == []
            monitored = [r for r in result.cells if r.cell[2] == "monitored"]
            assert {r.kind for r in monitored} == {kind}
            chunks, entries = max(widest)
            assert chunks >= 2 and entries > 64

    def test_campaign_adds_wide_copies_of_seeds_six_and_seven_mod_eight(
            self):
        report = run_fuzz(4, seed=6, mode="both", matrix="quick",
                          shrink=False)
        assert report.divergences == []
        # Seeds 6..9 run as plain programs; 6 and 7 run a wide copy on
        # top, so both plain terminating programs (6, 8) must verify.
        assert (report.programs, report.wide) == (4, 2)
        assert report.verify_expected == report.by_mode["terminating"] == 2
        assert report.verified == 2

    def test_explicit_features_are_kept_as_given(self):
        plain = run_fuzz(2, seed=6, mode="terminating", matrix="quick",
                         features=("accumulators",), shrink=False)
        assert (plain.programs, plain.wide, plain.verify_expected) == \
            (2, 0, 2)
        wide = run_fuzz(1, seed=0, mode="terminating", matrix="quick",
                        features=(WIDE_TABLE,), shrink=False)
        assert (wide.programs, wide.wide, wide.verify_expected) == (1, 0, 0)
        assert wide.divergences == []


class TestFuzzCampaign:
    def test_small_campaign_clean(self):
        report = run_fuzz(8, seed=0, mode="both", matrix="quick",
                          shrink=False)
        assert report.programs == 8
        assert report.by_mode == {"terminating": 4, "diverging": 4}
        assert report.wide == 2
        assert report.divergences == []
        assert report.verify_expected == report.by_mode["terminating"]
        assert report.verified == report.verify_expected
        assert report.discharged == report.discharge_expected

    def test_report_json_schema(self):
        report = run_fuzz(2, seed=0, matrix="quick", shrink=False)
        payload = report.to_json()
        assert payload["schema"] == "sized-fuzz/v1"
        assert payload["programs"] == 2
        assert payload["divergences_found"] == 0
        assert "programs_per_sec" in payload

    def test_native_cells_report_native_runs(self):
        # Native cells run with hot_after=1, so short generated programs
        # still execute emitted code; monitored cells admit no λ.
        report = run_fuzz(4, seed=0, mode="terminating", matrix="quick",
                          shrink=False)
        entered = report.to_json()["native_entered"]
        assert set(entered) == {"native:bitmask:off",
                                "native:bitmask:monitored",
                                "native:bitmask:discharged"}
        assert entered["native:bitmask:off"] == 4
        assert entered["native:bitmask:discharged"] > 0
        assert entered["native:bitmask:monitored"] == 0

    def test_cli_fails_when_a_native_cell_never_enters(self, capsys):
        from repro.cli import main

        # No programs: the off cell never runs a native frame.
        assert main(["fuzz", "--n", "0", "--matrix",
                     "native:bitmask:off"]) == 1
        assert "never entered" in capsys.readouterr().err
        assert main(["fuzz", "--n", "2", "--mode", "terminating",
                     "--matrix", "native:bitmask:off,"
                     "native:bitmask:monitored"]) == 0


class TestShrinker:
    def test_forms_round_trip(self):
        text = "(define (f n)\n  (if (zero? n) 0 (f (- n 1))))\n(f 3)\n"
        assert parse_forms(render_forms(parse_forms(text))) == \
            parse_forms(text)

    def test_shrinks_synthetic_divergence(self):
        cells = default_cells("quick")
        program = _lying_diverging()
        result = run_matrix(program, cells=cells)
        div = next(d for d in result.divergences
                   if d.klass == "diverging-survived")
        shrunk = shrink_divergence(div, cells=cells, max_attempts=40)
        assert len(shrunk) <= len(program.source)
        # The minimized repro still exhibits the class.
        replay = GenProgram(seed=program.seed, mode=program.mode,
                            source=shrunk, entry=program.entry,
                            entry_kinds=program.entry_kinds, features=(),
                            must_verify=False, must_discharge=False,
                            fuel=program.fuel)
        again = run_matrix(replay, cells=cells)
        assert any(d.klass == "diverging-survived"
                   for d in again.divergences)

    def test_archive_round_trip(self, tmp_path):
        program = _lying_diverging()
        div = Divergence("diverging-survived", "synthetic: terminates",
                        program)
        path = archive_divergence(div, directory=str(tmp_path))
        loaded = load_regression(path)
        assert loaded.mode == program.mode
        assert loaded.entry == program.entry
        assert loaded.entry_kinds == program.entry_kinds
        assert loaded.fuel == program.fuel
        assert loaded.must_verify == program.must_verify
        assert parse_forms(loaded.source) == parse_forms(program.source)
