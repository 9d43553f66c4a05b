"""Abstract interpretation (repro.analyze.absint): domains, hazard proofs,
and deep program checking (T2-W204/T2-W205/T2-I301)."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.analyze.absint import (
    AbstractValue,
    HazardProofs,
    Interval,
    abstract_eval,
    analyze_hazards,
    check_program_deep,
    env_from_stats,
)
from repro.analyze.diagnostics import CODES, register_code
from repro.dbms import types as T
from repro.dbms.catalog import stats_for
from repro.dbms.parser import parse_expression
from repro.dbms.relation import RowSet
from repro.dbms.tuples import Schema

NUMS = Schema([("n", "int"), ("x", "float"), ("label", "text")])


def num_rows(count: int) -> RowSet:
    return RowSet.from_dicts(
        NUMS,
        [{"n": i, "x": i * 0.5, "label": f"row{i}"} for i in range(count)],
    )


def ev(source: str, env=None, schema: Schema = NUMS, proofs=None):
    return abstract_eval(
        parse_expression(source, schema), env or {}, schema, proofs
    )


class TestInterval:
    def test_top_and_point(self):
        assert Interval().is_top and not Interval().bounded
        assert Interval.point(3) == Interval(3, 3)
        assert Interval(1, 5).contains(3) and not Interval(1, 5).contains(6)

    def test_join_meet(self):
        assert Interval(0, 2).join(Interval(5, 9)) == Interval(0, 9)
        assert Interval(0, 7).meet(Interval(5, 9)) == Interval(5, 7)

    def test_excludes_zero(self):
        assert Interval(1, 9).excludes_zero()
        assert Interval(-9, -1).excludes_zero()
        assert not Interval(-1, 1).excludes_zero()
        assert not Interval(0, 5).excludes_zero()

    def test_within_exact_int(self):
        assert Interval(-(2**53), 2**53).within_exact_int()
        assert not Interval(0, 2**53 + 1).within_exact_int()


class TestAbstractValue:
    def test_constant(self):
        av = AbstractValue.constant(4)
        assert av.is_const and av.const == 4
        assert av.interval == Interval(4, 4) and av.sign == "+"

    def test_float_constant_cannot_be_nan(self):
        # Stored floats can never be NaN (the type system rejects them);
        # NaN enters only through arithmetic, tracked by ``maybe_nan``.
        av = AbstractValue.constant(2.5)
        assert av.type is T.FLOAT and not av.maybe_nan

    def test_top_by_type(self):
        assert AbstractValue.top(T.INT).maybe_nan is False
        assert AbstractValue.top(T.FLOAT).maybe_nan is True
        assert AbstractValue.top(T.TEXT).interval is None

    def test_sign(self):
        assert AbstractValue(T.FLOAT, Interval(-5, -1)).sign == "-"
        assert AbstractValue(T.INT, Interval(0, 0)).sign == "0"
        assert AbstractValue(T.INT, Interval(-1, 1)).sign == "±"
        assert AbstractValue(T.TEXT).sign == "?"

    def test_contains_soundness_checks(self):
        av = AbstractValue(T.FLOAT, Interval(0, 10))
        assert av.contains(5.0) and not av.contains(11.0)
        assert not av.contains(float("nan"))
        assert not av.contains(None)
        assert AbstractValue(T.FLOAT, Interval(0, 1),
                             maybe_nan=True).contains(float("nan"))

    def test_join_widens_numeric_types(self):
        joined = AbstractValue(T.INT, Interval(0, 5)).join(
            AbstractValue(T.FLOAT, Interval(2, 9))
        )
        assert joined.type is T.FLOAT
        assert joined.interval == Interval(0, 9)


class TestAbstractEval:
    def test_arithmetic_intervals(self):
        env = {"n": AbstractValue(T.INT, Interval(1, 10))}
        assert ev("n + 5", env).interval == Interval(6, 15)
        assert ev("-n", env).interval == Interval(-10, -1)
        assert ev("n * 2", env).interval == Interval(2, 20)

    def test_square_is_never_negative(self):
        env = {"x": AbstractValue(T.FLOAT, Interval(-4, 3))}
        av = ev("x * x", env)
        assert av.interval.lo >= 0 and av.interval.hi == 16
        assert not av.maybe_nan

    def test_division_by_zero_free_divisor(self):
        env = {"n": AbstractValue(T.INT, Interval(2, 4))}
        av = ev("10 / n", env)
        assert av.type is T.FLOAT
        assert av.interval == Interval(2.5, 5.0)

    def test_division_by_possibly_zero_is_top(self):
        env = {"n": AbstractValue(T.INT, Interval(-1, 1))}
        av = ev("10 / n", env)
        assert av.interval.is_top and av.maybe_nan

    def test_comparison_const_folds(self):
        env = {"n": AbstractValue(T.INT, Interval(0, 9))}
        assert ev("n < 100", env).const is True
        assert ev("n > 100", env).const is False
        assert not ev("n < 5", env).is_const

    def test_nan_blocks_always_true_not_always_false(self):
        env = {"x": AbstractValue(T.FLOAT, Interval(0, 9), maybe_nan=True)}
        # NaN < 100 is False at runtime, so "always true" may not be claimed.
        assert not ev("x < 100.0", env).is_const
        # NaN > 100 is also False, so "always false" still holds.
        assert ev("x > 100.0", env).const is False

    def test_conditional_joins_branches(self):
        env = {"n": AbstractValue(T.INT, Interval(0, 9))}
        av = ev("if n < 5 then 1 else 100", env)
        assert av.interval == Interval(1, 100)

    def test_calls(self):
        env = {"x": AbstractValue(T.FLOAT, Interval(4.0, 16.0))}
        assert ev("sqrt(x)", env).interval == Interval(2.0, 4.0)
        assert ev("abs(0.0 - x)", env).interval == Interval(4.0, 16.0)
        assert ev("floor(x)", env).interval == Interval(4, 16)
        assert ev("min(x, 6.0)", env).interval == Interval(4.0, 6.0)
        assert ev("month(d)", schema=Schema([("d", "date")])
                  ).interval == Interval(1, 12)

    def test_structural_proof_without_any_facts(self):
        # y*y + 1 >= 1 with no entry facts at all: typed top is enough.
        proofs = HazardProofs()
        ev("x / (x * x + 1.0)", {}, NUMS, proofs)
        assert len(proofs) == 1
        assert any("div_zero" in note for note in proofs.notes)


class TestHazardProofs:
    def test_div_zero_proof(self):
        env = {"n": AbstractValue(T.INT, Interval(1, 9))}
        proofs = analyze_hazards(parse_expression("10 / n", NUMS), NUMS, env)
        expr = parse_expression("10 / n", NUMS)
        assert len(proofs) >= 1
        assert any("div_zero" in n for n in proofs.notes)

    def test_no_proof_when_divisor_spans_zero(self):
        env = {"n": AbstractValue(T.INT, Interval(-5, 5))}
        proofs = analyze_hazards(parse_expression("10 / n", NUMS), NUMS, env)
        assert not any("div_zero" in n for n in proofs.notes)

    def test_exact_int_proof_for_bounded_division(self):
        env = {"n": AbstractValue(T.INT, Interval(1, 1000))}
        expr = parse_expression("n / 4", NUMS)
        proofs = HazardProofs()
        abstract_eval(expr, env, NUMS, proofs)
        assert proofs.proves(expr, "div_zero")
        assert proofs.proves(expr, "exact_int")

    def test_sqrt_nonneg_proof(self):
        env = {"x": AbstractValue(T.FLOAT, Interval(0.0, 100.0))}
        expr = parse_expression("sqrt(x)", NUMS)
        proofs = HazardProofs()
        abstract_eval(expr, env, NUMS, proofs)
        assert proofs.proves(expr, "sqrt_nonneg")

    def test_no_sqrt_proof_for_possibly_negative(self):
        env = {"x": AbstractValue(T.FLOAT, Interval(-1.0, 100.0))}
        expr = parse_expression("sqrt(x)", NUMS)
        proofs = HazardProofs()
        abstract_eval(expr, env, NUMS, proofs)
        assert not proofs.proves(expr, "sqrt_nonneg")

    def test_dead_conditional_branch_proves_nothing(self):
        # The else branch is statically dead, but the compiler compiles
        # both branches — a dead-branch proof must not elide a live guard.
        env = {
            "n": AbstractValue(T.INT, Interval(0, 9)),
            "x": AbstractValue(T.FLOAT, Interval(1.0, 2.0)),
        }
        expr = parse_expression("if 1 < 2 then x else x / x", NUMS)
        proofs = HazardProofs()
        abstract_eval(expr, env, NUMS, proofs)
        assert len(proofs) == 0


class TestEntryFacts:
    def test_env_from_stats(self):
        rows = num_rows(10)
        env = env_from_stats(stats_for(rows), rows.schema)
        assert env["n"].interval == Interval(0, 9)
        assert env["x"].interval == Interval(0.0, 4.5)
        assert not env["x"].maybe_nan  # observed data had no NaN
        assert env["label"].interval is None

    def test_nan_enters_only_through_arithmetic(self):
        # Stored columns are NaN-free, but dividing by a zero-spanning
        # value taints the result with ``maybe_nan``.
        rows = num_rows(10)
        env = env_from_stats(stats_for(rows), rows.schema)
        assert not env["x"].maybe_nan
        tainted = ev("x / (n - 5)", env)
        assert tainted.maybe_nan

    def test_constant_column(self):
        rows = RowSet.from_dicts(
            NUMS, [{"n": 7, "x": 1.0, "label": "a"}] * 3
        )
        env = env_from_stats(stats_for(rows), rows.schema)
        assert env["n"].is_const and env["n"].const == 7

    def test_stats_memoized_on_and_freed_with_the_row_set(self):
        rows = num_rows(10)
        stats = stats_for(rows)
        assert stats_for(rows) is stats
        assert rows.stats_memo is stats
        # RowSet takes no weak references; a probe hung on one of its
        # memo slots lives exactly as long as the row set does.
        probe = np.zeros(1)
        rows.location_memo = {"probe": probe}
        freed = weakref.ref(probe)
        del rows, stats, probe
        gc.collect()
        assert freed() is None    # computing stats did not pin the rows


class TestDiagnosticCatalog:
    def test_new_codes_registered(self):
        for code in ("T2-W204", "T2-W205", "T2-I301"):
            assert code in CODES
        assert "T2-E112" not in CODES    # retired, never reused

    def test_duplicate_registration_raises(self):
        with pytest.raises(ValueError):
            register_code("T2-W204", "something else")

    def test_info_severity_excluded_from_warnings(self):
        from repro.analyze.diagnostics import Diagnostic, Report

        report = Report([Diagnostic("T2-I301", "proof: note")])
        assert report.ok and not report.warnings()
        assert len(report.infos()) == 1


class TestCheckProgramDeep:
    def _program(self, predicate):
        from repro.dataflow.boxes_db import AddTableBox, RestrictBox
        from repro.dataflow.graph import Program
        from repro.viewer.viewer import ViewerBox

        program = Program("deep")
        source = program.add_box(AddTableBox(table="Stations"))
        restrict = program.add_box(RestrictBox(predicate=predicate))
        viewer = program.add_box(ViewerBox(name="win"))
        program.connect(source, "out", restrict, "in")
        program.connect(restrict, "out", viewer, "in")
        return program

    def test_clean_program(self, stations_db):
        report = check_program_deep(
            self._program("altitude > 50.0"), stations_db
        )
        assert "T2-W204" not in report.codes()
        assert "T2-W205" not in report.codes()

    def test_always_true_predicate_w204(self, stations_db):
        # Every station altitude is >= 7.0.
        report = check_program_deep(
            self._program("altitude > 0.0"), stations_db
        )
        found = report.by_code("T2-W204")
        assert found and "always true" in found[0].message

    def test_always_false_predicate_w204_and_empty_viewer_w205(
        self, stations_db
    ):
        report = check_program_deep(
            self._program("altitude > 10000.0"), stations_db
        )
        assert "T2-W204" in report.codes()
        assert "T2-W205" in report.codes()

    def test_proof_notes_i301(self, stations_db):
        # station_id is in [1, 5], so the division can never trap; the
        # ratio spans 50.0, so the predicate itself is not constant.
        report = check_program_deep(
            self._program("altitude / station_id > 50.0"), stations_db
        )
        notes = report.by_code("T2-I301")
        assert notes and any("div_zero" in d.message for d in notes)
        assert report.ok and not report.warnings()  # notes are not warnings

    def test_refinement_chains_through_restricts(self, stations_db):
        from repro.dataflow.boxes_db import AddTableBox, RestrictBox
        from repro.dataflow.graph import Program
        from repro.viewer.viewer import ViewerBox

        program = Program("chain")
        source = program.add_box(AddTableBox(table="Stations"))
        first = program.add_box(RestrictBox(predicate="altitude > 100.0"))
        second = program.add_box(RestrictBox(predicate="altitude > 50.0"))
        viewer = program.add_box(ViewerBox(name="win"))
        program.connect(source, "out", first, "in")
        program.connect(first, "out", second, "in")
        program.connect(second, "out", viewer, "in")
        report = check_program_deep(program, stations_db)
        # Downstream of "altitude > 100", the second predicate is dead-true.
        found = report.by_code("T2-W204")
        assert found and "always true" in found[0].message

    def test_lint_deep_cli(self, capsys):
        from repro.cli import main

        assert main(["lint", "--deep", "--figure", "fig4", "--json"]) == 0
        out = capsys.readouterr().out
        assert '"diagnostics"' in out
