"""Satellite: the pinned aggregate semantics, identical on both backends.

The contract lives next to ``AGGREGATES`` in repro.dbms.plan: ``count`` and
``sum`` of an empty group are 0; ``avg``/``min``/``max`` over an empty
group raise (the type system has no NULL); ``sum``/``avg`` fold
left-to-right in input order.  These tests lock the contract directly on
the aggregate table and then assert the row and columnar GroupBy operators
can never diverge on it.
"""

from __future__ import annotations

import math

import pytest

from repro.dbms import plan as P
from repro.dbms.plan_rewrite import columnarize_plan
from repro.dbms.relation import RowSet
from repro.dbms.tuples import Schema
from repro.errors import EvaluationError, TypeCheckError

OBS = Schema([("station", "text"), ("temp", "float"), ("reading", "int")])


def obs_rows(dicts) -> RowSet:
    return RowSet.from_dicts(OBS, dicts)


def both_backends(rows: RowSet, keys, aggregations):
    """Run one GroupBy spec on the row and the columnar backend.

    The columnar tree is built directly (not via ``columnarize_plan``) so
    the agreement holds even for specs auto-selection would decline — e.g.
    text keys, which the kernel handles through its row-fallback path.
    """
    row_node = P.GroupByNode(P.ScanNode(rows, name="Obs"), keys, aggregations)
    col_root = P.ToRowsNode(
        P.ColumnarGroupByNode(
            P.ToColumnsNode(P.ScanNode(rows, name="Obs")),
            keys, aggregations,
        )
    )
    return (
        [r.values for r in row_node.execute()],
        [r.values for r in col_root.execute()],
    )


class TestEmptyGroupContract:
    """The pinned table itself: count/sum -> 0, the rest raise."""

    def test_count_of_empty_is_zero(self):
        assert P.AGGREGATES["count"]([]) == 0

    def test_sum_of_empty_is_additive_identity(self):
        assert P.AGGREGATES["sum"]([]) == 0

    @pytest.mark.parametrize("agg", ["avg", "min", "max"])
    def test_order_statistics_over_empty_raise(self, agg):
        with pytest.raises(EvaluationError, match=f"{agg} over an empty group"):
            P.AGGREGATES[agg]([])

    def test_sum_folds_left_to_right(self):
        # 1e16 + 1 is absorbed; the fold order is part of the contract, so
        # both backends must reproduce exactly this value (not a pairwise
        # reduction, which would keep the 1.0).
        values = [1e16, 1.0, 1.0, -1e16]
        expected = ((1e16 + 1.0) + 1.0) + -1e16
        assert P.AGGREGATES["sum"](values) == expected


class TestBackendsAgree:
    def test_empty_input_yields_no_groups_on_either_backend(self):
        row, col = both_backends(
            obs_rows([]), ["station"],
            [("avg", "temp", "avg_temp"), ("count", "reading", "n")],
        )
        assert row == [] and col == []

    def test_all_aggregates_agree_with_group_order(self):
        rows = obs_rows([
            {"station": s, "temp": t, "reading": r}
            for s, t, r in [
                ("NO", 21.5, 3), ("BR", 18.25, 1), ("NO", -3.5, 7),
                ("SL", 0.0, 0), ("BR", 18.25, 5), ("NO", 40.125, 2),
            ]
        ])
        aggregations = [
            ("count", "reading", "n"),
            ("sum", "temp", "total"),
            ("avg", "temp", "mean"),
            ("min", "reading", "lo"),
            ("max", "reading", "hi"),
        ]
        row, col = both_backends(rows, ["station"], aggregations)
        assert row == col
        # Group order is first appearance, same as the serial dict fold.
        assert [values[0] for values in row] == ["NO", "BR", "SL"]

    def test_float_sum_matches_serial_fold_exactly(self):
        # Values chosen so a pairwise/permuted reduction gives a different
        # IEEE result than the serial left fold.
        rows = obs_rows([
            {"station": "A", "temp": t, "reading": i}
            for i, t in enumerate([1e16, 1.0, 1.0, -1e16, 0.1, 0.2])
        ])
        row, col = both_backends(
            rows, ["station"], [("sum", "temp", "total"),
                                ("avg", "temp", "mean")])
        assert row == col
        total = row[0][1]
        assert total == ((((1e16 + 1.0) + 1.0) + -1e16) + 0.1) + 0.2

    def test_signed_zero_keys_group_together(self):
        # -0.0 == 0.0: one group on both backends, first-appearance ordered.
        rows = obs_rows([
            {"station": "A", "temp": -0.0, "reading": 1},
            {"station": "B", "temp": 0.0, "reading": 2},
        ])
        row, col = both_backends(rows, ["temp"], [("count", "reading", "n")])
        assert row == col
        assert [values[1] for values in row] == [2]

    def test_nan_free_domain_is_assumed(self):
        # Tuple validation rejects NaN-free invariants elsewhere; aggregates
        # simply propagate IEEE semantics identically on both backends.
        rows = obs_rows([
            {"station": "A", "temp": math.inf, "reading": 1},
            {"station": "A", "temp": 1.0, "reading": 2},
        ])
        row, col = both_backends(rows, ["station"],
                                 [("sum", "temp", "total"),
                                  ("max", "reading", "hi")])
        assert row == col
        assert row[0][1] == math.inf


class TestSpecValidationShared:
    """Both operators derive their output schema from one helper."""

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(EvaluationError, match="unknown aggregate"):
            P._groupby_output_schema(OBS, ["station"],
                                     [("median", "temp", "m")])

    def test_sum_requires_numeric(self):
        with pytest.raises(TypeCheckError, match="requires a numeric field"):
            P._groupby_output_schema(OBS, [], [("sum", "station", "s")])

    def test_columnar_node_uses_the_same_schema(self):
        rows = obs_rows([{"station": "A", "temp": 1.0, "reading": 1}])
        keys, aggs = ["station"], [("avg", "temp", "mean"),
                                   ("count", "reading", "n")]
        row_node = P.GroupByNode(P.ScanNode(rows), keys, aggs)
        col_root, __ = columnarize_plan(
            P.GroupByNode(P.ScanNode(rows), keys, aggs))
        assert col_root.schema == row_node.schema
