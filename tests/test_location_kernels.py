"""Differential tests: compiled location columns against ``location_of``.

``repro.render.scene.location_columns`` computes a relation's computed
location attributes with numpy kernels compiled from their expressions,
and falls back to the per-tuple ``location_of`` loop when it cannot vouch
for the exact values.  Every case here compares the columns with the
per-tuple reference (tests/cull_reference.py): equal float64 arrays, or
the same ``EvaluationError`` message.  Spies on ``location_of`` pin which
path ran.  The integer-overflow cases also cover the compiled Restrict
kernel against the row backend (tests/row_reference.py).
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
import pytest

import repro.render.scene as scene
from cull_reference import reference_location_columns
from repro.core.scenarios import FIGURES
from repro.data.weather import build_weather_database
from repro.dataflow.boxes_db import AddTableBox, RestrictBox
from repro.dataflow.engine import Engine
from repro.dataflow.graph import Program
from repro.dbms.catalog import Database
from repro.dbms.parser import parse_expression
from repro.dbms.relation import Method, Table
from repro.dbms.tuples import Schema
from repro.display.defaults import default_displayable
from repro.display.displayable import (
    Composite,
    DisplayableRelation,
    Group,
)
from repro.errors import EvaluationError
from row_reference import row_backend

SCHEMA = Schema([("i", "int"), ("f", "float"), ("d", "date"),
                 ("big", "int")])

BASE_ROWS = [
    (0, 0.0, "1985-01-01", 0),
    (3, 2.5, "1988-02-29", 1),
    (-7, -1.25, "2000-12-31", -5),
    (12, 1e10, "1999-12-31", 2 ** 40),
    (5, 0.1, "2000-03-01", 17),
    (1, -0.0, "2004-02-29", -(2 ** 20)),
]


def table_of(rows, name="T"):
    table = Table(name, SCHEMA)
    table.insert_many(rows)
    return table


def relation_of(rows, x="f", y="i", methods=(), x_type="float",
                y_type="float"):
    """A displayable over ``rows`` with ``methods`` (name, type, source)
    defined before location methods ``x`` and ``y``."""
    relation = default_displayable(table_of(rows))
    for name, atomic, source in methods:
        relation = relation.with_method_added(
            Method(name, atomic, parse_expression(source)))
    for name, atomic, source in (("x", x_type, x), ("y", y_type, y)):
        relation = relation.with_method_added(
            Method(name, atomic, parse_expression(source)))
    return relation


def outcome(compute):
    try:
        return compute()
    except EvaluationError as exc:
        return f"EvaluationError: {exc}"


@contextmanager
def counting_location_of():
    """Count ``location_of`` calls (the per-tuple path) in the block."""
    calls = []
    original = DisplayableRelation.location_of

    def spy(self, view):
        calls.append(view)
        return original(self, view)

    DisplayableRelation.location_of = spy
    try:
        yield calls
    finally:
        DisplayableRelation.location_of = original


def assert_matches_reference(relation, compiled=True):
    """``location_columns`` equals the per-tuple reference; ``compiled``
    says whether it must have got there without ``location_of``."""
    relation.rows.location_memo = None
    with counting_location_of() as calls:
        got = outcome(lambda: scene.location_columns(relation))
    assert (not calls) == compiled, f"{len(calls)} location_of calls"
    expected = outcome(lambda: reference_location_columns(relation))
    if isinstance(expected, str):
        assert got == expected
        return
    assert not isinstance(got, str), got
    assert len(got) == len(expected) == relation.dimension
    for column, reference in zip(got, expected):
        assert column.dtype == np.float64
        assert np.array_equal(column, reference)


# ---------------------------------------------------------------------------
# The paper figures
# ---------------------------------------------------------------------------


def relations_in(displayable):
    if isinstance(displayable, DisplayableRelation):
        yield displayable
    elif isinstance(displayable, Composite):
        for entry in displayable.entries:
            yield entry.relation
    elif isinstance(displayable, Group):
        for __, composite in displayable:
            yield from relations_in(composite)


@pytest.fixture(scope="module")
def weather_db():
    return build_weather_database(extra_stations=10, every_days=60)


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_figure_location_columns_match_location_of(weather_db, figure):
    scenario = FIGURES[figure](weather_db)
    relations = [relation
                 for window in scenario.session.windows.values()
                 for relation in relations_in(window.viewer.displayable())]
    assert relations
    for relation in relations:
        # Every figure's computed locations compile: none needs location_of.
        assert_matches_reference(relation, compiled=True)


def test_series_render_after_update_never_calls_location_of(weather_db):
    scenario = FIGURES["fig8"](weather_db)
    window = scenario.session.windows["tempseries"]
    window.viewer.render()
    observations = weather_db.table("Observations")
    row = next(iter(observations))
    observations.replace_row(row, row.replace(temperature=61.5))
    with counting_location_of() as calls:
        result = window.viewer.render()
    assert calls == []
    assert result.stats.tuples_considered > 1000


# ---------------------------------------------------------------------------
# Generated cases
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("x, x_type", [
    ("i * 3 + 7 - i % 5", "int"),
    ("-i + abs(big) - floor(f / 4.0)", "int"),
    ("round(f) + ceil(f * 0.3)", "int"),
    ("max(i, 2, big) - min(i, 0)", "int"),
    ("if i > 2 then i * i else 0 - i", "int"),
    ("f * 0.5 + i", "float"),
    ("i / 4", "float"),
    ("f / 3.0 - big * 0.25", "float"),
    ("sqrt(abs(f)) + min(f, 1.5)", "float"),
    ("i", "float"),
])
def test_arithmetic_compiles_exactly(x, x_type):
    assert_matches_reference(relation_of(BASE_ROWS, x=x, x_type=x_type))


def test_division_by_zero_raises_the_row_error():
    # The kernel's guard sends the batch to the per-tuple loop, which
    # raises the row backend's message at the first failing tuple.
    assert_matches_reference(relation_of(BASE_ROWS, x="f / i"),
                             compiled=False)
    assert_matches_reference(relation_of(BASE_ROWS, y="i % (i - 3)"),
                             compiled=False)


def test_float_nan_result_raises_the_row_error():
    rows = BASE_ROWS + [(2, math.inf, "2001-01-01", 0)]
    relation = relation_of(rows, x="f - f")
    assert_matches_reference(relation, compiled=False)
    with pytest.raises(EvaluationError, match="wrong type"):
        scene.location_columns(relation)


def test_int_method_with_float_result_stays_per_tuple():
    non_integral = relation_of(BASE_ROWS, x="f * 2.0", x_type="int")
    assert_matches_reference(non_integral, compiled=False)
    rows = [(n, float(n), "2000-01-01", n) for n in range(6)]
    integral = relation_of(rows, x="f * 2.0", x_type="int")
    assert_matches_reference(integral, compiled=False)


def test_float_overflow_to_inf_compiles():
    rows = BASE_ROWS + [(2, 1e308, "2001-01-01", 0),
                        (2, -1e308, "2001-01-02", 0)]
    relation = relation_of(rows, x="f * 2.0")
    assert_matches_reference(relation)
    assert scene.location_columns(relation)[0][6:].tolist() == \
        [math.inf, -math.inf]


@pytest.mark.parametrize("x", ["big * big", "big + big", "big - (0 - big)",
                               "-big", "abs(big)"])
def test_int_overflow_falls_back_to_exact_python_ints(x):
    # 2**62 doubles or squares past int64; int64's minimum has no negation.
    rows = BASE_ROWS + [(1, 1.0, "2001-01-01", 2 ** 62),
                        (1, 1.0, "2001-01-02", -(2 ** 63))]
    assert_matches_reference(relation_of(rows, x=x), compiled=False)


def test_int_square_overflow_location():
    # v * v wraps to 0 in int64 for v = 2**40; Python computes 2**80.
    rows = [(n, 0.0, "2000-01-01", 2 ** 40 if n % 2 else n)
            for n in range(400)]
    relation = relation_of(rows, x="big * big", x_type="float")
    assert_matches_reference(relation, compiled=False)
    assert scene.location_columns(relation)[0][1] == float(2 ** 80)


def restrict_both(rows, predicate):
    """``predicate`` over ``rows`` on the default path and on the row
    backend."""
    db = Database("restrict")
    db.add_table(table_of(rows, name="V"))
    program = Program("restrict")
    source = program.add_box(AddTableBox(table="V"))
    keep = program.add_box(RestrictBox(predicate=predicate))
    program.connect(source, "out", keep, "in")
    with row_backend():
        reference = list(Engine(program, db, cache=False)
                         .output_of(keep, "out").rows.force())
    default = list(Engine(program, db, cache=False)
                   .output_of(keep, "out").rows.force())
    return default, reference


def test_int_square_overflow_restrict_matches_row_backend():
    default, reference = restrict_both(
        [(n, 0.0, "2000-01-01", 2 ** 40 if n % 2 else n) for n in range(400)],
        "big * big > 0")
    assert len(reference) == 399
    assert default == reference


def test_float_overflow_restrict_is_silent():
    # inf from 1e308 * 2.0, as in Python; the warning filter would turn a
    # numpy overflow warning into an error here.
    default, reference = restrict_both(
        BASE_ROWS + [(2, 1e308, "2001-01-01", 0)], "f * 2.0 > 1e308")
    assert len(reference) == 1
    assert default == reference


def test_rounding_beyond_int64_falls_back():
    rows = BASE_ROWS + [(1, 1e300, "2001-01-01", 0)]
    assert_matches_reference(relation_of(rows, x="floor(f)", x_type="int"),
                             compiled=False)
    rows = BASE_ROWS + [(1, math.inf, "2001-01-01", 0)]
    assert_matches_reference(relation_of(rows, x="round(f)", x_type="int"),
                             compiled=False)


def test_min_max_over_nan_follow_python_argument_order():
    rows = BASE_ROWS + [(2, math.inf, "2001-01-01", 0)]
    for x in ("min(f - f, 1.0)", "min(1.0, f - f)", "max(0.5, f - f)",
              # Python picks 1.0 here; np.minimum's NaN would pick 2.0.
              "if min(1.0, f - f) > 0.5 then 1.0 else 2.0"):
        assert_matches_reference(relation_of(rows, x=x), compiled=False)


def test_mixed_int_float_branches_stay_per_tuple():
    # Python keeps the int branch's exact value; numpy would promote it.
    rows = BASE_ROWS + [(1, 0.5, "2001-01-01", 2 ** 53 + 1)]
    relation = relation_of(rows, x="(if i > 0 then big else f) - big")
    assert_matches_reference(relation, compiled=False)


@pytest.mark.parametrize("part", ["year", "month", "day", "day_of_year"])
def test_date_parts_across_leap_years(part):
    relation = relation_of(BASE_ROWS, x=f"{part}(d) * 1.5", y=f"{part}(d)",
                           y_type="int")
    assert_matches_reference(relation)
    values = scene.location_columns(relation)[1].tolist()
    expected = {"year": [1985, 1988, 2000, 1999, 2000, 2004],
                "month": [1, 2, 12, 12, 3, 2],
                "day": [1, 29, 31, 31, 1, 29],
                "day_of_year": [1, 60, 366, 365, 61, 60]}[part]
    assert values == [float(v) for v in expected]


def test_method_reading_another_method():
    relation = relation_of(
        BASE_ROWS, x="scaled + f", y="doubled * 2",
        methods=[("doubled", "int", "i * 2"),
                 ("scaled", "float", "doubled * 0.5 + year(d)")],
        y_type="int")
    assert_matches_reference(relation)


def test_method_reading_an_uncompilable_method_stays_per_tuple():
    relation = relation_of(BASE_ROWS, x="wave + 1.0",
                           methods=[("wave", "float", "sin(f)")])
    assert_matches_reference(relation, compiled=False)


def test_python_callable_method_stays_per_tuple():
    relation = relation_of(BASE_ROWS).with_method_replaced(
        Method("x", "float", lambda row: row["f"] * 2.0, depends=["f"]))
    assert_matches_reference(relation, compiled=False)


def test_sequence_number_stays_per_tuple():
    relation = relation_of(BASE_ROWS, y="tioga_seq * 1.5 + i")
    assert_matches_reference(relation, compiled=False)


def test_computed_slider_dimension():
    relation = relation_of(BASE_ROWS, x="f * 2.0").with_method_added(
        Method("level", "float", parse_expression("f + i"))
    ).with_slider_added("level")
    assert relation.dimension == 3
    assert_matches_reference(relation)


def test_default_location_with_computed_slider():
    relation = default_displayable(table_of(BASE_ROWS)).with_method_added(
        Method("level", "int", parse_expression("day_of_year(d) - i"))
    ).with_slider_added("level")
    assert_matches_reference(relation)


def test_empty_relation():
    assert_matches_reference(relation_of([], x="f * 2.0 + year(d)"))


def test_constant_location():
    assert_matches_reference(relation_of(BASE_ROWS, x="2.5", y="4"))

