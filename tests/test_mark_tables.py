"""The mark-table renderer against the per-tuple reference loop.

Every display built from the mark constructors compiles to a mark table
(``repro.display.marks``) that the scene culls, paints and lists as
arrays; ``reference_culling(cull_plans=True)`` from
``tests/cull_reference.py`` renders the same frame tuple by tuple.  Each
comparison here takes PNG bytes, SVG documents, display lists (every
``RenderedItem`` field, rows by identity), ``SceneStats.to_dict()``, cull
nodes and draw ops, over:

- replayed ``map_explore``, ``series_update`` and ``scatter_deep`` views;
- every window of all seven figures;
- seeded generated displays mixing slots, offsets, units and colours, with
  overlapping marks of different colours, culled and not.

Error parity: a display whose columns hold a value a drawable constructor
rejects is rendered by the per-tuple loop, so ``Session.execute`` returns
the same ``T2-E5xx`` code and message either way.
"""

from __future__ import annotations

import gc
import random
import weakref
from contextlib import nullcontext

import numpy as np
import pytest

from cull_reference import reference_culling

from repro.core.scenarios import FIGURES
from repro.data.weather import build_weather_database
from repro.data.workloads import build_points_table
from repro.dbms import update
from repro.dbms.columnar import BatchRows
from repro.dbms.parser import parse_expression
from repro.dbms.relation import Method, RowSet
from repro.dbms.tuples import Schema
from repro.display.displayable import DisplayableRelation
from repro.display.marks import mark_table
from repro.obs.trace import Tracer, push_tracer
from repro.protocol import ErrorReply, Render
from repro.render.canvas import Canvas
from repro.render.scene import SceneStats, ViewState, render_composite
from repro.render.svg import SvgCanvas, render_svg
from repro.ui.session import Session

#: Louisiana stations are ids 1..18; the series canvas bands them by id.
LA_STATIONS = 18


def small_db():
    return build_weather_database(extra_stations=10, every_days=60)


def path(reference: bool):
    return reference_culling(cull_plans=True) if reference else nullcontext()


def item_fields(item) -> tuple:
    """Every field of a display-list item, the drawable by its attributes."""
    return (item.bbox, item.relation_name, item.source_table,
            item.row.values, item.tuple_index, item.drawable_kind,
            type(item.drawable), vars(item.drawable))


def assert_same_items(items, reference) -> None:
    assert len(items) == len(reference)
    for item, expected in zip(items, reference):
        assert item_fields(item) == item_fields(expected)
        assert item.row is expected.row


def session_frame(session: Session, window: str, reference: bool) -> dict:
    """One rendered frame of a window, through the viewer or the reference
    loop."""
    viewer = session.window(window).viewer
    tracer = Tracer()
    with path(reference), push_tracer(tracer):
        reply = session.render_frame(window, format="png")
        result = viewer.last_result
        svg = render_svg(viewer).svg_document()
    return {
        "png": reply.data_bytes(),
        "svg": svg,
        "items": result.all_items(),
        "stats": result.stats.to_dict(),
        "cull_plans": list(result.stats.cull_plans),
        "draw_ops": (reply.draw_ops, result.canvas.draw_ops),
        "batched": [span.attrs["batched"]
                    for span in tracer.finished("render.draw")],
    }


def assert_same_frame(frame: dict, reference: dict) -> None:
    assert frame["png"] == reference["png"]
    for key in ("svg", "stats", "cull_plans", "draw_ops"):
        assert frame[key] == reference[key], key
    assert_same_items(frame["items"], reference["items"])
    assert not reference["batched"]


# ---------------------------------------------------------------------------
# Replayed bench views
# ---------------------------------------------------------------------------


def explore_views(rng: random.Random, program: str):
    """``map_explore``-style views: Louisiana pans, elevations 1-12, and an
    Altitude slider window (fig8 shows every altitude)."""
    for __ in range(8):
        if program == "fig8":
            slider = (0.0, 10_000.0)
        else:
            low = rng.uniform(0.0, 150.0)
            slider = (low, low + rng.uniform(50.0, 300.0))
        yield (rng.uniform(-94.0, -89.0), rng.uniform(29.0, 33.0),
               rng.uniform(1.0, 12.0), slider)


@pytest.mark.parametrize("program,window", [
    ("fig4", "stations"), ("fig7", "map"), ("fig8", "map")])
def test_map_explore_views(program, window):
    session = FIGURES[program](small_db()).session
    compiled = 0
    for cx, cy, elevation, slider in explore_views(random.Random(program),
                                                   program):
        session.pan_to(window, cx, cy)
        session.set_elevation(window, elevation)
        session.set_slider(window, "Altitude", *slider)
        frame = session_frame(session, window, False)
        assert_same_frame(frame, session_frame(session, window, True))
        compiled += sum(frame["batched"])
    assert compiled


def test_series_update_views():
    db = small_db()
    rng = random.Random(11)
    session = FIGURES["fig8"](db).session
    observations = db.table("Observations")
    for __ in range(3):
        for __ in range(2):
            session.pan_to("tempseries", rng.uniform(0.0, 401.0),
                           rng.randint(1, LA_STATIONS) * 60.0
                           + rng.uniform(0.0, 50.0))
            session.set_elevation("tempseries", rng.uniform(80.0, 200.0))
            assert_same_frame(session_frame(session, "tempseries", False),
                              session_frame(session, "tempseries", True))
        rows = [row for row in observations
                if row["station_id"] <= LA_STATIONS]
        result = update.generic_update(
            observations, rows[rng.randrange(len(rows))],
            update.ScriptedDialog(
                {"temperature": str(round(rng.uniform(40.0, 89.0), 1))}))
        assert result.applied
        assert_same_frame(session_frame(session, "tempseries", False),
                          session_frame(session, "tempseries", True))


@pytest.fixture(scope="module")
def points_db():
    db = small_db()
    db.add_table(build_points_table("Points", 5_000, 3))
    return db


@pytest.mark.parametrize("display", [
    "filled_circle(2, 'blue')",
    "combine(filled_circle(2), offset(text_of(point_id), 0, -6))",
])
def test_scatter_deep_views(points_db, display):
    session = Session(points_db, "scatter")
    tail = session.add_table("Points")
    for name, definition in (("x", "x_pos"), ("y", "y_pos"),
                             ("display", display)):
        box = session.add_box("SetAttribute",
                              {"name": name, "definition": definition})
        session.connect(tail, "out", box, "in")
        tail = box
    slider = session.add_box("AddAttribute", {
        "name": "value_dim", "definition": "value", "location": True})
    session.connect(tail, "out", slider, "in")
    session.add_viewer(slider, name="scatter", width=320, height=240)
    rng = random.Random(5)
    for elevation in (30.0, 80.0, 400.0, 1500.0):
        low = rng.uniform(0.0, 60.0)
        session.pan_to("scatter", rng.uniform(-450.0, 450.0),
                       rng.uniform(-450.0, 450.0))
        session.set_elevation("scatter", elevation)
        session.set_slider("scatter", "value_dim", low,
                           low + rng.uniform(20.0, 40.0))
        frame = session_frame(session, "scatter", False)
        assert frame["batched"] and all(frame["batched"])
        assert_same_frame(frame, session_frame(session, "scatter", True))


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_figures(figure):
    session = FIGURES[figure](small_db()).session
    for name in sorted(session.windows):
        assert_same_frame(session_frame(session, name, False),
                          session_frame(session, name, True))


# ---------------------------------------------------------------------------
# Generated displays
# ---------------------------------------------------------------------------

SCHEMA = Schema([("label", "text"), ("tint", "text"), ("px", "float"),
                 ("py", "float"), ("n", "int"), ("level", "float")])
TINTS = ("red", "green", "blue", "orange", "Black")


def generated_rows(rng: random.Random, count: int) -> RowSet:
    """Points clustered so marks of different colours overlap."""
    return RowSet.from_dicts(SCHEMA, [
        {"label": rng.choice(["a", "Bb", "c c", "é☃", ""]) + str(i % 7),
         "tint": rng.choice(TINTS),
         "px": rng.gauss(0.0, 12.0), "py": rng.gauss(0.0, 9.0),
         "n": rng.randint(-3, 40), "level": rng.uniform(0.0, 6.0)}
        for i in range(count)])


def number(rng: random.Random, positive: bool = True) -> str:
    """A numeric argument: a literal, a field or arithmetic over fields."""
    choices = ["3", "1.5", "0", "level", "n % 5", "level * 0.5 + 1",
               "abs(n) / 4"]
    if not positive:
        choices += ["-4", "px / 10", "0 - level", "n - 10"]
    return rng.choice(choices)


def color(rng: random.Random) -> str:
    return rng.choice(["'red'", "'blue'", "'green'", "tint", "'darkgray'"])


def drawables(rng: random.Random, depth: int = 0) -> str:
    """A random display over the mark constructors."""
    leaves = [
        lambda: "point()" if rng.random() < 0.5 else f"point({color(rng)})",
        lambda: f"circle({number(rng)}, {color(rng)})",
        lambda: f"filled_circle({number(rng)}, {color(rng)})",
        lambda: f"rect({number(rng)}, {number(rng)}, {color(rng)})",
        lambda: f"filled_rect({number(rng)}, {number(rng)})",
        lambda: f"line_to({number(rng, False)}, {number(rng, False)}, "
                f"{color(rng)})",
        lambda: f"text_of({rng.choice(['label', 'n', 'level', 'px'])}, "
                f"{color(rng)})",
        lambda: "nothing()",
    ]
    if depth >= 2 or rng.random() < 0.4:
        return rng.choice(leaves)()
    kind = rng.random()
    if kind < 0.45:
        parts = [drawables(rng, depth + 1) for __ in range(rng.randint(2, 3))]
        return f"combine({', '.join(parts)})"
    if kind < 0.8:
        return (f"offset({drawables(rng, depth + 1)}, "
                f"{number(rng, False)}, {number(rng, False)})")
    return f"recolor({drawables(rng, depth + 1)}, {color(rng)})"


def generated_relation(rows: RowSet, display: str) -> DisplayableRelation:
    relation = DisplayableRelation(rows, name="generated")
    for name, type_, definition in (("x", "float", "px"), ("y", "float", "py"),
                                    ("display", "drawables", display)):
        relation = relation.with_method_added(
            Method(name, type_, parse_expression(definition)))
    return relation


def scene_frame(relation, view: ViewState, cull: bool, reference: bool) -> dict:
    canvas, svg = Canvas(*view.viewport), SvgCanvas(*view.viewport)
    stats = SceneStats()
    with path(reference):
        items = render_composite(canvas, relation, view, cull=cull,
                                 stats=stats)
        render_composite(svg, relation, view, cull=cull)
    return {"png": canvas.png_bytes(), "svg": svg.svg_document(),
            "items": items, "stats": stats.to_dict(),
            "cull_plans": list(stats.cull_plans),
            "draw_ops": canvas.draw_ops, "batched": []}


@pytest.mark.parametrize("seed", range(12))
def test_generated_displays(seed):
    rng = random.Random(seed)
    rows = generated_rows(rng, 120)
    for __ in range(6):
        display = drawables(rng)
        relation = generated_relation(rows, display)
        assert mark_table(relation, np.arange(len(rows))) is not None, display
        for __ in range(2):
            view = ViewState(center=(rng.uniform(-20, 20), rng.uniform(-15, 15)),
                             elevation=rng.choice([4.0, 25.0, 90.0]),
                             viewport=(96, 72))
            for cull in (True, False):
                assert_same_frame(scene_frame(relation, view, cull, False),
                                  scene_frame(relation, view, cull, True))


def test_overlaps_resolve_in_paint_order():
    # Every row draws a red disc, then a blue ring, then a green label over
    # the same spot; the rows overlap each other too.
    rows = generated_rows(random.Random(1), 60)
    relation = generated_relation(rows, (
        "combine(filled_circle(3 + n % 4, 'red'), circle(2, tint), "
        "offset(text_of(label, 'green'), 1, 0), recolor(point(), 'purple'))"))
    view = ViewState(center=(0.0, 0.0), elevation=10.0, viewport=(80, 60))
    frame = scene_frame(relation, view, True, False)
    assert_same_frame(frame, scene_frame(relation, view, True, True))
    assert {item.drawable_kind for item in frame["items"]} == {
        "circle", "text", "point"}


def test_world_unit_lines_with_offsets():
    rows = generated_rows(random.Random(3), 80)
    relation = generated_relation(
        rows, "offset(line_to(level - 3, n / 10 - 2, tint), 0.5, -1.25)")
    for elevation in (3.0, 40.0, 300.0):
        view = ViewState(center=(2.0, -1.0), elevation=elevation,
                         viewport=(120, 90))
        for cull in (True, False):
            assert_same_frame(scene_frame(relation, view, cull, False),
                              scene_frame(relation, view, cull, True))


def test_display_list_outlives_its_row_set():
    """A kept display list (a FrameCache entry) holds its row set weakly:
    once the row set is gone it still yields the painted rows, and nothing
    else of the set survives."""
    rows = generated_rows(random.Random(4), 50)
    relation = generated_relation(rows, "combine(circle(2, tint), point())")
    view = ViewState(center=(0.0, 0.0), elevation=40.0, viewport=(96, 72))
    items = render_composite(Canvas(96, 72), relation, view)
    with path(True):
        expected = render_composite(Canvas(96, 72), relation, view)
    early = items[0]
    gone = weakref.ref(relation.rows)
    del relation, rows
    gc.collect()
    assert gone() is None
    assert items[0] is early
    assert_same_items(items, expected)


def test_display_list_outlives_a_superseded_batch():
    """The same for a late-materialized join: after a §8 update replaces
    the result, the previous frame's display list still reads its rows."""
    db = small_db()
    session = FIGURES["fig8"](db).session
    session.pan_to("tempseries", 200.0, 300.0)
    session.set_elevation("tempseries", 150.0)
    viewer = session.window("tempseries").viewer
    expected = session_frame(session, "tempseries", True)["items"]
    session.render_frame("tempseries", format="png")
    previous = viewer.last_result.all_items()
    assert isinstance(viewer.displayable().rows.rows, BatchRows)
    gone = weakref.ref(viewer.displayable().rows)
    observations = db.table("Observations")
    row = next(row for row in observations if row["station_id"] == 5)
    assert update.generic_update(
        observations, row, update.ScriptedDialog({"temperature": "50.5"})
    ).applied
    session.render_frame("tempseries", format="png")
    gc.collect()
    assert gone() is None
    assert len(previous) == len(expected) > 20
    for item, reference in zip(previous, expected):
        assert item_fields(item) == item_fields(reference)


# ---------------------------------------------------------------------------
# Error parity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("display", [
    "circle(2 - station_id, 'red')",                      # negative radius
    "offset(circle(1), 1e308 * station_id, 0)",           # inf offset delta
    "filled_circle(2, state)",                            # unknown colour
    "text_of(altitude * 1e400 - altitude * 1e400)",       # NaN, the missing value
    "circle(1e400)",                                      # an infinite literal
])
def test_rejected_columns_raise_the_loops_error(stations_db, display):
    def execute(reference: bool):
        session = Session(stations_db, "errors")
        tail = session.add_table("Stations")
        for name, definition in (("x", "longitude"), ("y", "latitude"),
                                 ("display", display)):
            box = session.add_box("SetAttribute",
                                  {"name": name, "definition": definition})
            session.connect(tail, "out", box, "in")
            tail = box
        session.add_viewer(tail, name="map", width=200, height=160)
        session.pan_to("map", -91.8, 31.0)
        session.set_elevation("map", 8.0)
        with path(reference):
            return session.execute(Render(window="map", format="png"))

    reply, reference = execute(False), execute(True)
    assert isinstance(reply, ErrorReply), display
    assert reply.code.startswith("T2-E5")
    assert (reply.code, reply.message) == (reference.code, reference.message)
