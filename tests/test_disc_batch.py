"""Disc displays through the mark-table path against the per-tuple loop.

A relation whose display compiles to a mark table -- a constant
``filled_circle`` among them -- is culled and painted as arrays
(``repro.display.marks``); ``reference_culling()`` from
``tests/cull_reference.py`` renders the same frames through the per-tuple
reference loop.  Pinned here: PNG pixels, SVG documents, display lists,
``SceneStats`` (cull nodes included), draw ops and picks are identical,
over replayed ``series_update`` fig8 frames (with a §8 update),
``scatter_deep`` views, the fig7 coarse layer and fig8's wormholes onto the
series canvas; displays that do not compile (a Python method, a polygon, a
wormhole, a world-unit disc from a registered function) take the per-tuple
loop in ``src``; and ``render.draw`` spans say which path painted.
"""

from __future__ import annotations

import random
from contextlib import nullcontext

import numpy as np
import pytest

from cull_reference import reference_culling
from png_reference import decode

import repro.dbms.expr as expr_module
from repro.core.scenarios import FIGURES
from repro.data.weather import build_weather_database
from repro.data.workloads import build_points_table
from repro.dbms import types as T
from repro.dbms import update
from repro.dbms.expr import FunctionDef
from repro.dbms.parser import parse_expression
from repro.dbms.relation import Method, RowSet
from repro.dbms.tuples import Schema
from repro.display.displayable import DisplayableRelation
from repro.display.drawables import Circle, Polygon, Style
from repro.dbms.result_cache import set_cache_enabled
from repro.obs.trace import Tracer, push_tracer
from repro.protocol import ErrorReply, Render
from repro.render.canvas import Canvas
from repro.render.scene import SceneStats, ViewState, render_composite
from repro.render.svg import render_svg
from repro.ui.session import Session

#: Louisiana stations are ids 1..18; the series canvas bands them by id.
LA_STATIONS = 18
SCHEMA = Schema([("label", "text"), ("px", "float"), ("py", "float"),
                 ("level", "float")])


def small_db():
    return build_weather_database(extra_stations=10, every_days=60)


def path(forced: bool):
    """The per-tuple reference loop when ``forced``, else the viewer's own."""
    return reference_culling(cull_plans=True) if forced else nullcontext()


def item_key(item):
    """A display-list item as comparable values (equal drawables of two
    paths are distinct objects)."""
    return (item.bbox, item.relation_name, item.source_table, item.tuple_index,
            item.drawable_kind, tuple(item.row.values),
            type(item.drawable), vars(item.drawable))


def snapshot(session: Session, window: str) -> dict:
    """Everything one frame shows: pixels, SVG, display list, stats, draw
    ops, picks at the painted centres, and the render.draw paths taken."""
    tracer = Tracer()
    with push_tracer(tracer):
        reply = session.render_frame(window, format="png")
    result = session.window(window).viewer.last_result
    items = result.all_items()
    picks = []
    for item in items[:: max(1, len(items) // 25)]:
        x0, y0, x1, y1 = item.bbox
        picked = session.pick(window, (x0 + x1) / 2, (y0 + y1) / 2)
        picks.append(None if picked is None else item_key(picked))
    return {
        "pixels": decode(reply.data_bytes()),
        "svg": render_svg(session.window(window).viewer).svg_document(),
        "items": [item_key(item) for item in items],
        "stats": result.stats.to_dict(),
        "draw_ops": (reply.draw_ops, result.canvas.draw_ops),
        "picks": picks,
        "batched": [(span.attrs["relation"], span.attrs["batched"])
                    for span in tracer.finished("render.draw")],
    }


def assert_same_frames(batched: list[dict], forced: list[dict]) -> None:
    assert len(batched) == len(forced) and batched
    for frame, reference in zip(batched, forced):
        assert np.array_equal(frame["pixels"], reference["pixels"])
        for key in ("svg", "items", "stats", "draw_ops", "picks"):
            assert frame[key] == reference[key], key
    # The reference loop has no render.draw span; the viewer batched
    # somewhere.
    assert not any(frame["batched"] for frame in forced)
    assert any(flag for frame in batched for __, flag in frame["batched"])
    assert any(frame["items"] for frame in batched)


def update_observation(db, rng):
    """One §8 update of a Louisiana observation, as the series bench does."""
    observations = db.table("Observations")
    rows = [row for row in observations if row["station_id"] <= LA_STATIONS]
    row = rows[rng.randrange(len(rows))]
    temperature = round(rng.uniform(40.0, 89.0), 1)
    result = update.generic_update(
        observations, row,
        update.ScriptedDialog({"temperature": str(temperature)}))
    assert result.applied


def replay_series(forced: bool, cached: bool) -> list[dict]:
    """fig8 ``tempseries`` frames as ``series_update`` sends them: two
    reads, a §8 update, and the frame that shows it."""
    db = small_db()
    rng = random.Random(11)
    previous = set_cache_enabled(cached)
    try:
        session = FIGURES["fig8"](db).session
        frames = []
        for __ in range(3):
            for __ in range(2):
                session.pan_to("tempseries", rng.uniform(0.0, 401.0),
                               rng.randint(1, LA_STATIONS) * 60.0
                               + rng.uniform(0.0, 50.0))
                session.set_elevation("tempseries", rng.uniform(80.0, 200.0))
                with path(forced):
                    frames.append(snapshot(session, "tempseries"))
            update_observation(db, rng)
            with path(forced):
                frames.append(snapshot(session, "tempseries"))
        return frames
    finally:
        set_cache_enabled(previous)


@pytest.mark.parametrize("cached", [False, True])
def test_series_update_frames(cached):
    assert_same_frames(replay_series(False, cached),
                       replay_series(True, cached))


@pytest.fixture(scope="module")
def points_db():
    db = small_db()
    db.add_table(build_points_table("Points", 20_000, 3))
    return db


def scatter_frames(db, forced: bool) -> list[dict]:
    """``scatter_deep``-style views of a Points scatter with a constant
    ``filled_circle(2, 'blue')`` display and a ``value`` slider."""
    session = Session(db, "scatter")
    tail = session.add_table("Points")
    for name, definition in (("x", "x_pos"), ("y", "y_pos"),
                             ("display", "filled_circle(2, 'blue')")):
        box = session.add_box("SetAttribute",
                              {"name": name, "definition": definition})
        session.connect(tail, "out", box, "in")
        tail = box
    slider = session.add_box("AddAttribute", {
        "name": "value_dim", "definition": "value", "location": True})
    session.connect(tail, "out", slider, "in")
    session.add_viewer(slider, name="scatter", width=320, height=240)
    rng = random.Random(5)
    frames = []
    for elevation in (30.0, 80.0, 400.0, 1500.0):
        low = rng.uniform(0.0, 60.0)
        session.pan_to("scatter", rng.uniform(-450.0, 450.0),
                       rng.uniform(-450.0, 450.0))
        session.set_elevation("scatter", elevation)
        session.set_slider("scatter", "value_dim", low,
                           low + rng.uniform(20.0, 40.0))
        with path(forced):
            frames.append(snapshot(session, "scatter"))
    return frames


def test_scatter_deep_views(points_db):
    assert_same_frames(scatter_frames(points_db, False),
                       scatter_frames(points_db, True))


def map_frames(figure: str, forced: bool, views) -> list[dict]:
    session = FIGURES[figure](small_db()).session
    frames = []
    for cx, cy, elevation in views:
        session.pan_to("map", cx, cy)
        session.set_elevation("map", elevation)
        with path(forced):
            frames.append(snapshot(session, "map"))
    return frames


def test_fig7_coarse_layer():
    # High elevations show the coarse filled_circle(3, 'blue') layer; the
    # views straddle the canvas edges so the bbox cull drops some discs.
    views = [(-91.8, 31.0, 8.0), (-93.9, 30.2, 6.0), (-89.4, 32.8, 11.0),
             (-91.0, 29.1, 4.0)]
    assert_same_frames(map_frames("fig7", False, views),
                       map_frames("fig7", True, views))


def test_fig8_wormhole_sub_renders():
    # Below elevation 2 each station is a wormhole onto the series canvas,
    # whose filled_circle(1, 'red') marks paint inside the wormhole frames.
    views = [(-91.5, 30.8, 1.5), (-90.6, 30.2, 1.0), (-92.4, 31.4, 1.9)]
    batched = map_frames("fig8", False, views)
    assert_same_frames(batched, map_frames("fig8", True, views))
    kinds = {key[4] for frame in batched for key in frame["items"]}
    assert "viewer" in kinds
    # The series relation is drawn only inside the wormholes, as a batch.
    assert ("Observations_join_Stations", True) in {
        pair for frame in batched for pair in frame["batched"]}


def scene_snapshot(relation, view, cull, forced=False):
    canvas = Canvas(*view.viewport)
    stats = SceneStats()
    tracer = Tracer()
    with push_tracer(tracer), path(forced):
        items = render_composite(canvas, relation, view, cull=cull,
                                 stats=stats)
    return {
        "pixels": canvas.pixels.copy(),
        "items": [item_key(item) for item in items],
        "stats": stats.to_dict(),
        "draw_ops": canvas.draw_ops,
        "batched": [span.attrs["batched"]
                    for span in tracer.finished("render.draw")],
    }


def scene_relation(display: str, rows=None) -> DisplayableRelation:
    """400 labelled points at (px, py) with the given display."""
    if rows is None:
        rng = random.Random(2)
        rows = RowSet.from_dicts(SCHEMA, [
            {"label": f"p{i}", "px": rng.uniform(-60, 60),
             "py": rng.uniform(-60, 60), "level": float(i)}
            for i in range(400)])
    relation = DisplayableRelation(rows, name="discs")
    for name, type_, definition in (("x", "float", "px"), ("y", "float", "py"),
                                    ("display", "drawables", display)):
        relation = relation.with_method_added(
            Method(name, type_, definition if callable(definition)
                   else parse_expression(definition),
                   depends=("level",) if callable(definition) else ()))
    return relation


VIEWS = (((0.0, 0.0), 40.0), ((55.0, -50.0), 25.0), ((-10.0, 20.0), 150.0))


def assert_loop_matches_reference(relation) -> None:
    """The relation takes the per-tuple loop in ``src`` and paints what the
    reference loop paints, culled or not."""
    for center, elevation in VIEWS:
        view = ViewState(center=center, elevation=elevation,
                         viewport=(160, 120))
        for cull in (True, False):
            frame = scene_snapshot(relation, view, cull)
            reference = scene_snapshot(relation, view, cull, forced=True)
            assert frame["batched"] == [False]
            assert reference["batched"] == []
            assert np.array_equal(frame["pixels"], reference["pixels"])
            for key in ("items", "stats", "draw_ops"):
                assert frame[key] == reference[key], key
            assert frame["items"]


def test_world_unit_discs_with_offsets(monkeypatch):
    """World-unit discs scale radius and offset by the view; no mark
    constructor builds one, so a registered function's display takes the
    per-tuple loop."""
    monkeypatch.setitem(expr_module._FUNCTIONS, "world_disc", FunctionDef(
        "world_disc", lambda arg_types: T.DRAWABLES,
        lambda radius, color: [Circle(float(radius), color=color,
                                      style=Style(filled=True),
                                      units="world")], "A world-unit disc."))
    assert_loop_matches_reference(
        scene_relation("offset(world_disc(0.8, 'red'), 0.7, -1.3)"))


def test_polygon_display_takes_the_loop(monkeypatch):
    monkeypatch.setitem(expr_module._FUNCTIONS, "triangle", FunctionDef(
        "triangle", lambda arg_types: T.DRAWABLES,
        lambda size: [Polygon([(0.0, 0.0), (size, 0.0), (0.0, size)],
                              color="green")], "A triangle."))
    assert_loop_matches_reference(
        scene_relation("combine(filled_circle(2), triangle(level / 40))"))


def test_python_method_display_takes_the_loop():
    def display(row):
        return [Circle(1.0 + row["level"] % 3, color="blue")]

    assert_loop_matches_reference(scene_relation(display))


def test_wormhole_display_takes_the_loop():
    # fig8's station wormholes: a combine of a wormhole and a label.
    session = FIGURES["fig8"](small_db()).session
    session.pan_to("map", -91.5, 30.8)
    session.set_elevation("map", 1.5)
    frame = snapshot(session, "map")
    with path(True):
        reference = snapshot(session, "map")
    wormholes = {key[1] for key in frame["items"] if key[4] == "viewer"}
    assert wormholes
    assert {batched for name, batched in frame["batched"]
            if name in wormholes} == {False}
    assert np.array_equal(frame["pixels"], reference["pixels"])
    for key in ("svg", "items", "stats", "draw_ops", "picks"):
        assert frame[key] == reference[key], key


def test_non_finite_radius_is_a_display_error_reply(stations_db):
    """A display with an infinite or NaN radius, offset or delta is a
    T2-E515 error reply, not a raw exception out of the rasterizer."""
    for display in ("filled_circle(1e400, 'red')",
                    "filled_circle(1e400 * 0, 'red')",
                    "filled_circle(1e400 + 0 * station_id, 'red')",
                    "line_to(1e400, 0)",
                    "offset(filled_circle(1, 'red'), 0, -1e400)",
                    "rect(2, 1e400)"):
        session = Session(stations_db, "non-finite")
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
        reply = session.execute(Render(window="map", format="png"))
        assert isinstance(reply, ErrorReply), display
        assert reply.code == "T2-E515", (display, reply)
        assert "must be finite" in reply.message
