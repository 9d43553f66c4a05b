"""The viewport cull's sorted-x index against the per-tuple reference.

The scene finds the rows near the view by two binary searches over the x
column sorted once per row set (``scene._viewport_slab``), and gives only
those rows a screen position and the exact margin test.  Each case here
renders through it and through ``reference_culling(cull_plans=True)``
(tests/cull_reference.py) and compares the kept tuple indices, PNG bytes,
display lists, ``SceneStats.to_dict()`` and cull nodes, over:

- anchors one ulp either side of each viewport-margin edge, under
  non-zero entry offsets and several view shapes;
- x/y values of +-inf, NaN and 1e308, non-finite entry offsets and view
  centres;
- negative elevations, several slider dimensions, ``cull=False`` and
  wormhole sub-renders.

The index's lifetime: it is built once per x column, carried across a
Section-8 update that leaves x alone, rebuilt when x moves, and freed
with its row set.  The ``render.cull`` span reports how many rows got a
screen position (``rows_scanned``).
"""

from __future__ import annotations

import gc
import math
import random
import tracemalloc
import weakref

import numpy as np
import pytest

import repro.render.scene as scene
from cull_reference import reference_culling, reference_kept
from repro.core.scenarios import FIGURES, build_fig8_wormholes
from repro.data.weather import build_weather_database
from repro.data.workloads import build_points_table
from repro.dbms.catalog import Database
from repro.dbms.parser import parse_expression
from repro.dbms.relation import Method, RowSet
from repro.dbms.tuples import Schema, Tuple
from repro.dbms.update import ScriptedDialog, generic_update
from repro.display.defaults import default_displayable
from repro.display.displayable import Composite, CompositeEntry
from repro.obs.trace import Tracer, push_tracer
from repro.render.canvas import Canvas
from repro.render.scene import SceneStats, ViewState, render_composite
from repro.ui.session import Session

MARGIN = scene._CULL_MARGIN_PX
INF = math.inf
NAN = math.nan
SCHEMA = Schema([("x", "float"), ("y", "float"), ("value", "float"),
                 ("level", "float")])
DISPLAY = "combine(filled_circle(2, 'blue'), offset(point(), 3, 0))"


def relation_of(points, sliders=("value", "level")):
    """A relation over stored x/y (NaN allowed: the rows are built
    trusted) with a mark-table display and the given slider dims."""
    rows = RowSet.trusted(SCHEMA, [Tuple.trusted(SCHEMA, (x, y, v, l))
                                   for x, y, v, l in points])
    relation = default_displayable(rows, name="Anchors").with_method_added(
        Method("display", "drawables", parse_expression(DISPLAY))
    ).with_range(-1e301, 1e301)
    for dim in sliders:
        relation = relation.with_slider_added(dim)
    return relation


def item_fields(item) -> tuple:
    return (item.bbox, item.relation_name, item.source_table,
            item.row.values, item.tuple_index, item.drawable_kind,
            type(item.drawable), vars(item.drawable))


def frame(displayable, view, cull, reference, monkeypatch, resolver=None):
    """One render; the viewer's frames also record each pass's kept
    indices (what ``mark_table`` is handed)."""
    canvas = Canvas(*view.viewport)
    stats = SceneStats()
    kept = []
    if reference:
        with reference_culling(cull_plans=True):
            items = render_composite(canvas, displayable, view, resolver,
                                     cull=cull, stats=stats)
    else:
        compile_marks = scene.mark_table

        def recording(relation, rows):
            kept.append(rows.tolist())
            return compile_marks(relation, rows)

        with monkeypatch.context() as patch:
            patch.setattr(scene, "mark_table", recording)
            items = render_composite(canvas, displayable, view, resolver,
                                     cull=cull, stats=stats)
    return {"png": canvas.png_bytes(),
            "items": [item_fields(item) for item in items],
            "rows": [item.row for item in items],
            "stats": stats.to_dict(),
            "cull_plans": list(stats.cull_plans),
            "kept": kept}


def assert_exact(displayable, view, monkeypatch, cull=True, kept=True,
                 resolver=None):
    """The viewer's frame equals the reference's; returns it."""
    got = frame(displayable, view, cull, False, monkeypatch, resolver)
    want = frame(displayable, view, cull, True, monkeypatch, resolver)
    assert got["png"] == want["png"]
    assert got["stats"] == want["stats"]
    assert got["cull_plans"] == want["cull_plans"]
    assert got["items"] == want["items"]
    assert all(a is b for a, b in zip(got["rows"], want["rows"]))
    if kept:
        if isinstance(displayable, Composite):
            entries = displayable.entries
        else:
            entries = [CompositeEntry(displayable)]
        assert got["kept"] == [
            reference_kept(entry, view) if cull
            else list(range(len(entry.relation)))
            for entry in entries
            if entry.relation.elevation_range.contains(view.elevation)]
    return got


# ---------------------------------------------------------------------------
# Margin edges, one ulp either side
# ---------------------------------------------------------------------------


def straddle(inside, start: float, limit: int = 4096) -> list[float]:
    """Four consecutive floats around the one place near ``start`` where
    the monotone predicate ``inside`` flips: two on each side."""
    for direction in (INF, -INF):
        here = start
        for __ in range(limit):
            step = float(np.nextafter(here, direction))
            if inside(step) != inside(here):
                low, high = sorted((here, step))
                return [float(np.nextafter(low, -INF)), low, high,
                        float(np.nextafter(high, INF))]
            here = step
    raise AssertionError(f"no edge within {limit} ulps of {start!r}")


def edge_anchors(view, offset) -> list[tuple[float, float]]:
    """Anchors one ulp inside and outside each margin edge (after the
    entry ``offset``), the other coordinate at the view centre."""
    width, height = view.viewport
    scale = view.scale
    ox, oy = offset.get("x", 0.0), offset.get("y", 0.0)
    mid_x = view.center[0] - ox
    mid_y = view.center[1] - oy

    def px(x):
        return view.to_screen(x + ox, mid_y + oy)[0]

    def py(y):
        return view.to_screen(mid_x + ox, y + oy)[1]

    anchors = []
    for edge in (-MARGIN, width + MARGIN):
        start = (edge - width / 2.0) / scale + view.center[0] - ox
        for x in straddle(lambda x: -MARGIN <= px(x) <= width + MARGIN,
                          start):
            anchors.append((x, mid_y))
    for edge in (-MARGIN, height + MARGIN):
        start = view.center[1] - (edge - height / 2.0) / scale - oy
        for y in straddle(lambda y: -MARGIN <= py(y) <= height + MARGIN,
                          start):
            anchors.append((mid_x, y))
    return anchors


EDGE_VIEWS = [
    # (centre, elevation, viewport, entry offsets)
    ((0.0, 0.0), 30.0, (320, 240), {"x": 35.5, "y": -12.25}),
    ((1e6 + 0.1, -3e5), 7.0, (640, 480), {"x": -123.456, "y": 0.1}),
    ((-450.3, 210.9), -55.0, (200, 160), {"x": 1e-3, "y": 7.0}),
    ((12345.678, 0.5), 1e-6, (640, 480), {"x": 3.3, "y": -3.3}),
    ((0.1, 0.2), 3e7, (97, 61), {"x": -0.7, "y": 1e5}),
]


@pytest.mark.parametrize("center,elevation,viewport,offset", EDGE_VIEWS)
def test_margin_edges_one_ulp_either_side(center, elevation, viewport,
                                          offset, monkeypatch):
    view = ViewState(center=center, elevation=elevation, viewport=viewport,
                     slider_ranges={"value": (10.0, 90.0),
                                    "level": (-5.0, 5.0)})
    rng = random.Random(f"{center}:{elevation}")
    anchors = edge_anchors(view, offset)
    reach = abs(elevation) * 2.0
    # Filler rows, far and near, in and out of the slider ranges; the
    # anchors (some repeated, as ties) land at random positions.
    points = [(center[0] - offset["x"] + rng.uniform(-reach, reach),
               center[1] - offset["y"] + rng.uniform(-reach, reach),
               rng.uniform(0.0, 100.0), rng.uniform(-8.0, 8.0))
              for __ in range(600)]
    for x, y in anchors + anchors[::3]:
        points.insert(rng.randrange(len(points) + 1),
                      (x, y, 50.0, 0.0))
    relation = relation_of(points)
    composite = Composite([CompositeEntry(relation, offset)])
    got = assert_exact(composite, view, monkeypatch)
    kept = set(got["kept"][0])
    edge_rows = [pos for pos, point in enumerate(points)
                 if (point[0], point[1]) in set(anchors)]
    # The anchors straddle the edges: some kept, some culled.
    assert kept & set(edge_rows)
    assert set(edge_rows) - kept
    (node,) = got["cull_plans"]
    assert node.rows_out < node.in_ranges < node.rows_in


# ---------------------------------------------------------------------------
# Non-finite locations, offsets and view centres
# ---------------------------------------------------------------------------


SPECIAL = (INF, -INF, NAN, 1e308, -1e308, 0.0, 3.5, -7.25)


def special_points():
    points = [(x, y, 50.0, 0.0) for x in SPECIAL for y in SPECIAL]
    rng = random.Random(7)
    points += [(rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0),
                50.0, 0.0) for __ in range(200)]
    rng.shuffle(points)
    return points


@pytest.mark.parametrize("center", [
    (0.0, 0.0), (INF, 0.0), (-INF, 0.0), (NAN, 0.0), (0.0, NAN),
    (1e308, 0.0), (-1e308, 1e308), (2.0, -3.0),
])
@pytest.mark.parametrize("elevation", [40.0, -40.0, 1e-300, 1e300])
def test_non_finite_locations_and_centres(center, elevation, monkeypatch):
    relation = relation_of(special_points(), sliders=())
    composite = Composite([
        CompositeEntry(relation),
        CompositeEntry(relation, {"x": INF}),
        CompositeEntry(relation, {"x": -INF, "y": 2.0}),
        CompositeEntry(relation, {"x": NAN}),
        CompositeEntry(relation, {"x": 1e308, "y": -1e308}),
        CompositeEntry(relation, {"x": -1e308}),
    ])
    view = ViewState(center=center, elevation=elevation, viewport=(160, 120))
    assert_exact(composite, view, monkeypatch)


def test_computed_x_overflowing_to_infinity(monkeypatch):
    table = build_points_table("Points", 300, seed=4, spread=400.0)
    relation = default_displayable(table).with_range(-1e301, 1e301)
    for name, definition in (("x", "x_pos * 1e306"), ("y", "y_pos"),
                             ("display", "filled_circle(2, 'red')")):
        relation = relation.with_method_added(
            Method(name, "drawables" if name == "display" else "float",
                   parse_expression(definition)))
    for center in ((0.0, 0.0), (5e307, 10.0), (1.7e308, 0.0)):
        for elevation in (1e300, 1.7e308):
            view = ViewState(center=center, elevation=elevation,
                             viewport=(160, 120))
            assert_exact(relation, view, monkeypatch)


# ---------------------------------------------------------------------------
# Sliders, elevations, cull=False, wormholes
# ---------------------------------------------------------------------------


def scatter(count=3_000, seed=2, sliders=("value", "level")):
    rng = random.Random(seed)
    return relation_of([(rng.uniform(-500.0, 500.0),
                         rng.uniform(-500.0, 500.0),
                         rng.uniform(0.0, 100.0), rng.uniform(-10.0, 10.0))
                        for __ in range(count)], sliders)


@pytest.mark.parametrize("elevation", [25.0, -25.0, -300.0, 900.0, 5000.0])
@pytest.mark.parametrize("ranges", [
    {},
    {"value": (20.0, 60.0)},
    {"level": (-2.0, 3.0)},
    {"value": (20.0, 60.0), "level": (-2.0, 3.0)},
    {"other": (0.0, 1.0), "level": (0.0, 0.0)},
])
def test_sliders_and_elevations(elevation, ranges, monkeypatch):
    relation = scatter().with_range(-10_000.0, 10_000.0)
    composite = Composite([
        CompositeEntry(relation, {"x": 12.5, "level": 1.5}),
        CompositeEntry(relation, {"y": -40.0, "value": -10.0}),
    ])
    view = ViewState(center=(-60.0, 35.0), elevation=elevation,
                     viewport=(240, 180), slider_ranges=ranges)
    got = assert_exact(composite, view, monkeypatch)
    slider_culled = got["stats"]["culled_by_slider"]
    assert bool(slider_culled) == bool(set(ranges) & {"value", "level"})


def test_cull_false_keeps_every_row(monkeypatch):
    relation = scatter(count=800)
    view = ViewState(center=(100.0, -20.0), elevation=40.0,
                     viewport=(160, 120),
                     slider_ranges={"value": (20.0, 60.0)})
    got = assert_exact(relation, view, monkeypatch, cull=False)
    assert got["kept"] == [list(range(800))]
    assert not got["cull_plans"]


def test_wormhole_sub_renders(monkeypatch):
    fig8 = build_fig8_wormholes(build_weather_database(extra_stations=4,
                                                       every_days=60))
    viewer = fig8.named["map_window"].viewer
    viewer._sync_views()
    for center, elevation in (((-90.07, 29.95), 1.5), ((-91.1, 30.4), 4.0),
                              ((-90.07, 29.95), -2.0)):
        view = viewer.views["main"].copy()
        view.center = center
        view.elevation = elevation
        view.viewport = (320, 240)
        got = assert_exact(viewer.displayable(), view, monkeypatch,
                           kept=False, resolver=viewer.resolver)
        if elevation == 1.5:
            assert any(item[5] == "viewer" for item in got["items"])
            # The wormholes' nested passes went through the same cull.
            tracer = Tracer()
            with push_tracer(tracer):
                render_composite(Canvas(320, 240), viewer.displayable(),
                                 view, viewer.resolver)
            assert any(span.attrs["depth"] > 0
                       for span in tracer.finished("render.pass"))


# ---------------------------------------------------------------------------
# The index's lifetime
# ---------------------------------------------------------------------------


@pytest.fixture()
def counted_builds(monkeypatch):
    """Every x column the sorted-x index is built for, in build order."""
    built = []
    build = scene._sorted_x

    def counting(x):
        built.append(x)
        return build(x)

    monkeypatch.setattr(scene, "_sorted_x", counting)
    return built


def no_lineage(monkeypatch):
    """Lineage capture off, also under the ``REPRO_LINEAGE=1`` leg: a
    capture recomputes rather than carrying a result across an update."""
    monkeypatch.setattr("repro.obs.lineage._ACTIVE", None)
    monkeypatch.setattr("repro.obs.lineage._DEFAULT_CONFIG", None)


def replace(table, position, **changes):
    row = table.snapshot()[position]
    answers = {name: str(value) for name, value in changes.items()}
    assert generic_update(table, row, ScriptedDialog(answers)).applied


def memo_index(relation):
    ((__, index),) = relation.rows.location_memo.values()
    return index


def test_series_replay_builds_one_index_per_x_column(counted_builds,
                                                     monkeypatch):
    """The series_update loop -- two read frames, a temperature update,
    the frame after it -- sorts the series' x once: temperatures move y,
    and the update carries the index with the shared x column."""
    no_lineage(monkeypatch)
    db = build_weather_database(extra_stations=10, every_days=60)
    session = FIGURES["fig8"](db).session
    observations = db.table("Observations")
    la_rows = [pos for pos, row in enumerate(observations)
               if row["station_id"] <= 18]
    viewer = session.window("tempseries").viewer
    rng = random.Random(3)
    indexes = []
    for __ in range(6):
        for __ in range(2):
            session.pan_to("tempseries", rng.uniform(0.0, 401.0),
                           rng.randint(1, 18) * 60.0 + rng.uniform(0, 50))
            session.set_elevation("tempseries", rng.uniform(80.0, 200.0))
            session.render_frame("tempseries", format="png")
            indexes.append(memo_index(viewer.displayable()))
        replace(observations, rng.choice(la_rows),
                temperature=round(rng.uniform(40.0, 89.0), 1))
        session.render_frame("tempseries", format="png")
        rows = viewer.displayable().rows
        assert rows.cache_status == "patched"
        indexes.append(memo_index(viewer.displayable()))
    assert len(counted_builds) == 1
    assert all(index is indexes[0] for index in indexes)
    assert counted_builds[0] is scene.location_columns(
        viewer.displayable())[0]


def scatter_session(count=4_000):
    db = Database("points")
    db.add_table(build_points_table("Points", count, seed=6, spread=400.0))
    session = Session(db, "scatter")
    tail = session.add_table("Points")
    for name, definition in (("x", "x_pos"), ("y", "y_pos"),
                             ("display", "filled_circle(2, 'blue')")):
        box = session.add_box("SetAttribute",
                              {"name": name, "definition": definition})
        session.connect(tail, "out", box, "in")
        tail = box
    session.add_viewer(tail, name="scatter", width=320, height=240)
    session.pan_to("scatter", 10.0, -20.0)
    session.set_elevation("scatter", 60.0)
    return db, session


def test_an_update_that_moves_x_rebuilds_the_index(counted_builds,
                                                   monkeypatch):
    no_lineage(monkeypatch)
    db, session = scatter_session()
    table = db.table("Points")
    viewer = session.window("scatter").viewer
    session.render_frame("scatter", format="png")
    x, y = scene.location_columns(viewer.displayable())
    inside = painted(viewer)[0]
    outside = int(np.flatnonzero((np.abs(y + 20.0) < 10.0)
                                 & (np.abs(x - 10.0) > 200.0))[0])
    # Each update is rendered, so its row set is carried from the one
    # before: into the view a point level with it but far to the side,
    # then out of it a painted one.
    for position, moved_to, builds in ((outside, 12.0, 2), (inside, 350.0, 3)):
        rendered = viewer.displayable().rows
        before = memo_index(viewer.displayable())
        replace(table, position, x_pos=moved_to)
        reply = session.render_frame("scatter", format="png")
        relation = viewer.displayable()
        assert relation.rows.delta[0]() is rendered
        assert memo_index(relation) is not before
        assert len(counted_builds) == builds
        assert counted_builds[-1] is scene.location_columns(relation)[0]
        with reference_culling(cull_plans=True):
            want = session.render_frame("scatter", format="png")
        assert reply.data_bytes() == want.data_bytes()
    assert outside in painted(viewer) and inside not in painted(viewer)
    # A y-only update shares x, and with it the index.
    after = memo_index(viewer.displayable())
    replace(table, 5, y_pos=-19.0)
    session.render_frame("scatter", format="png")
    assert viewer.displayable().rows.delta is not None
    assert memo_index(viewer.displayable()) is after
    assert len(counted_builds) == 3


def painted(viewer):
    return [item.tuple_index for item in viewer.last_result.all_items()]


def test_indexes_die_with_their_row_sets_over_200_updates(monkeypatch):
    no_lineage(monkeypatch)
    db, session = scatter_session(count=3_000)
    table = db.table("Points")
    viewer = session.window("scatter").viewer
    orders = []

    def cycle(step):
        replace(table, (step * 37) % len(table),
                x_pos=float(step % 300) - 150.0)
        session.render_frame("scatter", format="png")
        orders.append(weakref.ref(memo_index(viewer.displayable()).order))

    for step in range(50):
        cycle(step)
    sizes = []
    tracemalloc.start()
    try:
        for step in range(50, 200):
            cycle(step)
            if step in (99, 199):
                gc.collect()
                sizes.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    gc.collect()
    assert sum(ref() is not None for ref in orders) <= 2
    assert sizes[1] - sizes[0] < 256 * 1024, sizes


# ---------------------------------------------------------------------------
# The render.cull span
# ---------------------------------------------------------------------------


def cull_spans(relation, view, cull=True):
    tracer = Tracer()
    with push_tracer(tracer):
        render_composite(Canvas(*view.viewport), relation, view, cull=cull,
                         stats=SceneStats())
    return tracer.finished("render.cull")


def test_deep_zoom_scans_fewer_rows_than_it_considers():
    relation = scatter(count=20_000, sliders=("value",))
    deep = ViewState(center=(0.0, 0.0), elevation=30.0, viewport=(320, 240),
                     slider_ranges={"value": (10.0, 40.0)})
    (span,) = cull_spans(relation, deep)
    assert span.attrs["rows_in"] == 20_000
    assert span.attrs["rows_out"] <= span.attrs["rows_scanned"]
    assert span.attrs["rows_scanned"] < 20_000 // 10
    # An overview and an unculled pass give every row a screen position.
    overview = ViewState(center=(0.0, 0.0), elevation=5000.0,
                         viewport=(320, 240))
    for view, cull in ((overview, True), (deep, False)):
        (span,) = cull_spans(relation, view, cull)
        assert span.attrs["rows_scanned"] == 20_000
