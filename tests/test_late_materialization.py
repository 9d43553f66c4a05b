"""Late materialization: a demanded columnar result stays one column batch.

A lazy row set whose plan root is ``ToRows`` is forced as one
:class:`~repro.dbms.columnar.ColumnBatch`; its rows are a
:class:`~repro.dbms.columnar.BatchRows` that builds each Tuple on first
access.  Pinned here: pixels, SceneStats, EXPLAIN and ``why`` equal the
row reference (``row_backend()``); built tuples keep one identity per
position across threads, result-cache hits and Cache consumers; a frame
after a §8 update builds tuples for the rows it paints, not for the
whole join.
"""

from __future__ import annotations

import random
import threading
from contextlib import nullcontext

import numpy as np
import pytest

from png_reference import decode
from row_reference import row_backend, row_shape

from repro.core.scenarios import FIGURES
from repro.data.weather import build_weather_database
from repro.dataflow.boxes_db import AddTableBox, JoinBox, RestrictBox
from repro.dataflow.engine import Engine
from repro.dataflow.explain import explain_data
from repro.dataflow.graph import Program
from repro.dbms import update
from repro.dbms.columnar import BatchRows, ColumnBatch
from repro.dbms.plan import CacheNode, LazyRowSet
from repro.dbms.relation import RowSet, Table
from repro.dbms.result_cache import set_cache_enabled
from repro.dbms.tuples import Schema, Tuple
from repro.obs.lineage import LineageConfig, set_default_lineage_config, why
from repro.render import scene
from repro.ui.session import Session

#: Louisiana stations are ids 1..18; the series canvas bands them by id.
LA_STATIONS = 18


def small_db():
    return build_weather_database(extra_stations=10, every_days=60)


def series_relation(session):
    relation = session.window("tempseries").viewer.displayable()
    assert relation.name == "Observations_join_Stations"
    return relation


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


def frame(session, window):
    reply = session.render_frame(window, format="png")
    stats = session.window(window).viewer.last_result.stats.to_dict()
    return decode(reply.data_bytes()), stats


@pytest.fixture()
def no_lineage(monkeypatch):
    """Lineage capture off, also under the ``REPRO_LINEAGE=1`` leg: capture
    materializes every kernel's rows, which is what these tests rule out."""
    monkeypatch.setattr("repro.obs.lineage._ACTIVE", None)
    monkeypatch.setattr("repro.obs.lineage._DEFAULT_CONFIG", None)


class CountingTuples:
    """Counts Tuple constructions, through ``__init__`` and ``trusted``."""

    def __init__(self, monkeypatch):
        self.count = 0
        init = Tuple.__init__
        trusted = Tuple.trusted.__func__

        def counted_init(row, *args, **kwargs):
            self.count += 1
            init(row, *args, **kwargs)

        def counted_trusted(cls, *args):
            self.count += 1
            return trusted(cls, *args)

        monkeypatch.setattr(Tuple, "__init__", counted_init)
        monkeypatch.setattr(Tuple, "trusted", classmethod(counted_trusted))


# ---------------------------------------------------------------------------
# Equivalence with the row reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_figure_png_and_stats_match_row_reference(figure):
    def renders():
        scenario = FIGURES[figure](small_db())
        session = scenario.session
        return {name: frame(session, name)
                for name in sorted(session.windows)}

    with row_backend():
        reference = renders()
    late = renders()
    assert late.keys() == reference.keys() and late
    for name, (pixels, stats) in late.items():
        ref_pixels, ref_stats = reference[name]
        assert np.array_equal(pixels, ref_pixels), f"{figure}/{name}"
        assert stats == ref_stats, f"{figure}/{name}"


def replay_series(seed, reference, cached):
    """Frames of a series_update-style script: two reads, an update, and
    the frame that shows it; with the result cache on or off."""
    db = small_db()
    rng = random.Random(seed)
    frames, shapes = [], []
    previous = set_cache_enabled(cached)
    try:
        with row_backend() if reference else nullcontext():
            session = FIGURES["fig8"](db).session
            for __ in range(4):
                for __ in range(2):
                    session.pan_to("tempseries", rng.uniform(0.0, 401.0),
                                   rng.randint(1, LA_STATIONS) * 60.0)
                    session.set_elevation("tempseries",
                                          rng.uniform(80.0, 200.0))
                    frames.append(frame(session, "tempseries"))
                update_observation(db, rng)
                frames.append(frame(session, "tempseries"))
                shapes.append([
                    row_shape(plan["tree"])
                    for box in explain_data(session.program,
                                            engine=session.engine)["boxes"]
                    for output in box.get("outputs", ())
                    for plan in output["plans"]])
            late = isinstance(series_relation(session).rows.rows, BatchRows)
    finally:
        set_cache_enabled(previous)
    return frames, shapes, late


@pytest.mark.parametrize("cached", [False, True])
def test_series_update_frames_match_row_reference(cached):
    frames, shapes, late = replay_series(5, reference=False, cached=cached)
    ref_frames, ref_shapes, ref_late = replay_series(5, reference=True,
                                                     cached=cached)
    assert late and not ref_late
    assert len(frames) == len(ref_frames) == 12
    for (pixels, stats), (ref_pixels, ref_stats) in zip(frames, ref_frames):
        assert np.array_equal(pixels, ref_pixels)
        assert stats == ref_stats
    assert shapes == ref_shapes


def marks_why(lineage, reference):
    """``why`` for the first painted marks of the series canvas after a §8
    update, with lineage capture on or off from the start."""
    db = small_db()
    previous = set_default_lineage_config(LineageConfig() if lineage else None)
    try:
        with row_backend() if reference else nullcontext():
            session = FIGURES["fig8"](db).session
            session.pan_to("tempseries", 200.0, 300.0)
            session.set_elevation("tempseries", 150.0)
            update_observation(db, random.Random(3))
            window = session.window("tempseries")
            docs = []
            for item in window.viewer.render().all_items()[:5]:
                x0, y0, x1, y1 = item.bbox
                doc = why(window, (x0 + x1) / 2, (y0 + y1) / 2)
                docs.append((doc["complete"], [(r["table"], r["values"])
                                               for r in doc["rows"]]))
    finally:
        set_default_lineage_config(previous)
    return docs


@pytest.mark.parametrize("lineage", [True, False])
def test_why_base_rows_match_row_reference(lineage):
    late = marks_why(lineage, reference=False)
    assert len(late) == 5 and all(complete for complete, __ in late)
    assert late == marks_why(lineage, reference=True)


def test_location_columns_read_from_the_batch_match_per_tuple():
    session = FIGURES["fig8"](small_db()).session
    relation = series_relation(session)
    rows = relation.rows
    assert isinstance(rows.rows, BatchRows)
    assert rows.column_batch is rows.rows.batch
    rows.location_memo = None
    columns = scene.location_columns(relation)
    reference = scene._per_tuple_locations(relation)
    assert len(columns) == len(reference) == 2
    for column, expected in zip(columns, reference):
        assert np.array_equal(column, expected)


def test_stored_location_read_from_the_batch_matches_per_tuple():
    # y is a bare reference to a stored float column of the join: it is
    # read from the late batch, not from tuples.
    db = small_db()
    session = Session(db, "stored-y")
    join = session.add_box("Join", {"left_key": "station_id",
                                    "right_key": "station_id"})
    session.connect(session.add_table("Observations"), "out", join, "left")
    session.connect(session.add_table("Stations"), "out", join, "right")
    tail = join
    for name, definition in (("x", "latitude * 10.0"), ("y", "temperature")):
        box = session.add_box("SetAttribute",
                              {"name": name, "definition": definition})
        session.connect(tail, "out", box, "in")
        tail = box
    window = session.add_viewer(tail, name="scatter")
    relation = window.viewer.displayable()
    assert isinstance(relation.rows.rows, BatchRows)
    assert relation.rows.column_batch is not None
    columns = scene.location_columns(relation)
    for column, expected in zip(columns,
                                scene._per_tuple_locations(relation)):
        assert np.array_equal(column, expected)


def late_rows(db, *boxes):
    """An engine over Observations ⋈ Stations, then ``boxes``."""
    program = Program("late")
    join = program.add_box(JoinBox(left_key="station_id",
                                   right_key="station_id"))
    program.connect(program.add_box(AddTableBox(table="Observations")),
                    "out", join, "left")
    program.connect(program.add_box(AddTableBox(table="Stations")),
                    "out", join, "right")
    tail = join
    for box in boxes:
        box_id = program.add_box(box)
        program.connect(tail, "out", box_id, "in")
        tail = box_id
    engine = Engine(program, db, cache=False)
    return engine, program, join, tail


def test_late_row_set_equals_tuple_backed_row_set():
    db = small_db()
    engine, __, join, __ = late_rows(db)
    late = engine.output_of(join, "out").rows
    late.force()
    assert isinstance(late.rows, BatchRows)
    plain = RowSet(late.schema, [Tuple(late.schema, row.values)
                                 for row in late.rows])
    assert late == plain and plain == late
    assert late.rows == plain.rows and plain.rows == late.rows
    changed = list(plain.rows)
    changed[7] = changed[7].replace(temperature=changed[7]["temperature"]
                                    + 1.0)
    other = RowSet(late.schema, changed)
    assert late != other and other != late


# ---------------------------------------------------------------------------
# Identity
# ---------------------------------------------------------------------------


def test_concurrent_indexing_returns_one_tuple(monkeypatch):
    # Both threads must build the row before either publishes it: the
    # builder waits for the other thread, so the race is forced.
    from repro.dbms import columnar

    schema = Schema([("n", "int"), ("v", "float")])
    rows = BatchRows(ColumnBatch(schema, {
        "n": np.arange(64, dtype=np.int64),
        "v": np.linspace(0.0, 1.0, 64)}))
    both_built = threading.Barrier(2, timeout=10)
    build = columnar._build_rows

    def racing_build(*args):
        built = build(*args)
        both_built.wait()
        return built

    monkeypatch.setattr(columnar, "_build_rows", racing_build)
    seen: list[Tuple] = []
    threads = [threading.Thread(target=lambda: seen.append(rows[7]))
               for __ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    monkeypatch.undo()
    assert len(seen) == 2
    assert seen[0] is seen[1] is rows[7]
    assert seen[0].values == (7, float(np.linspace(0.0, 1.0, 64)[7]))


def test_indexing_and_iteration_agree_on_identity():
    db = small_db()
    engine, __, join, __ = late_rows(db)
    rows = engine.output_of(join, "out").rows.rows
    picked = {pos: rows[pos] for pos in (0, 5, len(rows) - 1)}
    assert rows[-1] is picked[len(rows) - 1]
    listed = list(rows)
    for pos, row in picked.items():
        assert listed[pos] is row
    assert all(a is b for a, b in zip(listed, rows))
    assert rows[2:4] == (listed[2], listed[3])


def test_result_cache_hit_shares_tuples_across_sessions():
    db = small_db()
    previous = set_cache_enabled(True)
    try:
        first = FIGURES["fig8"](db).session
        second = FIGURES["fig8"](db).session
        rows_a = series_relation(first).rows
        rows_b = series_relation(second).rows
        assert rows_b.cache_status == "hit"
        assert rows_a.rows is rows_b.rows
        built = [rows_a[pos] for pos in (0, 3, 100)]
        assert [rows_b[pos] for pos in (0, 3, 100)] == built
        assert all(a is b for a, b in zip(
            built, (rows_b[pos] for pos in (0, 3, 100))))
    finally:
        set_cache_enabled(previous)


def test_cache_consumer_streams_the_same_objects_in_order():
    db = small_db()
    engine, __, join, __ = late_rows(db)
    lazy = engine.output_of(join, "out").rows
    lazy.force()
    early = lazy[10]
    streamed = list(CacheNode(lazy).rows_iter())
    assert len(streamed) == len(lazy)
    assert all(a is b for a, b in zip(streamed, lazy.rows))
    assert streamed[10] is early


def test_downstream_selection_keeps_upstream_identity(no_lineage):
    # A columnar Restrict over a late-forced join reuses the join's batch
    # (no tuple built to read it) and its rows are the join's own tuples,
    # as on the row path.
    db = small_db()
    engine, __, join, keep = late_rows(
        db, RestrictBox(predicate="temperature > 70.0"))
    upstream = engine.output_of(join, "out").rows
    upstream.force()
    assert isinstance(upstream.rows, BatchRows)
    # The kernel's schema equals the lazy set's but is another object:
    # ToColumns must find the batch by equality.
    batch_schema = upstream.column_batch.schema
    assert batch_schema == upstream.schema
    assert batch_schema is not upstream.schema
    downstream = engine.output_of(keep, "out").rows
    assert isinstance(downstream, LazyRowSet)
    downstream.force()
    assert isinstance(downstream.rows, BatchRows)
    assert downstream.rows.batch.origin[0] is upstream.rows
    assert upstream.rows._missing == len(upstream)    # nothing built yet
    identities = {id(row) for row in upstream.rows}
    assert downstream.rows and all(id(row) in identities
                                   for row in downstream.rows)
    with row_backend():
        reference = Engine(engine.program, db, cache=False).output_of(
            keep, "out").rows.force()
    assert downstream.rows == reference


# ---------------------------------------------------------------------------
# The mechanism: tuples only for rows that paint
# ---------------------------------------------------------------------------


def test_post_update_frame_builds_tuples_for_painted_rows(monkeypatch,
                                                          no_lineage):
    db = small_db()
    session = FIGURES["fig8"](db).session
    session.pan_to("tempseries", 200.0, 300.0)
    session.set_elevation("tempseries", 150.0)
    session.window("tempseries").viewer.render()
    update_observation(db, random.Random(1))
    counter = CountingTuples(monkeypatch)
    result = session.window("tempseries").viewer.render()
    built = counter.count
    rendered = result.stats.tuples_rendered
    assert rendered >= 20 and result.stats.tuples_considered > 1000
    # One tuple per painted row, plus the one the shared display is
    # computed from; the whole join is thousands.
    assert built <= rendered + 4, (built, rendered)


# ---------------------------------------------------------------------------
# Table.replace_row
# ---------------------------------------------------------------------------


def test_replace_row_replaces_the_first_equal_row():
    schema = Schema([("n", "int"), ("v", "float")])
    table = Table("T", schema)
    table.insert_many([(1, 0.5), (2, 1.5), (2, 1.5), (3, 2.5)])
    first, second = list(table)[1:3]
    assert first == second and first is not second
    probe = Tuple(schema, (2, 1.5))
    assert table.replace_row(probe, Tuple(schema, (9, 9.0)))
    assert [row.values for row in table] == [
        (1, 0.5), (9, 9.0), (2, 1.5), (3, 2.5)]
    assert list(table)[2] is second
    other = Schema([("n", "int"), ("w", "float")])
    assert not table.replace_row(Tuple(other, (2, 1.5)),
                                 Tuple(schema, (0, 0.0)))
    assert [row.values for row in table][2] == (2, 1.5)
