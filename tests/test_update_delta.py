"""Results carried across Section-8 updates equal a recompute.

After ``Table.replace_row`` the engine patches the previous demanded
result and its location columns at the changed rows instead of re-running
the plan (``repro.dbms.delta``).  These tests drive seeded random update
sequences through long-lived sessions of the fig8 program (the
``Observations ⋈ Stations`` time series and the Stations map with its
wormholes) and of fig4 (a Stations map with an Altitude slider), and after
every step compare each window against:

* a fresh session on the same database (fresh engine, result cache off):
  PNG bytes, rows and their order, location columns bit for bit, and the
  ``why`` base rows of painted marks;
* a fresh engine on the row backend (``row_backend()``): rows and order;
* a long-lived session whose engine never patches (the predecessor is
  dropped): PNG bytes, and per-box fire counts at the end.

A third program covers what the figures do not: a Restrict over the
late-forced join (its result's rows travel as positions into the join's)
and a Project under a Restrict.  The sequences mix value-only updates, join-key changes, Stations updates
that keep or flip the ``state = 'LA'`` Restrict, rows outside the join,
several updates between frames, inserts, and a drop and re-create.  Under
lineage capture (the ``REPRO_LINEAGE=1`` leg) every demand recomputes, and
the sequences check that fallback; the tests of the carried path itself
switch capture off.
"""

from __future__ import annotations

import contextlib
import gc
import random
import tracemalloc
import weakref

import numpy as np
import pytest

import repro.dataflow.engine as engine_module
from repro.api import PanTo, SetElevation, SetSlider
from repro.core.scenarios import FIGURES
from repro.data.weather import build_weather_database
from repro.dataflow.engine import Engine
from repro.dbms.relation import Table
from repro.dbms.update import ScriptedDialog, generic_update
from repro.display.displayable import Composite, DisplayableRelation, Group
from repro.obs.lineage import active_lineage, why
from repro.render import scene

from png_reference import decode
from row_reference import row_backend

LA_STATIONS = 18


def small_db():
    return build_weather_database(extra_stations=10, every_days=60)


@pytest.fixture()
def no_lineage(monkeypatch):
    """Lineage capture off, also under the ``REPRO_LINEAGE=1`` leg: a
    capture records its mappings by executing, so it never patches."""
    monkeypatch.setattr("repro.obs.lineage._ACTIVE", None)
    monkeypatch.setattr("repro.obs.lineage._DEFAULT_CONFIG", None)


@contextlib.contextmanager
def no_carry():
    """Engine demands inside the block drop the predecessor and run the
    plan: the behaviour before results were carried across updates."""
    original = engine_module.carry

    def drop(lazy):
        lazy.predecessor = None
        return None

    engine_module.carry = drop
    try:
        yield
    finally:
        engine_module.carry = original


def build_derived(db):
    """The LA join as a time series, hot observations (a Restrict over the
    join, demanded after it, so it selects from the join's batch) and a
    map of LA station names through a Project."""
    from repro.ui.session import Session

    session = Session(db, "derived")
    observations = session.add_table("Observations")
    stations = session.add_table("Stations")
    la_only = session.add_box("Restrict", {"predicate": "state = 'LA'"})
    session.connect(stations, "out", la_only, "in")
    join = session.add_box(
        "Join", {"left_key": "station_id", "right_key": "station_id"})
    session.connect(observations, "out", join, "left")
    session.connect(la_only, "out", join, "right")
    tail = join
    for name, definition in (
            ("x", "((year(obs_date) - 1985) * 365 + day_of_year(obs_date))"
                  " * 0.1"),
            ("y", "station_id * 60.0 + temperature * 0.4"),
            ("display", "filled_circle(1, 'red')")):
        box = session.add_box("SetAttribute",
                              {"name": name, "definition": definition})
        session.connect(tail, "out", box, "in")
        tail = box
    session.add_viewer(tail, name="tempseries", width=320, height=240)
    hot = session.add_box("Restrict", {"predicate": "temperature > 60.0"})
    session.connect(join, "out", hot, "in")
    tail = hot
    for name, definition in (
            ("x", "longitude + day_of_year(obs_date) * 0.001"),
            ("y", "latitude + temperature * 0.01"),
            ("display", "filled_circle(2, 'red')")):
        box = session.add_box("SetAttribute",
                              {"name": name, "definition": definition})
        session.connect(tail, "out", box, "in")
        tail = box
    session.add_viewer(tail, name="hot", width=320, height=240)
    keep = session.add_box("Project", {"fields": [
        "station_id", "name", "state", "longitude", "latitude"]})
    session.connect(session.add_table("Stations"), "out", keep, "in")
    named = session.add_box("Restrict", {"predicate": "state = 'LA'"})
    session.connect(keep, "out", named, "in")
    tail = named
    for name, definition in (("x", "longitude"), ("y", "latitude"),
                             ("display", "text_of(name)")):
        box = session.add_box("SetAttribute",
                              {"name": name, "definition": definition})
        session.connect(tail, "out", box, "in")
        tail = box
    session.add_viewer(tail, name="names", width=320, height=240)
    return session


PROGRAMS = {
    "fig8": lambda db: FIGURES["fig8"](db).session,
    "fig4": lambda db: FIGURES["fig4"](db).session,
    "derived": build_derived,
}


def relations(value):
    """The displayable relations inside a demanded value, in order."""
    if isinstance(value, DisplayableRelation):
        return [value]
    if isinstance(value, Composite):
        return [entry.relation for entry in value.entries]
    if isinstance(value, Group):
        return [rel for __, member in value.members
                for rel in relations(member)]
    return []


def random_view(rng, program, window):
    if window == "tempseries":
        station = rng.randint(1, LA_STATIONS)
        return [PanTo(window=window, cx=rng.uniform(0.0, 401.0),
                      cy=station * 60.0 + rng.uniform(0.0, 50.0)),
                SetElevation(window=window,
                             elevation=rng.uniform(60.0, 200.0))]
    commands = [PanTo(window=window, cx=rng.uniform(-94.0, -89.0),
                      cy=rng.uniform(29.0, 33.0)),
                SetElevation(window=window,
                             elevation=rng.uniform(1.0, 12.0))]
    if program == "fig4":
        low = rng.uniform(0.0, 150.0)
        commands.append(SetSlider(window=window, dim="Altitude", low=low,
                                  high=low + rng.uniform(50.0, 300.0)))
    return commands


# -- updates ------------------------------------------------------------------


def _replace(table, position, **changes):
    row = table.snapshot()[position]
    answers = {name: str(value) for name, value in changes.items()}
    assert generic_update(table, row, ScriptedDialog(answers)).applied


def obs_value(rng, db):
    """A temperature edit, in or outside the join (non-LA stations)."""
    table = db.table("Observations")
    _replace(table, rng.randrange(len(table)),
             temperature=round(rng.uniform(30.0, 95.0), 1))


def obs_key(rng, db):
    """Move an observation to another station: the join key changes."""
    table = db.table("Observations")
    stations = len(db.table("Stations"))
    _replace(table, rng.randrange(len(table)),
             station_id=rng.randint(1, stations))


def station_value(rng, db):
    """An altitude or name edit that keeps the Restrict's verdict."""
    table = db.table("Stations")
    position = rng.randrange(len(table))
    if rng.random() < 0.5:
        _replace(table, position, altitude=round(rng.uniform(0.0, 400.0), 1))
    else:
        _replace(table, position, name=f"Renamed{rng.randrange(1000)}")


def station_flip(rng, db):
    """Move a station into or out of Louisiana: the Restrict flips."""
    table = db.table("Stations")
    position = rng.randrange(len(table))
    state = table.snapshot()[position]["state"]
    _replace(table, position, state="TX" if state == "LA" else "LA")


def several(rng, db):
    for __ in range(rng.randint(2, 4)):
        rng.choice((obs_value, obs_value, station_value))(rng, db)


def insert(rng, db):
    table = db.table("Observations")
    row = table.snapshot()[rng.randrange(len(table))]
    table.insert(row.replace(
        temperature=round(rng.uniform(30.0, 95.0), 1)).values)


def recreate(rng, db):
    """Drop Stations and create it again with the same rows."""
    del rng
    old = db.table("Stations")
    db.drop_table("Stations")
    table = Table("Stations", old.schema)
    table.insert_many(row.values for row in old)
    db.add_table(table)


UPDATES = (obs_value, obs_value, obs_value, obs_key, station_value,
           station_value, station_flip, several, insert, recreate)


# -- checks -------------------------------------------------------------------


def pixels_differ(got: bytes, want: bytes) -> int:
    return int(np.count_nonzero((decode(got) != decode(want)).any(axis=-1)))


def check_window(session, reference, db, name):
    """One window of the long-lived ``session`` against a fresh
    ``reference`` session and the row backend (views already set)."""
    got = session.render_frame(name, format="png").data_bytes()
    want = reference.render_frame(name, format="png").data_bytes()
    assert got == want, f"{name}: {pixels_differ(got, want)} pixels differ"

    window = session.window(name)
    mine = relations(window.viewer.displayable())
    fresh = relations(reference.window(name).viewer.displayable())
    with row_backend():
        rowwise = relations(Engine(session.program, db, cache=False)
                            .inputs_of(window.viewer_box_id)["in"])
    assert len(mine) == len(fresh) == len(rowwise)
    patched = 0
    for carried, recomputed, row_path in zip(mine, fresh, rowwise):
        assert tuple(carried.rows) == tuple(recomputed.rows)
        assert tuple(carried.rows) == tuple(row_path.rows)
        patched += getattr(carried.rows, "cache_status", None) == "patched"
        if carried.rows.location_memo is None:
            continue    # culled by elevation: never located
        columns = scene.location_columns(carried)
        expected = scene._evaluate_locations(recomputed)
        assert len(columns) == len(expected)
        for column, want_column in zip(columns, expected):
            assert column.tobytes() == want_column.tobytes()

    items = [item for item in window.viewer.last_result.all_items()
             if item.relation_name == mine[-1].name]
    width, height = window.viewer.width, window.viewer.height
    for item in items[:: max(1, len(items) // 3)][:3]:
        px = (item.bbox[0] + item.bbox[2]) / 2.0
        py = (item.bbox[1] + item.bbox[3]) / 2.0
        if not (0 <= px < width and 0 <= py < height):
            continue
        assert (why(window.viewer, px, py)["rows"]
                == why(reference.window(name).viewer, px, py)["rows"])
    return patched


def run_sequence(program: str, seed: int, steps: int) -> int:
    rng = random.Random(f"update-delta:{program}:{seed}")
    db = small_db()
    session = PROGRAMS[program](db)
    plain = PROGRAMS[program](db)    # never patches
    windows = list(session.windows)
    patched = 0
    for step in range(steps):
        update = UPDATES[rng.randrange(len(UPDATES))] if step else None
        if update is not None:
            update(rng, db)
        reference = PROGRAMS[program](db)
        for name in windows:
            view = random_view(rng, program, name)
            for target in (session, plain, reference):
                for command in view:
                    target.execute(command)
            patched += check_window(session, reference, db, name)
            with no_carry():
                unpatched = plain.render_frame(name, format="png")
            assert (unpatched.data_bytes()
                    == session.render_frame(name, format="png").data_bytes())
    assert session.engine.stats.fires == plain.engine.stats.fires
    return patched


@pytest.mark.parametrize("seed", range(4))
def test_fig8_sequences_match_a_recompute(seed):
    patched = run_sequence("fig8", seed, steps=14)
    # The carried path ran, not only the fallback.
    assert patched or active_lineage() is not None


@pytest.mark.parametrize("seed", range(2))
def test_fig4_sequences_match_a_recompute(seed):
    patched = run_sequence("fig4", seed, steps=12)
    assert patched or active_lineage() is not None


@pytest.mark.parametrize("seed", range(2))
def test_derived_sequences_match_a_recompute(seed):
    patched = run_sequence("derived", seed, steps=12)
    assert patched or active_lineage() is not None


# -- which updates carry ------------------------------------------------------


def series_session(db):
    session = FIGURES["fig8"](db).session
    session.pan_to("tempseries", 200.0, 300.0)
    session.set_elevation("tempseries", 150.0)
    session.render_frame("tempseries", format="png")
    return session


def series_rows(session):
    return session.window("tempseries").viewer.displayable().rows


@pytest.mark.parametrize("update, status", [
    (lambda db: _replace(db.table("Observations"), 40, temperature=51.5),
     "patched"),
    (lambda db: _replace(db.table("Stations"), 2, altitude=12.5), "patched"),
    (lambda db: _replace(db.table("Stations"), 2, state="TX"), None),
    (lambda db: _replace(db.table("Observations"), 40, station_id=3), None),
    (lambda db: db.table("Observations").insert(
        db.table("Observations").snapshot()[0].values), None),
])
def test_only_mappable_updates_carry(update, status, no_lineage):
    db = small_db()
    session = series_session(db)
    update(db)
    session.render_frame("tempseries", format="png")
    assert series_rows(session).cache_status == status


def test_a_value_update_patches_one_row_and_shares_columns(no_lineage):
    db = small_db()
    session = series_session(db)
    before = series_rows(session)
    old_columns = scene.location_columns(
        session.window("tempseries").viewer.displayable())
    observations = db.table("Observations")
    position = next(pos for pos, row in enumerate(observations)
                    if row["station_id"] == 4)
    _replace(observations, position, temperature=33.3)
    session.render_frame("tempseries", format="png")
    after = series_rows(session)
    (changed,) = after.delta[1].tolist()
    assert after.delta[0]() is before
    assert after[changed]["temperature"] == 33.3
    batch, old_batch = after.column_batch, before.column_batch
    assert batch.column("temperature") is not old_batch.column("temperature")
    assert batch.column("obs_date") is old_batch.column("obs_date")
    x, y = scene.location_columns(
        session.window("tempseries").viewer.displayable())
    assert x is old_columns[0]    # the date did not move
    assert y is not old_columns[1]
    assert np.count_nonzero(y != old_columns[1]) == 1


def test_explain_reads_patched(no_lineage):
    from repro.dataflow.explain import explain_data

    db = small_db()
    session = series_session(db)
    _replace(db.table("Observations"), 40, temperature=51.5)
    session.render_frame("tempseries", format="png")
    data = explain_data(session.program, engine=session.engine)
    statuses = [plan["cache"] for box in data["boxes"]
                for output in box.get("outputs", ())
                for plan in output["plans"]]
    assert "patched" in statuses


def test_demand_span_records_the_patched_rows(no_lineage):
    from repro.obs.trace import Tracer, push_tracer

    db = small_db()
    session = series_session(db)
    observations = db.table("Observations")
    position = next(pos for pos, row in enumerate(observations)
                    if row["station_id"] == 4)
    _replace(observations, position, temperature=61.5)
    tracer = Tracer()
    with push_tracer(tracer):
        session.render_frame("tempseries", format="png")
    demands = tracer.finished("engine.demand")
    assert [span.attrs.get("patched") for span in demands
            if "patched" in span.attrs] == [1]


# -- memory -------------------------------------------------------------------


def test_memory_stays_flat_over_200_updates(no_lineage):
    db = small_db()
    session = series_session(db)
    viewer = session.window("tempseries").viewer
    observations = db.table("Observations")
    la_rows = [pos for pos, row in enumerate(observations)
               if row["station_id"] <= LA_STATIONS]
    results, snapshots = [], []
    statuses = set()

    def cycle(step):
        _replace(observations, la_rows[(step * 37) % len(la_rows)],
                 temperature=40.0 + step % 50)
        session.render_frame("tempseries", format="png")
        rows = viewer.displayable().rows
        statuses.add(rows.cache_status)
        results.append(weakref.ref(rows))
        snapshots.append(weakref.ref(observations.snapshot()))

    for step in range(50):
        cycle(step)
    # Memory at two points of the steady state: one frame's canvas or
    # display list more or less is noise, a retained generation is not.
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
    assert statuses == {"patched"}
    assert sum(ref() is not None for ref in results) <= 2
    assert sum(ref() is not None for ref in snapshots) <= 2
    assert sizes[1] - sizes[0] < 256 * 1024, sizes


def test_lineage_capture_recomputes(monkeypatch):
    """Capture records its mappings by executing, so a demand under it
    never patches."""
    monkeypatch.setattr("repro.obs.lineage._ACTIVE", None)
    monkeypatch.setattr("repro.obs.lineage._DEFAULT_CONFIG", None)
    db = small_db()
    session = series_session(db)
    session.engine.lineage = engine_module.resolve_lineage_config(True)
    _replace(db.table("Observations"), 40, temperature=51.5)
    session.render_frame("tempseries", format="png")
    assert series_rows(session).cache_status is None
