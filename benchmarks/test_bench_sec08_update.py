"""Section 8: screen-object updates.

Times the full click-to-refresh loop: pick the screen object, run the update
dialog, install the new tuple with an SQL-style update, and re-render (the
table-version signature invalidates the whole demanded path), and gates the
frame after an update, which patches the previous result at the changed row,
against the same frame recomputed.
"""

from __future__ import annotations

import contextlib
import itertools
import statistics
import time

import pytest

import repro.dataflow.engine as engine_module
from repro.core.scenarios import FIGURES
from repro.data.weather import build_weather_database
from repro.dbms import update
from repro.ui.session import Session


@pytest.fixture()
def fresh_session():
    """A fresh, mutable database per benchmark (updates change it)."""
    db = build_weather_database(extra_stations=20, every_days=60)
    session = Session(db, "update-bench")
    stations = session.add_table("Stations")
    restrict = session.add_box("Restrict", {"predicate": "state = 'LA'"})
    session.connect(stations, "out", restrict, "in")
    set_x = session.add_box("SetAttribute", {"name": "x", "definition": "longitude"})
    session.connect(restrict, "out", set_x, "in")
    set_y = session.add_box("SetAttribute", {"name": "y", "definition": "latitude"})
    session.connect(set_x, "out", set_y, "in")
    display = session.add_box(
        "SetAttribute",
        {"name": "display", "definition": "filled_circle(3, 'blue')"},
    )
    session.connect(set_y, "out", display, "in")
    window = session.add_viewer(display, name="map", width=320, height=240)
    window.viewer.pan_to(-91.8, 31.0)
    window.viewer.set_elevation(8.0)
    window.viewer.render()
    return session, window


def test_sec08_click_update_rerender(benchmark, fresh_session):
    session, window = fresh_session
    counter = itertools.count(1)

    def click_and_update():
        result = window.viewer.render()
        item = result.all_items()[0]
        cx = (item.bbox[0] + item.bbox[2]) / 2
        cy = (item.bbox[1] + item.bbox[3]) / 2
        outcome = session.update_at(
            "map", cx, cy, {"altitude": f"{next(counter)}.0"}
        )
        window.viewer.render()  # refresh with the new table version
        return outcome

    outcome = benchmark(click_and_update)
    assert outcome.applied


def test_sec08_update_invalidates_downstream(benchmark, fresh_session):
    """The refresh is incremental: one table-version bump refires exactly
    the demanded pipeline, not an unrelated branch."""
    session, window = fresh_session
    # An unrelated branch over Observations that must stay cached.
    other = session.add_table("Observations")
    other_restrict = session.add_box(
        "Restrict", {"predicate": "temperature > 200.0"}
    )
    session.connect(other, "out", other_restrict, "in")
    session.inspect(other_restrict)
    fires_before = dict(session.engine.stats.fires)
    counter = itertools.count(1000)

    def update_once():
        result = window.viewer.render()
        item = result.all_items()[0]
        cx = (item.bbox[0] + item.bbox[2]) / 2
        cy = (item.bbox[1] + item.bbox[3]) / 2
        session.update_at("map", cx, cy, {"altitude": f"{next(counter)}.0"})
        window.viewer.render()
        session.inspect(other_restrict)  # still cached
        return session.engine.stats.fires

    fires_after = benchmark(update_once)
    assert fires_after[other_restrict] == fires_before[other_restrict]


# ---------------------------------------------------------------------------
# The frame after an update: patched versus recomputed
# ---------------------------------------------------------------------------

#: A frame after a §8 update recomputes its join and location columns when
#: the predecessor is dropped, and patches them when it is carried
#: (``repro.dbms.delta``).  The recomputed frame must take at least this
#: many times as long as the patched one.  On a 2-vCPU VM the median of the
#: rounds below read 1.93-2.00, and 1.00 (three runs) with carrying planted
#: to give up on every predecessor.
CARRY_MIN_RATIO = 1.5


@contextlib.contextmanager
def dropped_predecessors():
    """Engine demands inside the block drop the predecessor and run the
    plan, as before results were carried across updates."""
    original = engine_module.carry

    def drop(lazy):
        lazy.predecessor = None
        return None

    engine_module.carry = drop
    try:
        yield
    finally:
        engine_module.carry = original


def test_sec08_patched_vs_recomputed_frame_ratio():
    """Same process, same program: the fig8 time series after a temperature
    update, once through the carried result and once with the predecessor
    dropped.  Each round times both back to back, so host speed cancels
    out of its ratio; the median round is gated."""
    db = build_weather_database()
    session = FIGURES["fig8"](db).session
    session.pan_to("tempseries", 200.0, 300.0)
    session.set_elevation("tempseries", 150.0)
    session.render_frame("tempseries", format="png")
    observations = db.table("Observations")
    la_rows = [pos for pos, row in enumerate(observations)
               if row["station_id"] <= 18]
    steps = itertools.count()

    def frame_after_update() -> float:
        step = next(steps)
        row = observations.snapshot()[la_rows[(step * 97) % len(la_rows)]]
        assert update.generic_update(observations, row, update.ScriptedDialog(
            {"temperature": f"{40 + step % 50}.5"})).applied
        start = time.perf_counter()
        session.render_frame("tempseries", format="png")
        return time.perf_counter() - start

    def recomputed() -> float:
        with dropped_predecessors():
            return frame_after_update()

    for __ in range(3):
        frame_after_update()
        recomputed()
    ratios = []
    for __ in range(7):
        patched = min(frame_after_update() for __ in range(3))
        reference = min(recomputed() for __ in range(3))
        ratios.append(reference / patched)
    ratio = statistics.median(ratios)
    assert ratio >= CARRY_MIN_RATIO, (
        f"recomputed / patched post-update frame {ratio:.2f} < "
        f"{CARRY_MIN_RATIO} (rounds {[round(r, 2) for r in ratios]})")
