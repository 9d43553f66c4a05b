"""The engine's demand stamp: a repeat demand of an unchanged program is a
memo lookup, and every change a box signature can see still reaches it.

Each memo entry carries the stamp it was last checked under (program edit
stamp, storage epoch, catalog version).  These tests keep one long-lived
engine across each kind of change and compare its answer with a fresh
engine's; they also pin the per-box firing counts of every paper figure,
which the stamp must not change.
"""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from repro.core.scenarios import FIGURES
from repro.data.weather import build_weather_database
from repro.dataflow.boxes_db import AddTableBox, ProjectBox, RestrictBox, TBox
from repro.dataflow.engine import Engine
from repro.dataflow.graph import Edge, Program
from repro.dbms.catalog import Database
from repro.dbms.tuples import Schema
from repro.dbms.update import ScriptedDialog, generic_update
from repro.obs.trace import tracing

SCHEMA = Schema([("name", "text"), ("value", "int")])


@pytest.fixture()
def db() -> Database:
    database = Database()
    database.create_table("T", SCHEMA).insert_many(
        [{"name": "a", "value": 1}, {"name": "b", "value": 2}])
    database.create_table("U", SCHEMA).insert_many(
        [{"name": "u", "value": 9}])
    return database


def chain(program: Program) -> tuple[int, int, int]:
    src = program.add_box(AddTableBox(table="T"))
    mid = program.add_box(RestrictBox(predicate="value > 1"))
    tail = program.add_box(ProjectBox(fields=["name"]))
    program.connect(src, "out", mid, "in")
    program.connect(mid, "out", tail, "in")
    return src, mid, tail


def names(value) -> list[str]:
    return [row["name"] for row in value.rows]


def fresh(program: Program, db: Database, box_id: int, **kwargs) -> list[str]:
    return names(Engine(program, db, **kwargs).output_of(box_id))


def count_signature_walks(monkeypatch) -> list[int]:
    calls = [0]
    original = Engine._signature_of

    def counted(self, box_id, visiting):
        calls[0] += 1
        return original(self, box_id, visiting)

    monkeypatch.setattr(Engine, "_signature_of", counted)
    return calls


class TestRepeatDemand:
    def test_unchanged_program_skips_the_signature_walk(self, db, monkeypatch):
        program = Program()
        *__, tail = chain(program)
        engine = Engine(program, db)
        assert names(engine.output_of(tail)) == ["b"]
        calls = count_signature_walks(monkeypatch)
        for __ in range(5):
            assert names(engine.output_of(tail)) == ["b"]
        assert calls[0] == 0
        assert engine.stats.hits[tail] == 5
        assert engine.stats.total_fires() == 3

    def test_forced_stamp_hit_is_a_lookup_without_span_or_event(self, db):
        program = Program()
        src, mid, tail = chain(program)
        engine = Engine(program, db)
        first = engine.output_of(tail)
        fires = dict(engine.stats.fires)
        hits = dict(engine.stats.hits)
        with tracing() as tracer:
            again = engine.output_of(tail)
        assert again is first
        assert tracer.finished("engine.fire") == []
        assert tracer.finished("engine.demand") == []
        assert [e for e in tracer.events if e.name == "engine.cache.hit"] == []
        assert tracer.finished() == []
        assert dict(engine.stats.fires) == fires
        assert engine.stats.hits[tail] == hits.get(tail, 0) + 1
        assert {box: count for box, count in engine.stats.hits.items()
                if box != tail} == {box: count for box, count in hits.items()
                                    if box != tail}
        # Unnamed port: the single output resolves as before.
        with tracing() as tracer:
            assert engine.output_of(tail, None) is first
            assert engine.output_of(tail, "out") is first
        assert tracer.finished() == []
        assert engine.stats.hits[tail] == hits.get(tail, 0) + 3

    def test_stale_stamp_rechecks_by_signature_then_restamps(
            self, db, monkeypatch):
        program = Program()
        *__, tail = chain(program)
        engine = Engine(program, db)
        engine.output_of(tail)
        db.table("U").insert({"name": "v", "value": 3})  # not read here
        calls = count_signature_walks(monkeypatch)
        assert names(engine.output_of(tail)) == ["b"]
        walked = calls[0]
        assert walked > 0
        assert names(engine.output_of(tail)) == ["b"]
        assert calls[0] == walked  # re-stamped: the next demand is a lookup
        assert engine.stats.total_fires() == 3


def demands_traced(engine: Engine, box_id: int) -> int:
    """Demand ``box_id`` under a tracer; the number of ``engine.demand``
    spans it opened (1 when the demand ran, 0 for a lookup)."""
    with tracing() as tracer:
        engine.output_of(box_id)
    return len(tracer.finished("engine.demand"))


class TestLookupIsNotTaken:
    """Every change a signature can see sends the next demand down the
    evaluating path (one ``engine.demand`` span); the demand after that is
    a lookup again."""

    @pytest.mark.parametrize("change", [
        "param", "rewire", "update_read", "update_absorbed",
        "create_table", "drop_table", "invalidate_box", "invalidate_all",
    ])
    def test_after_change(self, db, change):
        program = Program()
        src, mid, tail = chain(program)
        engine = Engine(program, db)
        engine.output_of(tail)
        assert demands_traced(engine, tail) == 0
        expected = ["b"]
        if change == "param":
            program.box(mid).set_param("predicate", "value > 0")
            expected = ["a", "b"]
        elif change == "rewire":
            program.disconnect(Edge(mid, "out", tail, "in"))
            program.connect(src, "out", tail, "in")
            expected = ["a", "b"]
        elif change == "update_read":
            _generic_update(program, db, {})
            expected = ["a", "b"]
        elif change == "update_absorbed":
            # U is not read: T's signature absorbs the epoch, so the entry
            # is re-stamped without firing.
            _insert_unread(program, db, {})
        elif change == "create_table":
            db.create_table("V", SCHEMA)
        elif change == "drop_table":
            db.drop_table("U")
        elif change == "invalidate_box":
            engine.invalidate(mid)
        else:
            engine.invalidate()
        fires = engine.stats.total_fires()
        assert demands_traced(engine, tail) == 1
        assert names(engine.output_of(tail)) == expected
        assert names(engine.output_of(tail)) == fresh(program, db, tail)
        assert demands_traced(engine, tail) == 0
        if change in ("update_absorbed", "create_table", "drop_table"):
            assert engine.stats.total_fires() == fires

    def test_restamped_entry_returns_the_same_value(self, db):
        program = Program()
        *__, tail = chain(program)
        engine = Engine(program, db)
        first = engine.output_of(tail)
        _insert_unread(program, db, {})
        assert engine.output_of(tail) is first
        assert demands_traced(engine, tail) == 0

    def test_failed_force_raises_again(self, db):
        from repro.errors import EvaluationError

        program = Program()
        src = program.add_box(AddTableBox(table="T"))
        # Row a (value 1) passes; row b (value 2) divides by zero.
        bad = program.add_box(RestrictBox(predicate="value / (2 - value) > 0"))
        program.connect(src, "out", bad, "in")
        engine = Engine(program, db)
        with pytest.raises(EvaluationError):
            engine.output_of(bad)
        fires = engine.stats.total_fires()
        for __ in range(2):
            with tracing() as tracer:
                with pytest.raises(EvaluationError):
                    engine.output_of(bad)
            assert len(tracer.finished("engine.demand")) == 1
        assert engine.stats.total_fires() == fires

    def test_refired_upstream_starts_unmarked(self, db):
        # mid re-fires as tail's upstream after the update; its new output
        # was streamed by tail's plan but never demanded (forced) itself.
        program = Program()
        src, mid, tail = chain(program)
        engine = Engine(program, db)
        engine.output_of(mid)
        engine.output_of(tail)
        _generic_update(program, db, {})
        engine.output_of(tail)
        assert demands_traced(engine, mid) == 1
        value = engine.output_of(mid)
        assert value.rows.is_materialized
        assert names(value) == ["a", "b"]

    def test_other_ports_are_demanded_on_their_own(self, db):
        program = Program()
        src = program.add_box(AddTableBox(table="T"))
        tee = program.add_box(TBox())
        program.connect(src, "out", tee, "in")
        engine = Engine(program, db)
        engine.output_of(tee, "out1")
        assert demands_traced_port(engine, tee, "out1") == 0
        assert demands_traced_port(engine, tee, "out2") == 1
        assert demands_traced_port(engine, tee, "out2") == 0


def demands_traced_port(engine: Engine, box_id: int, port: str) -> int:
    with tracing() as tracer:
        engine.output_of(box_id, port)
    return len(tracer.finished("engine.demand"))


def test_why_after_a_lookup_reaches_the_same_base_rows():
    from repro.obs.lineage import why

    db = build_weather_database(extra_stations=5, every_days=120)
    session = FIGURES["fig7"](db).session
    session.engine = Engine(session.program, db, lineage=True)
    session.render_frame("map", format="png")
    item = session.window("map").viewer.last_result.all_items()[0]
    px = (item.bbox[0] + item.bbox[2]) / 2
    py = (item.bbox[1] + item.bbox[3]) / 2
    before = why(session.window("map"), px, py)
    assert before["picked"] and before["complete"] and before["rows"]
    with tracing() as tracer:
        session.render_frame("map", format="png")
    assert tracer.finished("engine.demand") == []
    after = why(session.window("map"), px, py)
    assert after["rows"] == before["rows"]
    assert after["mark"] == before["mark"]


def test_superseded_outputs_die_over_200_series_updates(monkeypatch):
    """Forced marks live in the memo entry, so a re-fire drops them with
    the outputs they name: nothing keeps a superseded output alive."""
    db = build_weather_database(extra_stations=5, every_days=120)
    session = FIGURES["fig8"](db).session
    observations = db.table("Observations")
    la_rows = [pos for pos, row in enumerate(observations)
               if row["station_id"] <= 18]
    viewer = session.window("tempseries").viewer
    rng = random.Random(29)
    outputs = []
    for __ in range(200):
        row = observations.snapshot()[rng.choice(la_rows)]
        answers = {"temperature": str(round(rng.uniform(40.0, 89.0), 1))}
        assert generic_update(observations, row,
                              ScriptedDialog(answers)).applied
        session.render_frame("tempseries", format="png")
        session.render_frame("tempseries", format="png")  # a lookup
        outputs.append(weakref.ref(viewer.displayable().rows))
    gc.collect()
    assert sum(ref() is not None for ref in outputs) <= 2


def _set_param(program, db, ids):
    program.box(ids["mid"]).set_param("predicate", "value > 0")
    return ["a", "b"]


def _rewire(program, db, ids):
    program.disconnect(Edge(ids["mid"], "out", ids["tail"], "in"))
    program.connect(ids["src"], "out", ids["tail"], "in")
    return ["a", "b"]


def _disconnect_reconnect(program, db, ids):
    other = program.add_box(RestrictBox(predicate="value < 2"))
    program.connect(ids["src"], "out", other, "in")
    program.disconnect(Edge(ids["mid"], "out", ids["tail"], "in"))
    program.connect(other, "out", ids["tail"], "in")
    return ["a"]


def _replace_box(program, db, ids):
    program.replace_box(ids["mid"], RestrictBox(predicate="value < 2"))
    return ["a"]


def _generic_update(program, db, ids):
    table = db.table("T")
    row = next(row for row in table if row["name"] == "a")
    generic_update(table, row, ScriptedDialog({"value": "5"}))
    return ["a", "b"]


def _insert_unread(program, db, ids):
    db.table("U").insert({"name": "v", "value": 3})
    return ["b"]


def _drop_recreate(program, db, ids):
    # Same name, same version count as the dropped table: only the
    # table's serial tells the two apart.
    db.drop_table("T")
    db.create_table("T", SCHEMA).insert_many(
        [{"name": "zzz", "value": 7}, {"name": "yyy", "value": 0}])
    return ["zzz"]


def _recreate_empty(program, db, ids):
    # No row is written, so the storage epoch stands still: only the
    # catalog version moves.
    db.drop_table("T")
    db.create_table("T", SCHEMA)
    return []


def _invalidate(program, db, ids):
    ids["engine"].invalidate()
    return ["b"]


CHANGES = [_set_param, _rewire, _disconnect_reconnect, _replace_box,
           _generic_update, _insert_unread, _drop_recreate, _recreate_empty,
           _invalidate]


@pytest.mark.parametrize("lineage", [False, True], ids=["plain", "lineage"])
@pytest.mark.parametrize("cache", [False, True], ids=["nocache", "cache"])
@pytest.mark.parametrize("change", CHANGES, ids=lambda f: f.__name__[1:])
def test_long_lived_engine_matches_a_fresh_one(db, change, cache, lineage):
    program = Program()
    src, mid, tail = chain(program)
    engine = Engine(program, db, cache=cache, lineage=lineage)
    assert names(engine.output_of(tail)) == ["b"]
    assert names(engine.output_of(tail)) == ["b"]  # stamped hit
    ids = {"src": src, "mid": mid, "tail": tail, "engine": engine}
    expected = change(program, db, ids)
    assert fresh(program, db, tail, cache=cache, lineage=lineage) == expected
    assert names(engine.output_of(tail)) == expected
    assert names(engine.output_of(tail)) == expected  # and once stamped


def test_unread_insert_fires_nothing(db):
    program = Program()
    *__, tail = chain(program)
    engine = Engine(program, db)
    engine.output_of(tail)
    before = dict(engine.stats.fires)
    _insert_unread(program, db, {})
    engine.output_of(tail)
    assert dict(engine.stats.fires) == before


def test_recreated_table_is_not_served_from_the_memo(db):
    # Regression: AddTable's signature was ("table", name, version), so a
    # table dropped and re-created under the same name that reached the
    # same version got the old table's rows from the memo.
    program = Program()
    src = program.add_box(AddTableBox(table="T"))
    engine = Engine(program, db)
    assert names(engine.output_of(src)) == ["a", "b"]
    db.drop_table("T")
    db.create_table("T", SCHEMA).insert_many([{"name": "zzz", "value": 0}])
    assert db.table("T").version == 1
    assert names(engine.output_of(src)) == ["zzz"]


def test_swapped_in_box_of_the_same_type_is_not_served_from_the_memo(db):
    # Regression: the signature held a box's type and version but nothing
    # naming the box, so a replaced box (same id, version 0 again) or an
    # input rewired to another box of the same type and version kept the
    # old box's rows.
    program = Program()
    src, mid, tail = chain(program)
    engine = Engine(program, db)
    assert names(engine.output_of(tail)) == ["b"]
    other = program.add_box(RestrictBox(predicate="value < 2"))
    program.connect(src, "out", other, "in")
    program.disconnect(Edge(mid, "out", tail, "in"))
    program.connect(other, "out", tail, "in")
    assert names(engine.output_of(tail)) == ["a"]
    program.replace_box(mid, RestrictBox(predicate="value < 0"))
    assert names(engine.output_of(mid)) == []


def test_table_serials_are_unique(db):
    first = db.table("T")
    db.drop_table("T")
    second = db.create_table("T", SCHEMA)
    assert first.serial != second.serial
    assert len({t.serial for t in db.tables()}) == len(db.table_names())


@pytest.mark.parametrize("action", ["create", "add", "drop"])
def test_catalog_edits_advance_the_catalog_version(db, action):
    from repro.dbms.relation import Table

    before = db.catalog_version
    if action == "create":
        db.create_table("V", SCHEMA)
    elif action == "add":
        db.add_table(Table("W", SCHEMA))
    else:
        db.drop_table("U")
    assert db.catalog_version > before


# ---------------------------------------------------------------------------
# Firing counts of the paper figures
# ---------------------------------------------------------------------------


def _once(last: int, skip: tuple[int, ...] = ()) -> dict[int, int]:
    return {box: 1 for box in range(1, last + 1) if box not in skip}


#: Per-box fires after rendering every window of each figure twice; the
#: values the engine produced before the demand stamp existed.
FIGURE_FIRES = {
    "fig1": _once(3),
    "fig4": _once(6),
    "fig7": _once(19),
    "fig8": _once(45, skip=(8,)),
    "fig9": _once(12),
    "fig10": _once(15),
    "fig11": _once(8),
}


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_figure_fire_counts_are_unchanged(figure):
    db = build_weather_database(extra_stations=5, every_days=120)
    session = FIGURES[figure](db).session
    for window in sorted(session.windows):
        session.render_frame(window, format="png")
        session.render_frame(window, format="png")
    assert dict(session.engine.stats.fires) == FIGURE_FIRES[figure]
