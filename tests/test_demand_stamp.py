"""The engine's demand stamp: a repeat demand of an unchanged program is a
memo lookup, and every change a box signature can see still reaches it.

Each memo entry carries the stamp it was last checked under (program edit
stamp, storage epoch, catalog version).  These tests keep one long-lived
engine across each kind of change and compare its answer with a fresh
engine's; they also pin the per-box firing counts of every paper figure,
which the stamp must not change.
"""

from __future__ import annotations

import pytest

from repro.core.scenarios import FIGURES
from repro.data.weather import build_weather_database
from repro.dataflow.boxes_db import AddTableBox, ProjectBox, RestrictBox
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

    def test_stamp_hit_keeps_the_span_and_the_hit_event(self, db):
        program = Program()
        *__, tail = chain(program)
        engine = Engine(program, db)
        engine.output_of(tail)
        with tracing() as tracer:
            engine.output_of(tail)
        (demand,) = tracer.finished("engine.demand")
        assert demand.attrs["box"] == tail
        hits = [e for e in tracer.events if e.name == "engine.cache.hit"]
        assert [e.attrs["box"] for e in hits] == [tail]
        assert tracer.finished("engine.fire") == []

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
