"""Integration tests: EXPLAIN and the per-box engine accounting."""

from __future__ import annotations

import json

import pytest

from repro.data.weather import build_weather_database
from repro.dataflow.boxes_db import AddTableBox, JoinBox, RestrictBox
from repro.dataflow.engine import Engine
from repro.dataflow.explain import (
    deterministic_order,
    explain,
    explain_data,
    output_plans,
)
from repro.dataflow.graph import Program
from repro.dbms import plan as P
from repro.dbms import types as T
from repro.dbms.catalog import Database
from repro.dbms.plan import LazyRowSet, Schema
from repro.errors import TypeCheckError


def small_db():
    return build_weather_database(extra_stations=5, every_days=120)


def restrict_program():
    program = Program()
    src = program.add_box(AddTableBox(table="Stations"))
    keep = program.add_box(RestrictBox(predicate="state = 'LA'"))
    program.connect(src, "out", keep, "in")
    return program, src, keep


class TestExplain:
    def test_shows_per_operator_row_counts(self):
        program, __, keep = restrict_program()
        text = explain(program, small_db())
        assert "Restrict[(state = 'LA')]" in text
        assert "in=" in text and "out=" in text
        assert "EngineStats:" in text

    def test_limits_to_one_box(self):
        program, src, keep = restrict_program()
        text = explain(program, small_db(), box_id=keep)
        assert "Restrict[(state = 'LA')]" in text
        assert f"== AddTable 'Stations' #{src}" not in text

    def test_warm_engine_shows_hot_caches(self):
        program = Program()
        src = program.add_box(AddTableBox(table="Stations"))
        first = program.add_box(RestrictBox(predicate="state = 'LA'"))
        second = program.add_box(RestrictBox(predicate="altitude > 0.0"))
        program.connect(src, "out", first, "in")
        program.connect(first, "out", second, "in")
        engine = Engine(program, small_db())
        engine.output_of(second)
        text = explain(program, engine=engine)
        # The downstream box's fragment re-enters the upstream box's
        # already-forced output through a hot cache boundary.
        assert "Cache[" in text and "hot" in text

    def test_fig7_has_joinless_plan_trees(self):
        # The acceptance scenario: fig7's overlay program explains with
        # per-operator rows-in/rows-out for every box-emitted fragment.
        from repro.core.scenarios import build_fig7_overlay

        db = build_weather_database(extra_stations=10, every_days=60)
        scenario = build_fig7_overlay(db)
        session = scenario.session
        text = explain(session.program, session.database, engine=session.engine)
        assert text.count("Restrict[(state = 'LA')]") >= 2
        assert "Scan[Stations]" in text

    def test_join_plan_tree(self):
        program = Program()
        obs = program.add_box(AddTableBox(table="Observations"))
        sta = program.add_box(AddTableBox(table="Stations"))
        join = program.add_box(JoinBox(left_key="station_id",
                                       right_key="station_id"))
        program.connect(obs, "out", join, "left")
        program.connect(sta, "out", join, "right")
        engine = Engine(program, small_db())
        value = engine.output_of(join)
        plans = list(output_plans(value))
        assert len(plans) == 1
        __, lazy = plans[0]
        assert isinstance(lazy, LazyRowSet)
        root = lazy.plan
        # The optimizer runs the numeric-key join columnar, behind backend
        # adapters; the join node itself describes the same.
        while root.label in ("ToRows", "ToColumns"):
            (root,) = root.children
        assert root.describe() == "HashJoin[station_id = station_id]"
        assert root.stats.rows_out == len(value.rows)


def _walk(tree):
    yield tree
    for child in tree["children"]:
        yield from _walk(child)


class TestExplainData:
    def test_structure_and_json_round_trip(self):
        program, src, keep = restrict_program()
        data = explain_data(program, small_db())
        assert data["program"] == program.name
        assert [entry["box"] for entry in data["boxes"]] == [src, keep]
        keep_entry = data["boxes"][1]
        assert keep_entry["type"] == "Restrict"
        (output,) = keep_entry["outputs"]
        assert output["port"] == "out"
        (plan,) = output["plans"]
        # A columnarized Restrict sits below a ToRows adapter; the
        # operator entry itself is backend-independent.
        root = next(node for node in _walk(plan["tree"])
                    if "Restrict" in node["describe"])
        assert root["op"]
        assert set(root["stats"]) == {
            "rows_in", "rows_out", "batches", "opens",
            "rows_buffered", "wall_ms",
        }
        assert root["stats"]["rows_out"] <= root["stats"]["rows_in"]
        assert data["engine"]["total_fires"] == 2
        json.loads(json.dumps(data))  # fully JSON-serializable

    def test_preorder_node_ids(self):
        program, __, keep = restrict_program()
        data = explain_data(program, small_db(), box_id=keep)
        (root,) = [p["tree"] for b in data["boxes"]
                   for o in b["outputs"] for p in o["plans"]]
        ids = [node["id"] for node in _walk(root)]
        assert ids == list(range(len(ids)))

    def test_deterministic_order_breaks_ties_by_id(self):
        # Two independent sources feeding one join: insertion order of the
        # edges must not matter, only topology + box id.
        program = Program()
        obs = program.add_box(AddTableBox(table="Observations"))
        sta = program.add_box(AddTableBox(table="Stations"))
        join = program.add_box(JoinBox(left_key="station_id",
                                       right_key="station_id"))
        # Wire the later-id source first.
        program.connect(sta, "out", join, "right")
        program.connect(obs, "out", join, "left")
        assert deterministic_order(program) == sorted([obs, sta, join])
        data = explain_data(program, small_db())
        assert [entry["box"] for entry in data["boxes"]] == [obs, sta, join]

    def test_hash_join_degradation_note_in_dict(self):
        class ListType(T.AtomicType):
            name = "list_explain_test"

            def validates(self, value):
                return isinstance(value, list)

            def coerce(self, value):
                if self.validates(value):
                    return value
                raise TypeCheckError(f"{value!r} is not a list")

            def default_value(self):
                return []

        try:
            listy = T.type_by_name("list_explain_test")
        except TypeCheckError:
            listy = T.register_type(ListType())

        db = Database("degraded")
        left = db.create_table("L", Schema([("k", listy), ("a", "text")]))
        right = db.create_table("R", Schema([("k", listy), ("b", "text")]))
        left.insert_many([{"k": [1], "a": "x"}, {"k": [2], "a": "y"}])
        right.insert_many([{"k": [1], "b": "z"}])

        program = Program()
        lbox = program.add_box(AddTableBox(table="L"))
        rbox = program.add_box(AddTableBox(table="R"))
        join = program.add_box(JoinBox(left_key="k", right_key="k"))
        program.connect(lbox, "out", join, "left")
        program.connect(rbox, "out", join, "right")

        data = explain_data(program, db)
        notes = [note for entry in data["boxes"]
                 for output in entry.get("outputs", [])
                 for plan in output.get("plans", [])
                 for node in _walk(plan["tree"])
                 for note in node["notes"]]
        assert P.HashJoinNode._DEGRADED_BUILD in notes


class TestEngineStats:
    def test_per_box_attribution(self):
        program, src, keep = restrict_program()
        engine = Engine(program, small_db())
        engine.output_of(keep)
        engine.output_of(keep)
        assert engine.stats.fires == {src: 1, keep: 1}
        assert engine.stats.hits[keep] == 1
        assert engine.stats.misses == {src: 1, keep: 1}
        assert engine.stats.cache_hits == 1
        assert engine.stats.cache_misses == 2

    def test_summary_lists_each_box(self):
        program, src, keep = restrict_program()
        engine = Engine(program, small_db())
        engine.output_of(keep)
        summary = engine.stats.summary()
        assert summary.startswith("EngineStats: 2 fires")
        assert f"box #{src}: fires=1" in summary
        assert f"box #{keep}: fires=1" in summary

    def test_reset_clears_attribution(self):
        program, __, keep = restrict_program()
        engine = Engine(program, small_db())
        engine.output_of(keep)
        engine.stats.reset()
        assert engine.stats.fires == {}
        assert engine.stats.total_fires() == 0


class TestViewerExplainRender:
    def test_reports_cull_plans(self):
        from repro.core.scenarios import build_fig7_overlay

        db = build_weather_database(extra_stations=10, every_days=60)
        window = build_fig7_overlay(db).window()
        text = window.viewer.explain_render()
        assert "viewport cull" in text
        assert "SceneStats(" in text

    def test_cull_disabled_has_no_plans(self):
        from repro.core.scenarios import build_fig7_overlay

        db = build_weather_database(extra_stations=10, every_days=60)
        window = build_fig7_overlay(db).window()
        text = window.viewer.explain_render(cull=False)
        assert "(no culling plans synthesized)" in text
