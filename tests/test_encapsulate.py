"""Unit tests: encapsulation and holes (dataflow.encapsulate, §4.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Session
from repro.dataflow.boxes_attr import SetAttributeBox
from repro.dataflow.boxes_db import AddTableBox, ProjectBox, RestrictBox, SampleBox
from repro.dataflow.encapsulate import EncapsulatedBox, HoleBox, collapse, encapsulate
from repro.dataflow.engine import Engine
from repro.dataflow.graph import Program
from repro.dataflow.program_ops import register_encapsulated
from repro.dbms.catalog import Database
from repro.dbms.tuples import Schema
from repro.dbms.update import ScriptedDialog, generic_update
from repro.errors import GraphError


def la_pipeline(program: Program):
    """Stations → Restrict LA → Project: the canonical region to encapsulate."""
    src = program.add_box(AddTableBox(table="Stations"))
    restrict = program.add_box(RestrictBox(predicate="state = 'LA'"))
    project = program.add_box(ProjectBox(fields=["name", "longitude", "latitude"]))
    program.connect(src, "out", restrict, "in")
    program.connect(restrict, "out", project, "in")
    return src, restrict, project


class TestEncapsulate:
    def test_boundary_ports_from_cut_edges(self, stations_db):
        program = Program()
        src, restrict, project = la_pipeline(program)
        box = encapsulate(program, {restrict, project}, "la_filter")
        # One cut edge in (src→restrict); project's unconsumed output is
        # exposed so the new box stays visualizable.
        assert [p.name for p in box.inputs] == ["in1"]
        assert [p.name for p in box.outputs] == ["out1"]

    def test_fire_runs_inner_program(self, stations_db):
        program = Program()
        src, restrict, project = la_pipeline(program)
        tail = program.add_box(SampleBox(probability=1.0, seed=1))
        program.connect(project, "out", tail, "in")
        box = encapsulate(program, {restrict, project}, "la_filter")
        assert [p.name for p in box.outputs] == ["out1"]

        # Use the encapsulated box in a fresh program like a primitive.
        fresh = Program()
        fresh_src = fresh.add_box(AddTableBox(table="Stations"))
        encap_id = fresh.add_box(box)
        fresh.connect(fresh_src, "out", encap_id, "in1")
        result = Engine(fresh, stations_db).output_of(encap_id, "out1")
        assert len(result.rows) == 3
        assert result.rows.schema.names == ("name", "longitude", "latitude")

    def test_internal_sources_allowed(self, stations_db):
        program = Program()
        src, restrict, project = la_pipeline(program)
        box = encapsulate(program, {src, restrict, project}, "la_all")
        assert box.inputs == []

        fresh = Program()
        encap_id = fresh.add_box(box)
        result = Engine(fresh, stations_db).output_of(encap_id, "out1")
        assert len(result.rows) == 3

    def test_region_must_be_nonempty(self):
        program = Program()
        with pytest.raises(GraphError, match="no boxes"):
            encapsulate(program, set(), "empty")

    def test_unknown_box_in_region(self):
        program = Program()
        with pytest.raises(GraphError):
            encapsulate(program, {99}, "ghost")

    def test_serialization_roundtrip(self, stations_db):
        program = Program()
        src, restrict, project = la_pipeline(program)
        tail = program.add_box(SampleBox(probability=1.0))
        program.connect(project, "out", tail, "in")
        box = encapsulate(program, {restrict, project}, "la_filter")
        clone = EncapsulatedBox(**box.params)

        fresh = Program()
        fresh_src = fresh.add_box(AddTableBox(table="Stations"))
        encap_id = fresh.add_box(clone)
        fresh.connect(fresh_src, "out", encap_id, "in1")
        result = Engine(fresh, stations_db).output_of(encap_id, "out1")
        assert len(result.rows) == 3

    def test_register_in_catalog(self, stations_db):
        program = Program()
        src, restrict, project = la_pipeline(program)
        box = encapsulate(program, {restrict}, "just_restrict")
        register_encapsulated(stations_db, box)
        assert stations_db.has_box("just_restrict")


class TestHoles:
    def build_with_hole(self, stations_db):
        """Encapsulate restrict→sample→project with sample as a hole."""
        program = Program()
        src = program.add_box(AddTableBox(table="Stations"))
        restrict = program.add_box(RestrictBox(predicate="state = 'LA'"))
        sample = program.add_box(SampleBox(probability=0.5, seed=1))
        project = program.add_box(ProjectBox(fields=["name"]))
        tail = program.add_box(SampleBox(probability=1.0))
        program.connect(src, "out", restrict, "in")
        program.connect(restrict, "out", sample, "in")
        program.connect(sample, "out", project, "in")
        program.connect(project, "out", tail, "in")
        box = encapsulate(
            program, {restrict, sample, project}, "holey", holes=[{sample}]
        )
        return box

    def test_hole_names_listed(self, stations_db):
        box = self.build_with_hole(stations_db)
        assert box.hole_names() == ["hole1"]

    def test_unplugged_hole_refuses_to_fire(self, stations_db):
        box = self.build_with_hole(stations_db)
        fresh = Program()
        src = fresh.add_box(AddTableBox(table="Stations"))
        encap_id = fresh.add_box(box)
        fresh.connect(src, "out", encap_id, "in1")
        with pytest.raises(GraphError, match="unplugged"):
            Engine(fresh, stations_db).output_of(encap_id, "out1")

    def test_plugging_a_compatible_box(self, stations_db):
        box = self.build_with_hole(stations_db)
        plugged = box.plug("hole1", RestrictBox(predicate="altitude < 100"))
        assert plugged.hole_names() == []

        fresh = Program()
        src = fresh.add_box(AddTableBox(table="Stations"))
        encap_id = fresh.add_box(plugged)
        fresh.connect(src, "out", encap_id, "in1")
        result = Engine(fresh, stations_db).output_of(encap_id, "out1")
        # LA stations below 100 ft: New Orleans (7), Baton Rouge (56).
        assert sorted(r["name"] for r in result.rows) == [
            "Baton Rouge", "New Orleans"
        ]

    def test_plugging_unknown_hole(self, stations_db):
        box = self.build_with_hole(stations_db)
        with pytest.raises(GraphError, match="no hole"):
            box.plug("hole9", RestrictBox(predicate="true"))

    def test_plug_does_not_mutate_original(self, stations_db):
        box = self.build_with_hole(stations_db)
        box.plug("hole1", RestrictBox(predicate="true"))
        assert box.hole_names() == ["hole1"]

    def test_hole_outside_region_rejected(self, stations_db):
        program = Program()
        src, restrict, project = la_pipeline(program)
        with pytest.raises(GraphError, match="inside"):
            encapsulate(program, {restrict}, "bad", holes=[{src}])

    def test_hole_box_fire_is_error(self):
        hole = HoleBox("h", [["h_in1", "R"]], [["h_out1", "R"]])
        with pytest.raises(GraphError, match="plug"):
            hole.fire({}, None)


class TestCollapse:
    def test_collapse_replaces_region_in_place(self, stations_db):
        program = Program()
        src, restrict, project = la_pipeline(program)
        tail = program.add_box(SampleBox(probability=1.0, seed=1))
        program.connect(project, "out", tail, "in")
        new_id, box = collapse(program, {restrict, project}, "la_filter")
        assert restrict not in program
        assert project not in program
        assert new_id in program
        result = Engine(program, stations_db).output_of(tail)
        assert len(result.rows) == 3


class TestInnerTableChanges:
    """An encapsulated box's memo entry sees the tables its inner program
    reads: a long-lived engine answers like a fresh one after a write."""

    @staticmethod
    def table_db() -> Database:
        db = Database()
        db.create_table(
            "T", Schema([("name", "text"), ("n", "int")])
        ).insert_many([{"name": "a", "n": 1}, {"name": "b", "n": 2}])
        return db

    @staticmethod
    def names(engine: Engine, box_id: int) -> list[str]:
        return [row["name"] for row in engine.output_of(box_id, "out1").rows]

    @pytest.mark.parametrize("nested", [False, True])
    def test_insert_reaches_long_lived_engine(self, nested):
        db = self.table_db()
        program = Program()
        src = program.add_box(AddTableBox(table="T"))
        keep = program.add_box(RestrictBox(predicate="n > 0"))
        program.connect(src, "out", keep, "in")
        new_id, __ = collapse(program, {src, keep}, "enc")
        if nested:
            tail = program.add_box(ProjectBox(fields=["name"]))
            program.connect(new_id, "out1", tail, "in")
            new_id, __ = collapse(program, {new_id, tail}, "outer")
        engine = Engine(program, db)
        assert self.names(engine, new_id) == ["a", "b"]
        db.table("T").insert({"name": "c", "n": 3})
        assert self.names(engine, new_id) == ["a", "b", "c"]
        assert self.names(Engine(program, db), new_id) == ["a", "b", "c"]

    def test_session_render_after_generic_update(self, stations_db):
        def build(session: Session):
            stations = session.add_table("Stations")
            keep = session.add_box("Restrict", {"predicate": "state = 'LA'"})
            session.connect(stations, "out", keep, "in")
            enc, __ = collapse(session.program, {stations, keep}, "la")
            tail, port = enc, "out1"
            for name, definition in (
                ("x", "longitude"), ("y", "latitude"),
                ("display", "filled_circle(3, 'blue')"),
            ):
                box = session.add_box(
                    "SetAttribute", {"name": name, "definition": definition}
                )
                session.connect(tail, port, box, "in")
                tail, port = box, "out"
            session.add_viewer(tail, name="map", width=200, height=160)
            session.pan_to("map", -91.8, 31.0)
            session.set_elevation("map", 8.0)
            return session.window("map")

        window = build(Session(stations_db))
        before = window.render().pixels.copy()
        table = stations_db.table("Stations")
        row = next(row for row in table if row["name"] == "Baton Rouge")
        assert generic_update(
            table, row, ScriptedDialog({"state": "TX"})).applied
        after = window.render().pixels
        assert not np.array_equal(after, before)
        fresh = build(Session(stations_db)).render().pixels
        assert np.array_equal(after, fresh)
