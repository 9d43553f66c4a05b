"""Static program checker: every diagnostic code has a trigger test and a
clean-after-fix test (the same program with the defect repaired)."""

from __future__ import annotations

import pytest

from repro.analyze.checker import check_program
from repro.analyze.diagnostics import CODES, Diagnostic, Report
from repro.dataflow.boxes_attr import AddAttributeBox
from repro.dataflow.boxes_db import (
    AddTableBox,
    JoinBox,
    RestrictBox,
    SampleBox,
)
from repro.dataflow.boxes_display import OverlayBox, StitchBox
from repro.dataflow.graph import Edge, Program
from repro.errors import GraphError, TypeCheckError
from repro.viewer.viewer import ViewerBox


def simple_program(db, predicate="altitude > 50.0"):
    """AddTable -> Restrict -> Viewer over the Stations table."""
    program = Program("lintable")
    source = program.add_box(AddTableBox(table="Stations"))
    restrict = program.add_box(RestrictBox(predicate=predicate))
    viewer = program.add_box(ViewerBox(name="win"))
    program.connect(source, "out", restrict, "in")
    program.connect(restrict, "out", viewer, "in")
    return program, source, restrict, viewer


class TestDiagnosticsCore:
    def test_unregistered_code_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic("T2-E999", "nope")

    def test_severity_derived_from_code(self):
        assert Diagnostic("T2-E105", "m").is_error
        assert not Diagnostic("T2-W201", "m").is_error

    def test_render_includes_code_location_hint(self):
        diag = Diagnostic("T2-E105", "missing", box="Restrict #2", hint="fix")
        line = diag.render()
        assert "T2-E105" in line and "Restrict #2" in line and "fix" in line

    def test_report_summary(self):
        report = Report([Diagnostic("T2-E105", "a"), Diagnostic("T2-W201", "b")])
        assert not report.ok
        assert report.codes() == {"T2-E105", "T2-W201"}
        assert "1 error(s), 1 warning(s)" in report.render()
        payload = report.to_json()
        assert payload["errors"] == 1 and payload["warnings"] == 1


class TestCleanPrograms:
    def test_simple_pipeline_is_clean(self, stations_db):
        program, *_ = simple_program(stations_db)
        report = check_program(program, stations_db)
        assert report.ok and not report.warnings()

    def test_no_database_skips_table_checks(self, stations_db):
        program, *_ = simple_program(stations_db)
        report = check_program(program, None)
        # Without a catalog the table schema is unknown; downstream checks
        # are suppressed rather than reported spuriously.
        assert report.ok


class TestE101UnknownPort:
    def trigger(self, db):
        program, source, restrict, _viewer = simple_program(db)
        program._add_edge(Edge(source, "nope", restrict, "in"))
        return program

    def test_trigger(self, stations_db):
        report = check_program(self.trigger(stations_db), stations_db)
        assert "T2-E101" in report.codes()

    def test_clean_after_fix(self, stations_db):
        program = self.trigger(stations_db)
        for edge in program.edges():
            if edge.src_port == "nope":
                program._remove_edge(edge)
        assert "T2-E101" not in check_program(program, stations_db).codes()

    def test_connect_carries_diagnostic(self, stations_db):
        program, source, restrict, _viewer = simple_program(stations_db)
        with pytest.raises(GraphError) as err:
            program.connect(source, "bogus", restrict, "in")
        assert err.value.diagnostic is not None
        assert err.value.diagnostic.code == "T2-E101"
        assert err.value.diagnostic.port == "bogus"


class TestE102IncompatibleKinds:
    def build(self, db, fix=False):
        program = Program("kinds")
        s1 = program.add_box(AddTableBox(table="Stations"))
        s2 = program.add_box(AddTableBox(table="Stations"))
        stitch = program.add_box(StitchBox(arity=2))
        join = program.add_box(JoinBox(left_key="station_id",
                                       right_key="station_id"))
        viewer = program.add_box(ViewerBox())
        program.connect(s1, "out", stitch, "c1")
        program.connect(s2, "out", stitch, "c2")
        if fix:
            s3 = program.add_box(AddTableBox(table="Stations"))
            s4 = program.add_box(AddTableBox(table="Stations"))
            program.connect(s3, "out", join, "left")
            program.connect(s4, "out", join, "right")
        else:
            # A G output into a non-overloadable R input cannot be built
            # through connect(); a hand-edited graph can carry it.
            program._add_edge(Edge(stitch, "out", join, "left"))
        program.connect(join, "out", viewer, "in")
        return program

    def test_trigger(self, stations_db):
        report = check_program(self.build(stations_db), stations_db)
        assert "T2-E102" in report.codes()

    def test_clean_after_fix(self, stations_db):
        report = check_program(self.build(stations_db, fix=True), stations_db)
        assert "T2-E102" not in report.codes()

    def test_connect_carries_diagnostic(self, stations_db):
        program = Program("kinds2")
        s1 = program.add_box(AddTableBox(table="Stations"))
        s2 = program.add_box(AddTableBox(table="Stations"))
        stitch = program.add_box(StitchBox(arity=2))
        join = program.add_box(JoinBox(left_key="station_id",
                                       right_key="station_id"))
        program.connect(s1, "out", stitch, "c1")
        program.connect(s2, "out", stitch, "c2")
        with pytest.raises(TypeCheckError) as err:
            program.connect(stitch, "out", join, "left")
        assert err.value.diagnostic is not None
        assert err.value.diagnostic.code == "T2-E102"


class TestE103UnwiredInput:
    def test_trigger(self, stations_db):
        program = Program("unwired")
        restrict = program.add_box(RestrictBox(predicate="altitude > 1.0"))
        viewer = program.add_box(ViewerBox())
        program.connect(restrict, "out", viewer, "in")
        report = check_program(program, stations_db)
        assert "T2-E103" in report.codes()

    def test_clean_after_fix(self, stations_db):
        program, *_ = simple_program(stations_db)
        assert "T2-E103" not in check_program(program, stations_db).codes()


class TestE104UnknownTable:
    def build(self, table):
        program = Program("tables")
        source = program.add_box(AddTableBox(table=table))
        viewer = program.add_box(ViewerBox())
        program.connect(source, "out", viewer, "in")
        return program

    def test_trigger(self, stations_db):
        report = check_program(self.build("Imaginary"), stations_db)
        findings = report.by_code("T2-E104")
        assert findings and "Stations" in findings[0].message  # lists tables

    def test_clean_after_fix(self, stations_db):
        assert check_program(self.build("Stations"), stations_db).ok


class TestE105UnknownAttribute:
    def test_trigger(self, stations_db):
        program, *_ = simple_program(stations_db, predicate="wind_speed > 1")
        report = check_program(program, stations_db)
        findings = report.by_code("T2-E105")
        assert findings and "wind_speed" in findings[0].message

    def test_clean_after_fix(self, stations_db):
        program, *_ = simple_program(stations_db, predicate="altitude > 1.0")
        assert check_program(program, stations_db).ok


class TestE106SyntaxError:
    def test_trigger(self, stations_db):
        program, *_ = simple_program(stations_db, predicate="altitude > ")
        report = check_program(program, stations_db)
        findings = report.by_code("T2-E106")
        assert findings
        assert findings[0].pos is not None  # parser position propagated

    def test_clean_after_fix(self, stations_db):
        program, *_ = simple_program(stations_db, predicate="altitude > 0")
        assert check_program(program, stations_db).ok


class TestE107TypeError:
    def test_trigger_not_boolean(self, stations_db):
        program, *_ = simple_program(stations_db, predicate="altitude + 1")
        report = check_program(program, stations_db)
        assert "T2-E107" in report.codes()

    def test_trigger_ill_typed(self, stations_db):
        program, *_ = simple_program(stations_db, predicate="name + 1 > 0")
        assert "T2-E107" in check_program(program, stations_db).codes()

    def test_clean_after_fix(self, stations_db):
        program, *_ = simple_program(stations_db, predicate="altitude > 1")
        assert check_program(program, stations_db).ok


class TestE108SchemaMismatch:
    def build(self, db, left_key, right_key):
        program = Program("join")
        s1 = program.add_box(AddTableBox(table="Stations"))
        s2 = program.add_box(AddTableBox(table="Stations"))
        join = program.add_box(JoinBox(left_key=left_key, right_key=right_key))
        viewer = program.add_box(ViewerBox())
        program.connect(s1, "out", join, "left")
        program.connect(s2, "out", join, "right")
        program.connect(join, "out", viewer, "in")
        return program

    def test_trigger(self, stations_db):
        program = self.build(stations_db, "name", "station_id")
        report = check_program(program, stations_db)
        assert "T2-E108" in report.codes()

    def test_clean_after_fix(self, stations_db):
        program = self.build(stations_db, "station_id", "station_id")
        assert check_program(program, stations_db).ok


class TestE109BadParameter:
    def test_trigger_missing(self, stations_db):
        program, *_ = simple_program(stations_db, predicate=None)
        report = check_program(program, stations_db)
        findings = report.by_code("T2-E109")
        assert findings and "predicate" in findings[0].message

    def test_trigger_out_of_range(self, stations_db):
        program = Program("sample")
        source = program.add_box(AddTableBox(table="Stations"))
        sample = program.add_box(SampleBox(probability=2.5))
        viewer = program.add_box(ViewerBox())
        program.connect(source, "out", sample, "in")
        program.connect(sample, "out", viewer, "in")
        assert "T2-E109" in check_program(program, stations_db).codes()

    def test_clean_after_fix(self, stations_db):
        program, *_ = simple_program(stations_db, predicate="altitude > 1")
        assert check_program(program, stations_db).ok


class TestE110DuplicateAttribute:
    def build(self, db, name):
        program = Program("addattr")
        source = program.add_box(AddTableBox(table="Stations"))
        add = program.add_box(
            AddAttributeBox(name=name, definition="altitude * 2.0")
        )
        viewer = program.add_box(ViewerBox())
        program.connect(source, "out", add, "in")
        program.connect(add, "out", viewer, "in")
        return program

    def test_trigger(self, stations_db):
        # "altitude" is already a stored field of Stations.
        program = self.build(stations_db, "altitude")
        assert "T2-E110" in check_program(program, stations_db).codes()

    def test_clean_after_fix(self, stations_db):
        program = self.build(stations_db, "altitude_doubled")
        assert check_program(program, stations_db).ok


class TestW201DeadBox:
    def test_trigger(self, stations_db):
        program, source, _restrict, _viewer = simple_program(stations_db)
        dead = program.add_box(RestrictBox(predicate="altitude > 9.0"))
        program.connect(source, "out", dead, "in")
        report = check_program(program, stations_db)
        findings = report.by_code("T2-W201")
        assert len(findings) == 1
        assert findings[0].box_id == dead
        assert report.ok  # a warning, not an error

    def test_clean_after_fix(self, stations_db):
        program, source, _restrict, _viewer = simple_program(stations_db)
        second = program.add_box(RestrictBox(predicate="altitude > 9.0"))
        program.connect(source, "out", second, "in")
        viewer2 = program.add_box(ViewerBox(name="second"))
        program.connect(second, "out", viewer2, "in")
        assert not check_program(program, stations_db).by_code("T2-W201")


class TestW202NothingDemanded:
    def test_trigger(self, stations_db):
        program = Program("no-sink")
        source = program.add_box(AddTableBox(table="Stations"))
        restrict = program.add_box(RestrictBox(predicate="altitude > 1.0"))
        program.connect(source, "out", restrict, "in")
        report = check_program(program, stations_db)
        assert "T2-W202" in report.codes()
        # W202 subsumes per-box dead-box warnings.
        assert "T2-W201" not in report.codes()

    def test_clean_after_fix(self, stations_db):
        program, *_ = simple_program(stations_db)
        assert "T2-W202" not in check_program(program, stations_db).codes()

    def test_empty_program_is_silent(self, stations_db):
        assert not len(check_program(Program("empty"), stations_db))


class TestW203OverlayDimensions:
    def build(self, db, with_slider):
        program = Program("overlay")
        base = program.add_box(AddTableBox(table="Stations"))
        top = program.add_box(AddTableBox(table="Stations"))
        boxes = [base, top]
        if with_slider:
            slider = program.add_box(
                AddAttributeBox(name="alt_dim", definition="altitude",
                                declared_type="float", location=True)
            )
            program.connect(top, "out", slider, "in")
            boxes[1] = slider
        overlay = program.add_box(OverlayBox())
        viewer = program.add_box(ViewerBox())
        program.connect(boxes[0], "out", overlay, "base")
        program.connect(boxes[1], "out", overlay, "top")
        program.connect(overlay, "out", viewer, "in")
        return program

    def test_trigger(self, stations_db):
        # A 3-dimensional relation (one slider) overlaid on a 2-dimensional
        # base mirrors the runtime Composite warning.
        program = self.build(stations_db, with_slider=True)
        report = check_program(program, stations_db)
        assert "T2-W203" in report.codes()
        assert report.ok

    def test_clean_after_fix(self, stations_db):
        program = self.build(stations_db, with_slider=False)
        assert "T2-W203" not in check_program(program, stations_db).codes()


class TestCoverageOfCatalog:
    def test_every_code_in_catalog_is_exercised_somewhere(self):
        """The catalog and this test file stay in sync: every code defined
        in CODES appears in a trigger test here or in the expression/plan
        test modules."""
        import pathlib

        here = pathlib.Path(__file__).parent
        corpus = "".join(
            (here / name).read_text()
            for name in (
                "test_analyze_checker.py",
                "test_analyze_expr.py",
                "test_analyze_planverify.py",
                "test_absint.py",
            )
        )
        for code in CODES:
            assert code in corpus, f"{code} has no test coverage"


class TestErrorSuppression:
    def test_unknown_upstream_suppresses_cascades(self, stations_db):
        """One bad AddTable yields one E104, not a pile of downstream noise."""
        program, *_ = simple_program(stations_db)
        program.boxes()[0].set_param("table", "Imaginary")
        report = check_program(program, stations_db)
        assert [d.code for d in report.errors()] == ["T2-E104"]
