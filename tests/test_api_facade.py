"""Tests: the stable ``repro.api`` facade and package-root routing.

``repro.api`` is the supported import surface (docs/API.md); the package
root re-exports through it.  These tests pin the contract: every advertised
name is importable, ``open_db`` works, the root routes through the facade,
and deep module imports keep working for internal use.
"""

from __future__ import annotations

import pytest

import repro
import repro.api as api


class TestFacadeSurface:
    def test_all_names_resolve(self):
        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_core_workflow_types_exported(self):
        for name in ("Database", "Session", "Engine", "Program", "Viewer",
                     "Scenario", "TiogaError", "open_db",
                     "build_weather_database", "explain", "explain_data"):
            assert name in api.__all__

    def test_result_cache_exported(self):
        assert "result_cache" in api.__all__

    def test_removed_parallel_knobs_are_gone(self):
        # Removed with morsel parallelism (docs/API.md, "Deprecations").
        for name in ("config_from_env", "default_config",
                     "set_default_config"):
            assert name not in api.__all__
            assert not hasattr(api, name)
        assert not [name for name in api.__all__
                    if name.startswith("Parallel")]

    def test_removed_columnar_knobs_are_gone(self):
        # The optimizer picks the backend per plan (docs/API.md,
        # "Deprecations").
        for name in ("ColumnarConfig", "columnar_config_from_env",
                     "default_columnar_config",
                     "set_default_columnar_config"):
            assert name not in api.__all__
            assert not hasattr(api, name)

    def test_removed_absint_knobs_are_gone(self):
        # The runtime abstract-interpretation switch went with the plan
        # rewrites it fed (docs/API.md, "Deprecations").
        from repro import analyze
        from repro.analyze import absint

        for name in ("absint_enabled", "set_absint_enabled"):
            assert name not in api.__all__
            assert not hasattr(api, name)
            assert name not in analyze.__all__
            assert not hasattr(absint, name)

    def test_box_catalog_exported(self):
        for name in ("AddTableBox", "RestrictBox", "ProjectBox", "JoinBox",
                     "OverlayBox", "StitchBox", "ReplicateBox",
                     "AggregateBox", "UnionBox"):
            assert name in api.__all__


class TestOpenDb:
    def test_default_is_empty_database(self):
        db = api.open_db()
        assert db.table_names() == []

    def test_named_database(self):
        db = api.open_db("mydb")
        assert db.name == "mydb"

    def test_weather_builds_the_paper_dataset(self):
        db = api.open_db("weather")
        assert "Stations" in db.table_names()
        assert len(db.table("Stations")) > 0


class TestRootRouting:
    def test_root_reexports_are_facade_objects(self):
        for name in ("Database", "Session", "Engine", "Program", "Viewer",
                     "open_db", "build_weather_database"):
            assert getattr(repro, name) is getattr(api, name), name

    def test_root_all_subset_of_facade_plus_extras(self):
        extras = {"TiogaError", "__version__"}
        for name in repro.__all__:
            assert name in api.__all__ or name in extras, name


class TestDeepImportsStillWork:
    """Internals stay importable — the facade adds a surface, removes none."""

    def test_plan_layer(self):
        from repro.dbms.plan import LazyRowSet, PlanNode  # noqa: F401

    def test_engine_layer(self):
        from repro.dataflow.engine import Engine as DeepEngine

        assert DeepEngine is api.Engine

    def test_result_cache_layer(self):
        from repro.dbms.result_cache import result_cache as deep_cache

        assert deep_cache is api.result_cache


class TestEndToEndThroughFacade:
    def test_quickstart_shape(self):
        db = api.open_db("weather")
        program = api.Program("facade")
        source = program.add_box(api.AddTableBox(table="Stations"))
        keep = program.add_box(api.RestrictBox(predicate="latitude > 40"))
        program.connect(source, "out", keep, "in")
        engine = api.Engine(program, db, cache=True)
        rows = engine.output_of(keep).rows.force()
        assert rows
        assert all(row["latitude"] > 40 for row in rows)


class TestRemovedEngineKnobs:
    @pytest.mark.parametrize("knob", [
        pytest.param({"workers": 4}, id="workers"),
        pytest.param({"columnar": True}, id="columnar-True"),
        pytest.param({"columnar": False}, id="columnar-False"),
    ])
    def test_removed_knob_raises_type_error(self, knob):
        with pytest.raises(TypeError):
            api.Engine(api.Program("knobs"), api.open_db(), **knob)
