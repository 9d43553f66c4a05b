"""Integration tests: tracing across the engine, planner, renderer, and CLI.

These pin the observability acceptance criteria: a cold figure render emits
nested engine-fire → plan-node → render-pass spans with row-count
attributes, every figure's trace is well-formed Chrome JSON, and disabled
tracing stays within the overhead budget.
"""

from __future__ import annotations

import json
from time import perf_counter

import pytest

from repro import cli
from repro.data.weather import build_weather_database
from repro.obs import (
    NULL_SPAN,
    Tracer,
    chrome_trace,
    push_tracer,
    validate_chrome_trace,
)


@pytest.fixture(scope="module")
def weather_db():
    return build_weather_database(extra_stations=10, every_days=60)


def render_figure_traced(db, name, cold=True):
    """Render every window of a figure scenario under a fresh tracer."""
    scenario = cli._FIGURES[name](db)
    session = scenario.session
    tracer = Tracer(enabled=True)
    if cold:
        session.engine.invalidate()
    with push_tracer(tracer):
        for window_name in sorted(session.windows):
            session.window(window_name).render()
    return tracer


class TestColdRenderSpanNesting:
    def test_fig4_engine_fire_plan_node_render_pass(self, weather_db):
        tracer = render_figure_traced(weather_db, "fig4")
        by_id = {s.span_id: s for s in tracer.finished()}

        def ancestors(span):
            while span.parent_id is not None:
                span = by_id[span.parent_id]
                yield span

        fires = tracer.finished("engine.fire")
        assert fires, "cold render must fire boxes"
        # Upstream fires nest inside the demanded box's fire, which nests
        # inside the render.
        deepest = max(fires, key=lambda s: len(list(ancestors(s))))
        names = [s.name for s in ancestors(deepest)]
        assert "engine.demand" in names
        assert "viewer.render" in names

        plan_nodes = tracer.finished("plan.node")
        assert plan_nodes
        for node in plan_nodes:
            assert "rows_out" in node.attrs
            assert node.attrs["rows_in"] >= node.attrs["rows_out"] >= 0
        # Culling runs inside the render pass and keeps a subset of the rows.
        culls = tracer.finished("render.cull")
        assert culls
        for cull in culls:
            assert any(a.name == "render.pass" for a in ancestors(cull))
            assert cull.attrs["rows_in"] >= cull.attrs["rows_out"] >= 0

        (render_pass,) = tracer.finished("render.pass")
        assert render_pass.attrs["rows_considered"] >= \
            render_pass.attrs["rows_rendered"]
        (viewer,) = tracer.finished("viewer.render")
        assert viewer.attrs["tuples_rendered"] > 0
        assert viewer.attrs["draw_ops"] > 0

    def test_warm_render_hits_cache_instead_of_firing(self, weather_db):
        # A warm demand is a memo lookup: no fire, no demand span and no
        # hit event, but the hit is counted in engine.cache.hits.
        scenario = cli._FIGURES["fig4"](weather_db)
        session = scenario.session
        hits = session.engine.stats.registry.counter("engine.cache.hits")
        before = dict(hits.values)
        tracer = Tracer(enabled=True)
        with push_tracer(tracer):
            for window_name in sorted(session.windows):
                session.window(window_name).render()
        assert tracer.finished("viewer.render")
        assert tracer.finished("engine.fire") == []
        assert tracer.finished("engine.demand") == []
        assert not any(e.name == "engine.cache.hit" for e in tracer.events)
        after = dict(hits.values)
        assert sum(after.values()) == sum(before.values()) + len(
            session.windows)
        assert {box for box in after if after[box] != before.get(box, 0)}


@pytest.mark.parametrize("figure", sorted(cli._FIGURES))
def test_every_figure_renders_a_wellformed_trace(weather_db, figure):
    tracer = render_figure_traced(weather_db, figure)
    spans = tracer.finished()
    assert tracer.finished("viewer.render")
    assert all(s.end_ns is not None for s in spans)
    events = validate_chrome_trace(chrome_trace(tracer, figure))
    json.dumps(chrome_trace(tracer))  # serializable
    assert any(e["ph"] == "X" for e in events)


class TestPlanVerifierSpans:
    def test_verify_plan_spans_nest_in_render(self, weather_db, monkeypatch):
        # REPRO_PLAN_VERIFY=1 installs assert_valid_plan as the plan hook;
        # do the same installation for this test only.
        from repro.analyze.planverify import assert_valid_plan
        from repro.dbms import plan as P
        from repro.dbms.result_cache import result_cache

        # Verification runs on plan *open*; a warm result cache would
        # serve the rows without opening any plan.
        result_cache().clear()
        P.set_plan_verifier(assert_valid_plan)
        try:
            tracer = render_figure_traced(weather_db, "fig4")
        finally:
            P.set_plan_verifier(None)
        verifies = tracer.finished("analyze.verify_plan")
        assert verifies
        for span in verifies:
            assert span.attrs["ok"] is True
            assert span.attrs["nodes"] >= 1
        # Verification runs on plan open, i.e. inside the traced render.
        by_id = {s.span_id: s for s in tracer.finished()}
        assert any(span.parent_id in by_id for span in verifies)


class TestOverheadBudget:
    def test_disabled_hooks_return_null_span(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("engine.fire", box=1) is NULL_SPAN

    def test_disabled_tracing_under_two_percent_of_fig4(self, weather_db):
        # Bound the disabled-path cost analytically: (spans an enabled fig4
        # render records) x (measured per-call cost of a disabled span())
        # must stay under 2% of the disabled render time.  This is immune to
        # machine noise in a way that timing two renders against each other
        # is not.
        span_count = len(render_figure_traced(weather_db, "fig4").finished())

        disabled = Tracer(enabled=False)
        calls = 20_000
        start = perf_counter()
        for _ in range(calls):
            disabled.span("engine.fire")
        per_call_s = (perf_counter() - start) / calls

        scenario = cli._FIGURES["fig4"](weather_db)
        session = scenario.session
        window = sorted(session.windows)[0]
        best = min(
            _timed(lambda: (session.engine.invalidate(),
                            session.window(window).render()))
            for _ in range(3)
        )
        assert span_count * per_call_s < 0.02 * best, (
            f"{span_count} spans x {per_call_s * 1e9:.0f}ns "
            f"vs render {best * 1e3:.1f}ms"
        )


def _timed(fn):
    start = perf_counter()
    fn()
    return perf_counter() - start


class TestEngineStatsView:
    def test_stats_are_registry_backed(self, weather_db):
        from repro.dataflow.boxes_db import AddTableBox, RestrictBox
        from repro.dataflow.engine import Engine
        from repro.dataflow.graph import Program

        program = Program()
        src = program.add_box(AddTableBox(table="Stations"))
        keep = program.add_box(RestrictBox(predicate="state = 'LA'"))
        program.connect(src, "out", keep, "in")
        engine = Engine(program, weather_db)
        engine.output_of(keep)
        registry = engine.stats.registry
        assert registry.counter("engine.box.fires").values \
            is engine.stats.fires
        assert engine.stats.to_dict()["total_fires"] == 2
        engine.stats.reset()
        assert registry.counter("engine.box.fires").total() == 0


class TestViewerTraceParameter:
    def test_render_trace_true_returns_fresh_tracer(self, weather_db):
        scenario = cli._FIGURES["fig4"](weather_db)
        session = scenario.session
        window = session.window(sorted(session.windows)[0])
        result = window.viewer.render(trace=True)
        assert result.tracer is not None
        assert result.tracer.finished("viewer.render")

    def test_render_default_records_nothing_when_disabled(self, weather_db):
        # Pin the ambient tracer to disabled: under REPRO_TRACE=1 a plain
        # render recording into the global tracer is the intended behavior.
        ambient = Tracer(enabled=False)
        scenario = cli._FIGURES["fig4"](weather_db)
        session = scenario.session
        window = session.window(sorted(session.windows)[0])
        with push_tracer(ambient):
            result = window.viewer.render()
        assert result.tracer is None
        assert ambient.finished() == []


class TestCli:
    def test_trace_writes_valid_chrome_json(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert cli.main(["trace", "fig4", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        events = validate_chrome_trace(payload)
        names = {e["name"] for e in events}
        assert {"engine.fire", "plan.node", "render.pass"} <= names

    def test_trace_needs_a_target(self, capsys):
        assert cli.main(["trace"]) == 2

    def test_stats_json(self, capsys):
        assert cli.main(["stats", "--figure", "fig4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "viewer.render" in payload["spans"]
        assert payload["metrics"]

    def test_stats_check(self, capsys):
        assert cli.main(["stats", "--check"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_lint_timing(self, capsys):
        assert cli.main(["lint", "--figure", "fig4", "--timing"]) == 0
        out = capsys.readouterr().out
        assert "-- timing --" in out
        assert "analyze.check_program" in out

    def test_explain_timing_and_json(self, capsys):
        assert cli.main(["explain", "--figure", "fig1", "--timing"]) == 0
        assert "-- timing --" in capsys.readouterr().out
        assert cli.main(["explain", "--figure", "fig1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["boxes"]
        assert "engine" in payload
