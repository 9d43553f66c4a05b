"""The self-hosted dashboard: recorded engine telemetry -> Tioga-2 charts."""

from __future__ import annotations

import pytest

from repro.errors import ObservabilityError
from repro.obs import MetricsRecorder, Tracer
from repro.obs.dashboard import (
    RATE_SERIES_METRICS,
    build_dashboard_program,
    build_telemetry_dashboard,
    record_figure_telemetry,
    render_dashboard,
    telemetry_database,
)
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(scope="module")
def recorded():
    """One real fig4 recording shared by the module (renders are slow)."""
    return record_figure_telemetry(figure="fig4", renders=3)


# ---------------------------------------------------------------------------
# Recording: real engine metrics actually move
# ---------------------------------------------------------------------------


def test_recording_captures_engine_and_render_series(recorded):
    recorder, tracer = recorded
    # renders + initial sample
    assert recorder.samples_taken >= 4
    keys = set(recorder.series_keys())
    assert "render.frames|_total" in keys
    assert "engine.box.fires|_total" in keys
    assert "cache.hit|_total" in keys
    # Rate series exist for the dashboard's line chart.
    for metric in RATE_SERIES_METRICS:
        assert f"{metric}|_total|rate" in keys
    # The tracer saw render spans.
    assert any(span.name.startswith("render") for span in tracer.finished())


def test_recording_rejects_unknown_figure():
    with pytest.raises(ObservabilityError):
        record_figure_telemetry(figure="fig99")
    with pytest.raises(ObservabilityError):
        record_figure_telemetry(renders=0)


# ---------------------------------------------------------------------------
# Ingestion: telemetry lands in ordinary DBMS tables
# ---------------------------------------------------------------------------


def test_telemetry_database_tables(recorded):
    recorder, tracer = recorded
    db = telemetry_database(recorder, tracer)
    spans = db.table("SpanSamples")
    cache = db.table("CacheOps")
    rates = db.table("OpRates")
    axes = db.table("DashboardAxes")
    assert len(spans) > 0
    assert len(cache) == 3          # hit / miss / evict bars
    assert len(rates) > 0
    assert len(axes) == 6           # two axis segments per chart
    # Chart coordinates are normalized into the chart world box.
    for row in spans:
        assert 0.0 <= row["x_pos"] <= 360.0
        assert 0.0 <= row["y_pos"] <= 220.0
    series_names = {row["series"] for row in rates}
    assert series_names <= set(RATE_SERIES_METRICS)
    assert len(series_names) >= 2


def test_telemetry_database_without_tracer():
    registry = MetricsRegistry()
    registry.counter("cache.hit").inc(3)
    recorder = MetricsRecorder(registry)
    recorder.sample(t=1.0)
    db = telemetry_database(recorder, tracer=None)
    assert len(db.table("SpanSamples")) == 0
    assert len(db.table("CacheOps")) == 3


# ---------------------------------------------------------------------------
# The program + headless render (acceptance: >0 draw ops from real metrics)
# ---------------------------------------------------------------------------


def test_dashboard_renders_headless_with_draw_ops(recorded):
    recorder, tracer = recorded
    db = telemetry_database(recorder, tracer)
    scenario = build_dashboard_program(db)
    assert set(scenario.session.windows) == {"spans", "cache", "rates"}
    result = render_dashboard(scenario)
    for chart in ("spans", "cache", "rates"):
        assert result[chart]["draw_ops"] > 0, f"{chart} chart painted nothing"
        assert result[chart]["pixels"] > 0
    assert result["total_draw_ops"] > 0
    # The scatter's draw count is driven by the recorded span rows — the
    # dashboard is visualizing its own telemetry, not canned data.
    assert result["spans"]["draw_ops"] >= len(db.table("SpanSamples"))


def test_dashboard_program_is_ordinary_boxes_and_arrows(recorded):
    recorder, tracer = recorded
    db = telemetry_database(recorder, tracer)
    scenario = build_dashboard_program(db)
    program = scenario.session.program
    type_names = {box.type_name for box in program.boxes()}
    # Built from the same vocabulary as the paper's figures.
    assert {"AddTable", "Restrict", "SetAttribute", "Overlay",
            "Viewer"} <= type_names


def test_build_telemetry_dashboard_one_call():
    db, scenario = build_telemetry_dashboard(figure="fig1", renders=2)
    result = render_dashboard(scenario)
    assert result["total_draw_ops"] > 0
    assert len(db.table("CacheOps")) == 3


def test_dashboard_accepts_precaptured_recorder():
    recorder, tracer = record_figure_telemetry(figure="fig1", renders=2)
    db, scenario = build_telemetry_dashboard(recorder=recorder,
                                             tracer=tracer)
    assert len(db.table("SpanSamples")) > 0
    assert render_dashboard(scenario)["total_draw_ops"] > 0
