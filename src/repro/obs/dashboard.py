"""Self-hosted telemetry dashboard: Tioga-2 visualizing its own engine.

The paper's compositional claim is that boxes-and-arrows programs can
visualize *any* relational data.  This module dogfoods that claim on the
system's own telemetry: it records a real workload (a figure render) with a
:class:`~repro.obs.timeseries.MetricsRecorder` and an enabled tracer, loads
the recordings into ordinary ``repro.dbms`` tables, and programmatically
constructs a Tioga-2 program whose canvases are the charts —

* ``spans``  — a scatter of span durations over time (one circle per
  completed span, x = start time, y = duration),
* ``cache``  — a bar chart of the PR-4 result-cache counters
  (``cache.hit`` / ``cache.miss`` / ``cache.evict``),
* ``rates``  — a line chart of per-operator throughput (rows/sec derived
  by the recorder's rate series), one polyline per labeled series.

Everything renders headless through the ordinary
:class:`~repro.ui.session.Session` / viewer / canvas stack, so the
dashboard exercises Restrict, SetAttribute, Overlay, and viewers on a
workload the reproduction itself produced.  ``repro dashboard`` is the CLI
front-end and the CI smoke job; ``docs/DASHBOARD.md`` is the walkthrough.
"""

from __future__ import annotations

from typing import Any

from repro.dbms.catalog import Database
from repro.dbms.relation import Table
from repro.dbms.tuples import Schema
from repro.errors import ObservabilityError
from repro.obs.metrics import global_registry
from repro.obs.timeseries import MetricsRecorder
from repro.obs.trace import Tracer, push_tracer

__all__ = [
    "record_figure_telemetry",
    "telemetry_database",
    "build_dashboard_program",
    "build_telemetry_dashboard",
    "render_dashboard",
    "RATE_SERIES_METRICS",
]

#: Counters whose derived per-second rate series become the ``rates`` lines.
RATE_SERIES_METRICS = (
    "render.tuples_rendered",
    "engine.box.fires",
)

#: World-coordinate chart box every table is normalized into.
_CHART_W = 360.0
_CHART_H = 220.0

_LINE_COLORS = ("blue", "red", "green", "purple", "orange", "cyan")

SPAN_SCHEMA = Schema([
    ("seq", "int"),
    ("span", "text"),
    ("t_ms", "float"),
    ("duration_ms", "float"),
    ("x_pos", "float"),
    ("y_pos", "float"),
])

CACHE_SCHEMA = Schema([
    ("op", "text"),
    ("slot", "int"),
    ("count", "float"),
    ("x_pos", "float"),
    ("bar_px", "float"),
])

RATE_SCHEMA = Schema([
    ("series", "text"),
    ("seq", "int"),
    ("t_s", "float"),
    ("rate", "float"),
    ("x_pos", "float"),
    ("y_pos", "float"),
    ("dx", "float"),
    ("dy", "float"),
    ("color", "text"),
])

AXES_SCHEMA = Schema([
    ("chart", "text"),
    ("x_pos", "float"),
    ("y_pos", "float"),
    ("dx", "float"),
    ("dy", "float"),
])


# ---------------------------------------------------------------------------
# Recording: run a real workload under recorder + tracer
# ---------------------------------------------------------------------------


def record_figure_telemetry(
    figure: str = "fig4",
    renders: int = 3,
    recorder: MetricsRecorder | None = None,
) -> tuple[MetricsRecorder, Tracer]:
    """Render a figure scenario ``renders`` times under full telemetry.

    Renders run with the process-wide result cache on and a cold engine on
    the first pass, so engine fires *and* result-cache hits/misses both
    move; the recorder samples between renders, which is what gives the
    delta/rate series their time axis.  Returns the recorder and the
    tracer holding the spans.
    """
    from repro.core import scenarios as _scenarios
    from repro.data.weather import build_weather_database
    from repro.dbms.result_cache import result_cache, set_cache_enabled

    builders = {
        "fig1": _scenarios.build_fig1_table_view,
        "fig4": _scenarios.build_fig4_station_map,
        "fig7": _scenarios.build_fig7_overlay,
        "fig8": _scenarios.build_fig8_wormholes,
        "fig9": _scenarios.build_fig9_magnifier,
        "fig10": _scenarios.build_fig10_stitch,
        "fig11": _scenarios.build_fig11_replicate,
    }
    if figure not in builders:
        raise ObservabilityError(
            f"unknown figure {figure!r}; choose from "
            f"{', '.join(sorted(builders))}"
        )
    if renders < 1:
        raise ObservabilityError("need at least one render to record")

    result_cache()  # ensure cache.* counters exist even before first lookup
    tracer = Tracer(enabled=True)
    if recorder is None:
        recorder = MetricsRecorder(global_registry(), tracer=tracer)
    elif recorder.tracer is None:
        recorder.tracer = tracer

    db = build_weather_database(extra_stations=40, every_days=30)
    scenario = builders[figure](db)
    session = scenario.session
    # Engines default to a private stats registry; re-point this one at the
    # process registry so engine.box.fires feeds the recorder's rate series.
    from repro.dataflow.engine import EngineStats

    session.engine.stats = EngineStats(global_registry())
    previous = set_cache_enabled(True)
    try:
        with push_tracer(tracer):
            recorder.sample()
            session.engine.invalidate()  # cold first pass: real fires
            for _ in range(renders):
                for name in sorted(session.windows):
                    session.window(name).render()
                recorder.sample()
    finally:
        set_cache_enabled(previous)
    return recorder, tracer


# ---------------------------------------------------------------------------
# Ingestion: recordings -> ordinary DBMS tables
# ---------------------------------------------------------------------------


def _normalized(values: list[float], extent: float) -> list[float]:
    """Scale values into ``0..extent`` (constant series map to extent/2)."""
    if not values:
        return []
    lo, hi = min(values), max(values)
    if hi <= lo:
        return [extent / 2.0] * len(values)
    scale = extent / (hi - lo)
    # Clamp: (hi - lo) * scale can land an ulp past extent.
    return [min(extent, max(0.0, (value - lo) * scale)) for value in values]


def _axes_rows(chart: str) -> list[dict[str, Any]]:
    """X/Y axis segments framing one chart's world box."""
    return [
        {"chart": chart, "x_pos": 0.0, "y_pos": 0.0,
         "dx": _CHART_W, "dy": 0.0},
        {"chart": chart, "x_pos": 0.0, "y_pos": 0.0,
         "dx": 0.0, "dy": _CHART_H},
    ]


def telemetry_database(
    recorder: MetricsRecorder,
    tracer: Tracer | None = None,
    max_spans: int = 4000,
) -> Database:
    """Load recorded telemetry into a fresh :class:`Database`.

    Tables: ``SpanSamples`` (one row per completed span), ``CacheOps``
    (latest cache.hit/miss/evict totals), ``OpRates`` (the recorder's
    per-second rate series for :data:`RATE_SERIES_METRICS`, with precomputed
    segment deltas for the line display), and ``DashboardAxes`` (axis
    segments, restricted per chart by the program).  Chart-space ``x_pos``/
    ``y_pos`` columns are normalized at ingestion so the programs stay pure
    attribute mappings.
    """
    db = Database("telemetry")

    # -- SpanSamples ------------------------------------------------------
    spans_table = db.add_table(Table("SpanSamples", SPAN_SCHEMA))
    if tracer is None:
        tracer = recorder.tracer
    if tracer is not None:
        finished = tracer.finished()[:max_spans]
        origin = tracer.origin_ns or 0
        starts = [(span.start_ns - origin) / 1e6 for span in finished]
        durations = [span.duration_ms for span in finished]
        xs = _normalized(starts, _CHART_W)
        ys = _normalized(durations, _CHART_H)
        spans_table.insert_many(
            {
                "seq": index,
                "span": span.name,
                "t_ms": round(starts[index], 3),
                "duration_ms": round(durations[index], 6),
                "x_pos": xs[index],
                "y_pos": ys[index],
            }
            for index, span in enumerate(finished)
        )

    # -- CacheOps ---------------------------------------------------------
    cache_table = db.add_table(Table("CacheOps", CACHE_SCHEMA))
    ops = ("cache.hit", "cache.miss", "cache.evict")
    counts = [recorder.latest(f"{op}|_total") or 0.0 for op in ops]
    peak = max(counts) or 1.0
    cache_table.insert_many(
        {
            "op": op,
            "slot": slot,
            "count": counts[slot],
            "x_pos": 60.0 + slot * 120.0,
            "bar_px": (counts[slot] / peak) * 160.0,
        }
        for slot, op in enumerate(ops)
    )

    # -- OpRates ----------------------------------------------------------
    rates_table = db.add_table(Table("OpRates", RATE_SCHEMA))
    rate_rows: list[dict[str, Any]] = []
    all_times: list[float] = []
    all_rates: list[float] = []
    picked: list[tuple[str, list[tuple[float, float]]]] = []
    for metric in RATE_SERIES_METRICS:
        # One line per metric: the _total aggregate, not per-label series
        # (labeled counters like engine.box.fires would draw one polyline
        # per box id and drown the chart).
        series = recorder.series(f"{metric}|_total|rate")
        points = series.points() if series is not None else []
        if points:
            picked.append((metric, points))
            all_times.extend(t for t, _ in points)
            all_rates.extend(v for _, v in points)
    time_norm = dict(zip(all_times, _normalized(all_times, _CHART_W)))
    rate_norm = dict(zip(all_rates, _normalized(all_rates, _CHART_H)))
    for series_index, (series_name, points) in enumerate(picked):
        color = _LINE_COLORS[series_index % len(_LINE_COLORS)]
        coords = [(time_norm[t], rate_norm[v]) for t, v in points]
        for index, (t, rate) in enumerate(points):
            x, y = coords[index]
            nx, ny = coords[index + 1] if index + 1 < len(coords) else (x, y)
            rate_rows.append({
                "series": series_name,
                "seq": index,
                "t_s": round(t, 6),
                "rate": round(rate, 6),
                "x_pos": x,
                "y_pos": y,
                "dx": nx - x,
                "dy": ny - y,
                "color": color,
            })
    rates_table.insert_many(rate_rows)

    # -- DashboardAxes ----------------------------------------------------
    axes_table = db.add_table(Table("DashboardAxes", AXES_SCHEMA))
    axes_table.insert_many(
        row for chart in ("spans", "cache", "rates")
        for row in _axes_rows(chart)
    )
    return db


# ---------------------------------------------------------------------------
# The dashboard program: boxes and arrows over the telemetry tables
# ---------------------------------------------------------------------------


def _axes_pipeline(session, chart: str) -> int:
    axes = session.add_table("DashboardAxes", label=f"axes-{chart}")
    only = session.add_box("Restrict", {"predicate": f"chart = '{chart}'"})
    session.connect(axes, "out", only, "in")
    set_x = session.add_box("SetAttribute",
                            {"name": "x", "definition": "x_pos"})
    session.connect(only, "out", set_x, "in")
    set_y = session.add_box("SetAttribute",
                            {"name": "y", "definition": "y_pos"})
    session.connect(set_x, "out", set_y, "in")
    display = session.add_box(
        "SetAttribute",
        {"name": "display", "definition": "line_to(dx, dy, 'darkgray')"},
    )
    session.connect(set_y, "out", display, "in")
    return display


def _chart_window(session, tail: int, chart: str, axes_tail: int):
    overlay = session.add_box("Overlay")
    session.connect(axes_tail, "out", overlay, "base")
    session.connect(tail, "out", overlay, "top")
    window = session.add_viewer(overlay, name=chart, width=480, height=320)
    window.viewer._pan_to(_CHART_W / 2.0, _CHART_H / 2.0)
    window.viewer._set_elevation(_CHART_W + 60.0)
    return window


def build_dashboard_program(db: Database):
    """Construct the three-chart dashboard program over a telemetry DB.

    Returns a :class:`~repro.core.scenarios.Scenario` with windows
    ``spans`` (scatter), ``cache`` (bars), and ``rates`` (lines) — each an
    ordinary pipeline of AddTable → Restrict/SetAttribute boxes → Overlay
    with its axes → viewer, exactly the shape of the paper's figures.
    """
    from repro.core.scenarios import Scenario
    from repro.ui.session import Session

    session = Session(db, "telemetry-dashboard")

    # Scatter: one circle per span, labeled charts come from the tables.
    spans = session.add_table("SpanSamples")
    sp_x = session.add_box("SetAttribute",
                           {"name": "x", "definition": "x_pos"})
    session.connect(spans, "out", sp_x, "in")
    sp_y = session.add_box("SetAttribute",
                           {"name": "y", "definition": "y_pos"})
    session.connect(sp_x, "out", sp_y, "in")
    sp_display = session.add_box(
        "SetAttribute",
        {"name": "display", "definition": "filled_circle(2, 'blue')"},
    )
    session.connect(sp_y, "out", sp_display, "in")
    spans_window = _chart_window(
        session, sp_display, "spans", _axes_pipeline(session, "spans")
    )

    # Bars: a filled rect per cache counter, sized at ingestion, labeled.
    cache = session.add_table("CacheOps")
    ca_x = session.add_box("SetAttribute",
                           {"name": "x", "definition": "x_pos"})
    session.connect(cache, "out", ca_x, "in")
    ca_y = session.add_box("SetAttribute",
                           {"name": "y", "definition": "bar_px / 2"})
    session.connect(ca_x, "out", ca_y, "in")
    ca_display = session.add_box(
        "SetAttribute",
        {
            "name": "display",
            "definition": (
                "combine(filled_rect(48, bar_px + 1, 'blue'), "
                "offset(text_of(op), 0, bar_px / 2 + 14), "
                "offset(text_of(count), 0, 0 - (bar_px / 2 + 12)))"
            ),
        },
    )
    session.connect(ca_y, "out", ca_display, "in")
    cache_window = _chart_window(
        session, ca_display, "cache", _axes_pipeline(session, "cache")
    )

    # Lines: per-series polylines via precomputed segment deltas.
    rates = session.add_table("OpRates")
    ra_x = session.add_box("SetAttribute",
                           {"name": "x", "definition": "x_pos"})
    session.connect(rates, "out", ra_x, "in")
    ra_y = session.add_box("SetAttribute",
                           {"name": "y", "definition": "y_pos"})
    session.connect(ra_x, "out", ra_y, "in")
    ra_display = session.add_box(
        "SetAttribute",
        {
            "name": "display",
            "definition": (
                "combine(line_to(dx, dy, color), filled_circle(1, color))"
            ),
        },
    )
    session.connect(ra_y, "out", ra_display, "in")
    rates_window = _chart_window(
        session, ra_display, "rates", _axes_pipeline(session, "rates")
    )

    return Scenario(
        session,
        window=spans_window,
        spans_window=spans_window,
        cache_window=cache_window,
        rates_window=rates_window,
    )


# ---------------------------------------------------------------------------
# One-call convenience + headless rendering
# ---------------------------------------------------------------------------


def build_telemetry_dashboard(
    figure: str = "fig4",
    renders: int = 3,
    recorder: MetricsRecorder | None = None,
    tracer: Tracer | None = None,
):
    """Record (unless given), ingest, and build: returns ``(db, scenario)``.

    Pass an existing ``recorder``/``tracer`` pair to visualize telemetry
    you already captured; otherwise a fresh fig-render workload is recorded
    via :func:`record_figure_telemetry`.
    """
    if recorder is None or (tracer is None and recorder.tracer is None):
        recorder, tracer = record_figure_telemetry(
            figure=figure, renders=renders, recorder=recorder,
        )
    db = telemetry_database(recorder, tracer)
    return db, build_dashboard_program(db)


def render_dashboard(scenario) -> dict[str, Any]:
    """Render every dashboard canvas headless; returns per-chart stats.

    The result maps each chart name to ``{"canvas": Canvas, "draw_ops": n,
    "pixels": n}`` plus a ``"total_draw_ops"`` entry — the smoke-test
    signal that recorded telemetry actually painted something.
    """
    session = scenario.session
    out: dict[str, Any] = {}
    total = 0
    for name in sorted(session.windows):
        canvas = session.window(name).render()
        out[name] = {
            "canvas": canvas,
            "draw_ops": canvas.draw_ops,
            "pixels": canvas.count_nonbackground(),
        }
        total += canvas.draw_ops
    out["total_draw_ops"] = total
    return out
