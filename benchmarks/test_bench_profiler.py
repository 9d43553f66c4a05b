"""Profiler and request-context arms: the cost of request observability.

Two claims, each gated as a same-process ratio: the continuous sampler at
its default 67hz adds little to a render-shaped workload (the analytic
<3% budgets in ``tests/test_obs_profiler.py`` and
``tests/test_server_obs.py`` bound the sampler's own work), and the
per-request context machinery (mint, adopt, dispatch/request spans and an
enabled tracer, what the server pays per command) stays small next to the
work a command does (docs/OBSERVABILITY.md, "Request tracing").
"""

from __future__ import annotations

import pytest

from repro.dataflow.boxes_attr import SetAttributeBox
from repro.dataflow.boxes_db import AddTableBox
from repro.dataflow.engine import Engine
from repro.dataflow.graph import Program
from repro.obs.profiler import Profiler
from repro.obs.trace import TraceContext, Tracer, push_tracer
from repro.render.canvas import Canvas
from repro.render.scene import SceneStats, ViewState, render_composite


@pytest.fixture(scope="module")
def scatter(points_db_20k):
    program = Program()
    src = program.add_box(AddTableBox(table="Points"))
    set_x = program.add_box(SetAttributeBox(name="x", definition="x_pos"))
    set_y = program.add_box(SetAttributeBox(name="y", definition="y_pos"))
    display = program.add_box(
        SetAttributeBox(name="display", definition="filled_circle(2)")
    )
    program.connect(src, "out", set_x, "in")
    program.connect(set_x, "out", set_y, "in")
    program.connect(set_y, "out", display, "in")
    engine = Engine(program, points_db_20k)
    return engine.output_of(display)


DEEP_ZOOM = ViewState(center=(0.0, 0.0), elevation=30.0, viewport=(320, 240))


def _render(scatter) -> SceneStats:
    canvas = Canvas(320, 240)
    stats = SceneStats()
    render_composite(canvas, scatter, DEEP_ZOOM, stats=stats)
    return stats


@pytest.mark.parametrize("profiled", [False, True],
                         ids=["disabled", "profiled"])
def test_perf_profiler_render_deep_zoom(benchmark, scatter, profiled):
    """The culling render with the 67hz sampler running vs. without.

    The profiled arm measures what a server render pays for leaving the
    continuous profiler on — the statistical sampler's whole-process
    steady-state cost, not a per-call hook.
    """
    if profiled:
        profiler = Profiler()
        with profiler:
            stats = benchmark(lambda: _render(scatter))
        assert profiler.ticks > 0, "the sampler must have run"
    else:
        stats = benchmark(lambda: _render(scatter))
    assert stats.tuples_considered == 20_000
    assert stats.culled_by_viewport > 19_000


def _traced_render(tracer: Tracer, scatter) -> SceneStats:
    """A render wrapped in what ``TiogaServer.execute`` +
    ``CommandExecutor.run`` add per command: mint a context, adopt it,
    open ``server.dispatch``, adopt the child on the "worker", open
    ``request.render``, then do the work, all under the server's enabled
    span-less tracer."""
    with push_tracer(tracer):
        ctx = TraceContext.new(session="bench", command="render")
        with tracer.adopt(ctx):
            with tracer.span("server.dispatch", command="render") as span:
                child = ctx.child_of(span)
                with tracer.adopt(child):
                    with tracer.span("request.render", command="render"):
                        return _render(scatter)


@pytest.mark.parametrize("traced", [False, True], ids=["bare", "traced"])
def test_perf_profiler_request_context(benchmark, scatter, traced):
    """A render wrapped in the full per-command context machinery vs. bare."""
    tracer = Tracer(enabled=True, max_spans=0)
    stats = benchmark((lambda: _traced_render(tracer, scatter)) if traced
                      else (lambda: _render(scatter)))
    assert stats.tuples_considered == 20_000


#: Deep-zoom renders per timed arm of the ratios below.
_RENDERS = 200

#: Median profiled / disabled time of the renders.  On a 2-vCPU VM it read
#: 1.01-1.12 over six runs, and 2.07-2.16 with the profiled arm planted
#: to run twice.
PROFILED_MAX_RATIO = 1.6

#: Median traced / bare time of the renders.  On a 2-vCPU VM it read
#: 1.24-1.35 over six runs (mostly the render's own spans under an
#: enabled tracer), and 2.51-2.93 with the traced arm planted to run
#: twice.
TRACED_MAX_RATIO = 1.6


def _renders(scatter):
    def run():
        for __ in range(_RENDERS):
            _render(scatter)
    return run


def test_perf_profiler_overhead_ratio(scatter, median_ratio):
    ticks = []

    def profiled():
        profiler = Profiler()
        with profiler:
            _renders(scatter)()
        ticks.append(profiler.ticks)

    ratio, rounds = median_ratio(profiled, _renders(scatter))
    assert sum(ticks) > 0, "the sampler must have run"
    assert ratio <= PROFILED_MAX_RATIO, (
        f"profiled / disabled render time {ratio:.2f} > "
        f"{PROFILED_MAX_RATIO} (rounds {rounds})")


def test_perf_profiler_request_context_ratio(scatter, median_ratio):
    tracer = Tracer(enabled=True, max_spans=0)
    spans: set[str] = set()
    tracer.add_sink(lambda item: spans.add(item.name))

    def traced():
        for __ in range(_RENDERS):
            _traced_render(tracer, scatter)

    ratio, rounds = median_ratio(traced, _renders(scatter))
    assert {"request.render", "render.cull"} <= spans
    assert ratio <= TRACED_MAX_RATIO, (
        f"traced / bare render time {ratio:.2f} > {TRACED_MAX_RATIO} "
        f"(rounds {rounds})")
