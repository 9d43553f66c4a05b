"""One demand per command: a view command or a render asks the engine for
the window's input at most once.

Each test wraps ``Engine.output_of`` with a counter and counts the calls
for the window viewer's input box (the source of the edge into the viewer
box).  Wormhole sub-renders demand other viewers' inputs and are not
counted.  Commands go through ``Session``, i.e. the protocol dispatcher,
with and without a shared ``FrameCache``.
"""

from __future__ import annotations

import pytest

from repro.core.scenarios import FIGURES
from repro.data.weather import build_weather_database
from repro.dataflow.engine import Engine
from repro.obs.trace import tracing
from repro.protocol.dispatch import FrameCache

WINDOWS = [("fig4", "stations"), ("fig7", "map"), ("fig8", "map"),
           ("fig8", "tempseries")]


@pytest.fixture(scope="module")
def db():
    return build_weather_database(extra_stations=5, every_days=120)


@pytest.fixture()
def demands(monkeypatch):
    """box id -> number of ``Engine.output_of`` calls since the last
    ``clear()``."""
    counts: dict[int, int] = {}
    original = Engine.output_of

    def counted(self, box_id, port_name=None):
        counts[box_id] = counts.get(box_id, 0) + 1
        return original(self, box_id, port_name)

    monkeypatch.setattr(Engine, "output_of", counted)
    return counts


def input_box(session, window: str) -> int:
    viewer_box = session.window(window).viewer_box_id
    return session.program.edge_into_port(viewer_box, "in").src_box


def view_commands(session, window: str):
    """One of each command the benchmark's scripts send, as callables."""
    viewer = session.window(window).viewer
    center = viewer.view().center
    elevation = viewer.view().elevation
    commands = [
        ("pan_to", lambda: session.pan_to(window, center[0] + 0.25,
                                          center[1] - 0.25)),
        ("set_elevation", lambda: session.set_elevation(window,
                                                        elevation * 0.8)),
        ("pan", lambda: session.pan(window, 0.1, 0.1)),
        ("zoom", lambda: session.zoom(window, 1.25)),
    ]
    if "Altitude" in viewer.slider_dims():
        commands.append(("set_slider", lambda: session.set_slider(
            window, "Altitude", 0.0, 400.0)))
    return commands


@pytest.mark.parametrize("frame_cache", [False, True],
                         ids=["local", "frame-cache"])
@pytest.mark.parametrize("figure,window", WINDOWS,
                         ids=[f"{f}-{w}" for f, w in WINDOWS])
def test_each_command_demands_the_input_once(db, demands, figure, window,
                                             frame_cache):
    session = FIGURES[figure](db).session
    if frame_cache:
        session.protocol.frame_cache = FrameCache()
    box = input_box(session, window)
    session.render_frame(window, format="png")
    for name, command in view_commands(session, window):
        demands.clear()
        command()
        assert demands.get(box, 0) <= 1, name
        demands.clear()
        session.render_frame(window, format="png")
        assert demands.get(box, 0) <= 1, f"render after {name}"
    demands.clear()
    session.render_frame(window, format="png")  # a FrameCache hit when on
    assert demands.get(box, 0) <= 1, "repeat render"


def test_frame_cache_hit_demands_once(db, demands):
    session = FIGURES["fig7"](db).session
    cache = session.protocol.frame_cache = FrameCache()
    box = input_box(session, "map")
    session.render_frame("map", format="png")
    stored = len(cache)
    demands.clear()
    session.render_frame("map", format="png")
    assert len(cache) == stored == 1
    assert demands.get(box, 0) == 1


@pytest.mark.parametrize("figure,window", WINDOWS,
                         ids=[f"{f}-{w}" for f, w in WINDOWS])
def test_view_commands_on_an_unchanged_program_open_no_engine_span(
        db, figure, window):
    session = FIGURES[figure](db).session
    session.render_frame(window, format="png")
    for name, command in view_commands(session, window):
        with tracing() as tracer:
            command()
        engine_spans = [span.name for span in tracer.finished()
                        if span.name.startswith("engine.")]
        engine_events = [event.name for event in tracer.events
                         if event.name.startswith("engine.")]
        assert engine_spans == [] and engine_events == [], name
