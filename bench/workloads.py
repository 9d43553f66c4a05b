"""The four benchmark workloads as seeded, deterministic command scripts.

A workload is an untimed warm-up plus an endless script of :class:`Step`
objects drawn from ``random.Random`` seeded by ``(seed, workload)``.  The
harness consumes a script prefix for as long as the timed phase lasts; the
program under test only ever sees the protocol commands (and the one
``generic_update`` call) the steps produce.
Why each workload exists, and its cache working set, is in ``README.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.api import PanTo, SetElevation, SetSlider

#: Pan box for the map programs: Louisiana in (longitude, latitude).
LA_LON = (-94.0, -89.0)
LA_LAT = (29.0, 33.0)
#: Every hosted window the workloads render is 640x480.
WINDOW_SIZE = (640, 480)
#: Louisiana stations are ids 1..18 (repro.data.weather.LOUISIANA_STATIONS);
#: the time-series canvas draws station s in the band at y = 60 s + 25.
LA_STATIONS = 18
SERIES_BAND = 60.0
SERIES_WIDTH = 401.0  # 11 years of days at 0.1 world units per day

SHARED_POOL_PER_PROGRAM = 12
SHARED_SWITCH_EVERY = 500
EXPLORE_SWITCH_EVERY = 50
EXPLORE_PROGRAMS = (("fig4", "stations"), ("fig7", "map"), ("fig8", "map"))
SCATTER_POINTS = 100_000


@dataclass(frozen=True)
class View:
    """A complete view state of one window: every command that sets it."""

    program: str
    window: str
    cx: float
    cy: float
    elevation: float | None = None
    slider: tuple[str, float, float] | None = None

    def commands(self) -> list:
        commands: list = [PanTo(window=self.window, cx=self.cx, cy=self.cy)]
        if self.elevation is not None:
            commands.append(SetElevation(window=self.window,
                                         elevation=self.elevation))
        if self.slider is not None:
            dim, low, high = self.slider
            commands.append(SetSlider(window=self.window, dim=dim,
                                      low=low, high=high))
        return commands


@dataclass(frozen=True)
class Open:
    """Open a hosted program in the client's session (untimed)."""

    program: str


@dataclass(frozen=True)
class Frame:
    """Set ``view`` (unless ``move`` is false) and render one timed frame.

    ``check`` names the correctness check the harness applies to it:
    ``"shared"`` (bytes equal per view, across sessions), ``"replay"`` (bytes
    equal to an in-process render, sampled after the server stops) or
    ``"reference"`` (bytes equal to an in-process render, checked inline).
    """

    view: View
    move: bool = True
    check: str = ""
    view_id: int = -1


@dataclass(frozen=True)
class Update:
    """§8 click-update: set ``temperature`` on a Louisiana observation.

    ``pick`` selects the row among the Louisiana rows of ``Observations``
    (modulo their count), so the script does not depend on table layout.
    """

    pick: int
    temperature: float


Step = Open | Frame | Update


@dataclass(frozen=True)
class Workload:
    script: Callable[[int], Iterator[Step]]
    warmup: Callable[[int], list[Step]]
    needs_points: bool = False


def _rng(seed: int, workload: str, stream: str) -> random.Random:
    return random.Random(f"{seed}:{workload}:{stream}")


# -- map_shared ------------------------------------------------------------


def shared_pool(seed: int) -> list[View]:
    """The 24 views the client revisits: 12 on fig4, 12 on fig7."""
    rng = _rng(seed, "map_shared", "pool")
    pool = []
    for program, window in (("fig4", "stations"), ("fig7", "map")):
        for _ in range(SHARED_POOL_PER_PROGRAM):
            pool.append(View(program, window,
                             rng.uniform(*LA_LON), rng.uniform(*LA_LAT)))
    return pool


def _shared_script(seed: int) -> Iterator[Step]:
    pool = shared_pool(seed)
    rng = _rng(seed, "map_shared", "script")
    half = SHARED_POOL_PER_PROGRAM
    block = 0
    while True:
        offset = half * block
        yield Open(pool[offset].program)
        for _ in range(SHARED_SWITCH_EVERY):
            view_id = offset + rng.randrange(half)
            yield Frame(pool[view_id], check="shared", view_id=view_id)
        block = 1 - block


def _shared_warmup(seed: int) -> list[Step]:
    pool = shared_pool(seed)
    steps: list[Step] = []
    for view_id, view in enumerate(pool):
        if view_id % SHARED_POOL_PER_PROGRAM == 0:
            steps.append(Open(view.program))
        steps.append(Frame(view, check="shared", view_id=view_id))
    return steps


# -- map_explore -------------------------------------------------------------


def explore_view(rng: random.Random, program: str, window: str) -> View:
    if program == "fig8":
        # fig8 views show every altitude; stating the full range keeps the
        # view self-contained when the session's "map" window carries a
        # slider window over from fig7.
        slider = ("Altitude", 0.0, 10_000.0)
    else:
        low = rng.uniform(0.0, 150.0)
        slider = ("Altitude", low, low + rng.uniform(50.0, 300.0))
    return View(program, window, rng.uniform(*LA_LON), rng.uniform(*LA_LAT),
                elevation=rng.uniform(1.0, 12.0), slider=slider)


def _explore_script(seed: int) -> Iterator[Step]:
    rng = _rng(seed, "map_explore", "script")
    index = 0
    while True:
        program, window = EXPLORE_PROGRAMS[index % len(EXPLORE_PROGRAMS)]
        yield Open(program)
        for _ in range(EXPLORE_SWITCH_EVERY):
            yield Frame(explore_view(rng, program, window), check="replay")
        index += 1


def _explore_warmup(seed: int) -> list[Step]:
    rng = _rng(seed, "map_explore", "warmup")
    steps: list[Step] = []
    for program, window in EXPLORE_PROGRAMS:
        steps += [Open(program), Frame(explore_view(rng, program, window))]
    return steps


# -- scatter_deep --------------------------------------------------------------


def scatter_view(rng: random.Random) -> View:
    low = rng.uniform(0.0, 60.0)
    return View("scatter", "scatter",
                rng.uniform(-450.0, 450.0), rng.uniform(-450.0, 450.0),
                elevation=rng.uniform(20.0, 80.0),
                slider=("value_dim", low, low + rng.uniform(20.0, 40.0)))


def _scatter_script(seed: int) -> Iterator[Step]:
    rng = _rng(seed, "scatter_deep", "script")
    yield Open("scatter")
    while True:
        yield Frame(scatter_view(rng), check="replay")


def _scatter_warmup(seed: int) -> list[Step]:
    rng = _rng(seed, "scatter_deep", "warmup")
    return [Open("scatter"), Frame(scatter_view(rng)), Frame(scatter_view(rng))]


# -- series_update -------------------------------------------------------------


def series_view(rng: random.Random) -> View:
    station = rng.randint(1, LA_STATIONS)
    return View("fig8", "tempseries",
                rng.uniform(0.0, SERIES_WIDTH),
                station * SERIES_BAND + rng.uniform(0.0, 50.0),
                elevation=rng.uniform(80.0, 200.0))


def _series_script(seed: int) -> Iterator[Step]:
    # Two read frames per write: the median frame is a read and the tail
    # (p95) is the frame after an update, so neither statistic sits on the
    # boundary between the two latency clusters.
    rng = _rng(seed, "series_update", "script")
    yield Open("fig8")
    while True:
        yield Frame(series_view(rng))
        view = series_view(rng)
        yield Frame(view)
        yield Update(rng.randrange(1 << 30), round(rng.uniform(40.0, 89.0), 1))
        yield Frame(view, move=False, check="reference")


def _series_warmup(seed: int) -> list[Step]:
    rng = _rng(seed, "series_update", "warmup")
    return [Open("fig8"), Frame(series_view(rng)), Frame(series_view(rng))]


WORKLOADS: dict[str, Workload] = {
    "map_shared": Workload(_shared_script, _shared_warmup),
    "map_explore": Workload(_explore_script, _explore_warmup),
    "scatter_deep": Workload(_scatter_script, _scatter_warmup,
                             needs_points=True),
    "series_update": Workload(_series_script, _series_warmup),
}
