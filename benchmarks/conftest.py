"""Shared fixtures for the benchmark harness.

The weather database is sized so every figure scenario is non-trivial but a
full ``pytest benchmarks/ --benchmark-only`` run stays in the minutes range.

A mechanism is gated by a ratio of two arms timed in the same process (see
the ratio table in ``docs/OBSERVABILITY.md``), never by a stored absolute
time, so nothing here writes a results file.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

# The per-tuple culling reference (tests/cull_reference.py) is the baseline
# arm of the cull-kernel benchmarks.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from repro.data.weather import build_weather_database
from repro.data.workloads import build_points_database


@pytest.fixture(scope="session")
def weather_db():
    """Stations across North America + ~10k observations straddling 1990."""
    return build_weather_database(extra_stations=60, every_days=30)


@pytest.fixture(scope="session")
def points_db_20k():
    """20k random points for the sampling/culling sweeps."""
    return build_points_database(20_000, seed=3)


@pytest.fixture(scope="session")
def points_db_5k():
    return build_points_database(5_000, seed=4)


def _settle_allocator():
    """Free one 31 MB block.  glibc raises its mmap threshold to the size of
    the largest mapped block freed so far (up to 32 MB), and below that
    threshold a large array reuses heap memory instead of faulting in fresh
    pages.  Without this, whether an arm's arrays page-fault depends on
    which tests ran before it in the process (the eager/lazy ratio read 60
    alone and 41 after the culling module)."""
    np.empty(31 << 20, dtype=np.uint8)


def _median_ratio(slow, fast, rounds=7, best_of=3, calls=(1, 1)):
    """Median over ``rounds`` of best ``slow`` time / best ``fast`` time,
    per call when ``calls`` gives how many calls each arm makes.

    An arm is a zero-argument callable, or a ``(make, run)`` pair whose
    ``run(make())`` is timed without the ``make``.  An arm whose one call
    takes microseconds loops over many, so its time is not timer noise.
    Each round times the two arms back to back, so a host slowdown lands
    on both arms of a round and cancels out of its ratio; ``gc`` is paused
    while a round is timed.  Returns the median and the per-round ratios
    (for the failure message).
    """
    def best(arm):
        make, run = arm if isinstance(arm, tuple) else (None, arm)
        elapsed = float("inf")
        for __ in range(best_of):
            args = () if make is None else (make(),)
            start = time.perf_counter()
            run(*args)
            elapsed = min(elapsed, time.perf_counter() - start)
        return elapsed

    scale = calls[1] / calls[0]
    _settle_allocator()
    ratios = []
    for __ in range(rounds):
        gc.collect()
        gc.disable()
        try:
            ratios.append(best(slow) / best(fast) * scale)
        finally:
            gc.enable()
    return statistics.median(ratios), [round(r, 2) for r in ratios]


@pytest.fixture(scope="session")
def median_ratio():
    """:func:`_median_ratio`, the shape every same-process ratio gate uses."""
    return _median_ratio
