"""Perf-2: "Execution is lazy, evaluating only what is required to produce
the demanded visualization" (§2).

A program with several expensive branches but only one demanded viewer.
Lazy demand fires the demanded path only; the eager ablation fires every
box.  The shape claim: lazy work (and time) is proportional to the demanded
path, not to program size.  Two same-process ratios gate it: eager over
lazy demand time, and a fresh lazy demand over a memoized re-demand.
"""

from __future__ import annotations

import pytest

from repro.dataflow.boxes_db import AddTableBox, JoinBox, RestrictBox
from repro.dataflow.engine import Engine
from repro.dataflow.graph import Program


def branchy_program(branches: int = 4):
    """One cheap demanded branch plus ``branches`` expensive undemanded ones
    (each an Observations self-join-ish restrict chain)."""
    program = Program()
    stations = program.add_box(AddTableBox(table="Stations"))
    demanded = program.add_box(RestrictBox(predicate="state = 'LA'"))
    program.connect(stations, "out", demanded, "in")
    for i in range(branches):
        obs = program.add_box(AddTableBox(table="Observations"))
        sta = program.add_box(AddTableBox(table="Stations"))
        join = program.add_box(
            JoinBox(left_key="station_id", right_key="station_id")
        )
        program.connect(obs, "out", join, "left")
        program.connect(sta, "out", join, "right")
        tail = program.add_box(
            RestrictBox(predicate=f"temperature > {60 + i}.0")
        )
        program.connect(join, "out", tail, "in")
    return program, demanded


def test_perf_lazy_demand(benchmark, weather_db):
    program, demanded = branchy_program()

    def lazy():
        engine = Engine(program, weather_db)
        engine.output_of(demanded)
        return engine.stats

    stats = benchmark(lazy)
    assert stats.total_fires() == 2  # AddTable + Restrict only


def test_perf_eager_ablation(benchmark, weather_db):
    program, demanded = branchy_program()

    def eager():
        engine = Engine(program, weather_db)
        engine.evaluate_all()
        return engine.stats

    stats = benchmark(eager)
    assert stats.total_fires() == len(program.boxes())


def test_perf_lazy_does_less_work(weather_db):
    """The invariant behind the timing gap (asserted, not timed)."""
    program, demanded = branchy_program()
    lazy = Engine(program, weather_db)
    lazy.output_of(demanded)
    eager = Engine(program, weather_db)
    eager.evaluate_all()
    assert lazy.stats.total_fires() * 5 <= eager.stats.total_fires()


def test_perf_memoized_redemand(benchmark, weather_db):
    """Re-demanding an unchanged program is pure cache traffic."""
    program, demanded = branchy_program()
    engine = Engine(program, weather_db)
    engine.output_of(demanded)
    fires = engine.stats.total_fires()

    result = benchmark(engine.output_of, demanded)
    assert engine.stats.total_fires() == fires  # zero new fires
    assert len(result.rows) == 18


#: Calls per timed arm of the ratios below, so each arm runs for
#: milliseconds; the ratios compare time per call.
_LAZY_CALLS = 100
_REDEMAND_CALLS = 5000

#: Median eager / lazy time per call.  On a 2-vCPU VM it read 40.4-43.2
#: over six runs, and 19.9-23.3 with the lazy arm planted to run twice.
EAGER_LAZY_MIN_RATIO = 30.0

#: Median fresh-lazy / memoized re-demand time per call.  On a 2-vCPU VM
#: it read 78-88 over six runs, and 35-44 with the re-demand planted to
#: run twice.
LAZY_REDEMAND_MIN_RATIO = 60.0


def _demands(program, db, box, calls):
    def run():
        for __ in range(calls):
            Engine(program, db).output_of(box)
    return run


def test_perf_lazy_vs_eager_ratio(weather_db, median_ratio):
    """Evaluating every box costs many lazy demands of one viewer."""
    program, demanded = branchy_program()

    def eager():
        Engine(program, weather_db).evaluate_all()

    ratio, rounds = median_ratio(
        eager, _demands(program, weather_db, demanded, _LAZY_CALLS),
        calls=(1, _LAZY_CALLS))
    assert ratio >= EAGER_LAZY_MIN_RATIO, (
        f"eager / lazy demand time {ratio:.1f} < {EAGER_LAZY_MIN_RATIO} "
        f"(rounds {rounds})")


def test_perf_lazy_vs_memoized_redemand_ratio(weather_db, median_ratio):
    """A re-demand of an unchanged program is a lookup: far cheaper than
    the lazy demand that filled the memo."""
    program, demanded = branchy_program()
    engine = Engine(program, weather_db)
    engine.output_of(demanded)
    fires = engine.stats.total_fires()

    def redemand():
        for __ in range(_REDEMAND_CALLS):
            engine.output_of(demanded)

    ratio, rounds = median_ratio(
        _demands(program, weather_db, demanded, _LAZY_CALLS), redemand,
        calls=(_LAZY_CALLS, _REDEMAND_CALLS))
    assert engine.stats.total_fires() == fires
    assert ratio >= LAZY_REDEMAND_MIN_RATIO, (
        f"lazy / memoized re-demand time {ratio:.1f} < "
        f"{LAZY_REDEMAND_MIN_RATIO} (rounds {rounds})")
