"""Tracing cost of a view command, measured against itself untraced.

A warm ``pan_to`` on an unchanged program demands the viewer's input once,
and that demand is a memo lookup: it opens no ``engine.demand`` span and
emits no ``engine.cache.hit`` event.  Traced the way the server traces
(a ``Tracer(enabled=True, max_spans=0)`` feeding a ``RequestLog``), the
command should then cost its untraced time plus one request span.

The gate times each command untraced and traced back to back, in the same
process, so host speed cancels out of the ratio; ``gc`` is paused while
timing.  It also checks that no ``engine.*`` span or event reaches the
tracer's sinks during the traced commands: that is the cost a repeat
demand used to add, and it is too small next to the request span for the
time ratio alone to separate (see ``TRACED_MAX_RATIO``).
"""

from __future__ import annotations

import gc
import random
import statistics
from time import perf_counter

from repro.core.scenarios import FIGURES
from repro.data.weather import build_weather_database
from repro.obs import Tracer, push_tracer
from repro.obs.requests import RequestLog
from repro.obs.trace import current_tracer
from repro.protocol.messages import PanTo

#: Median traced/untraced time of a warm fig7 ``pan_to``.  On a 2-vCPU VM
#: it read 2.42-2.50 over three runs, and 3.50-3.55 (3 of 3 over the
#: bound) with the request-side tracing work done twice (trace context,
#: request span, sink calls, response stamp).  With the engine's
#: pre-lookup ``output_of`` restored it read 2.56-2.69: one span and one
#: event more per command, which the sink check below catches instead.
TRACED_MAX_RATIO = 3.0

COMMANDS = 200
ROUNDS = 7


def test_perf_demand_traced_vs_untraced_ratio():
    db = build_weather_database(extra_stations=10, every_days=60)
    session = FIGURES["fig7"](db).session
    rng = random.Random(29)
    commands = [PanTo(window="map", cx=-91.8 + rng.uniform(-2.0, 2.0),
                      cy=31.0 + rng.uniform(-2.0, 2.0))
                for __ in range(COMMANDS)]
    tracer = Tracer(enabled=True, max_spans=0)
    log = RequestLog().attach(tracer)
    reached: list[str] = []
    tracer.add_sink(lambda item: reached.append(item.name))
    assert not current_tracer().enabled

    def one_round() -> float:
        untraced, traced = [], []
        for command in commands:
            start = perf_counter()
            session.execute(command)
            untraced.append(perf_counter() - start)
            with push_tracer(tracer):
                start = perf_counter()
                session.execute(command)
                traced.append(perf_counter() - start)
        return statistics.median(traced) / statistics.median(untraced)

    one_round()  # warm: the first demand fires and forces
    reached.clear()
    gc.collect()
    gc.disable()
    try:
        ratios = [one_round() for __ in range(ROUNDS)]
    finally:
        gc.enable()
        log.detach()
    engine_items = sorted({name for name in reached
                           if name.startswith("engine.")})
    assert engine_items == [], (
        f"a warm pan_to traced {engine_items}: a repeat demand must be a "
        "lookup")
    assert reached.count("request.pan_to") == ROUNDS * COMMANDS
    ratio = statistics.median(ratios)
    assert ratio <= TRACED_MAX_RATIO, (
        f"traced / untraced pan_to time {ratio:.2f} > {TRACED_MAX_RATIO} "
        f"(rounds {[round(r, 2) for r in ratios]})")
