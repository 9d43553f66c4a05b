"""Thread-safety hammer: metrics and engine stats under concurrent updates.

Server pool workers increment counters concurrently, so every metric update
must be atomic.  N threads x M increments must land exactly N*M — a lost
update here would silently corrupt EXPLAIN output and cache statistics.
"""

from __future__ import annotations

import threading

from repro.dataflow.engine import EngineStats
from repro.obs.metrics import MetricsRegistry

THREADS = 8
INCS = 2_000


def hammer(work) -> None:
    start = threading.Barrier(THREADS)

    def run(index: int):
        start.wait()    # release all threads at once to maximize contention
        for __ in range(INCS):
            work(index)

    threads = [threading.Thread(target=run, args=(index,))
               for index in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestMetricsRegistry:
    def test_counter_increments_are_atomic(self):
        registry = MetricsRegistry()
        counter = registry.counter("hammer.count", "thread-safety hammer")
        hammer(lambda index: counter.inc())
        assert counter.total() == THREADS * INCS

    def test_labeled_counter_increments_are_atomic(self):
        # Distinct labels race on first-touch creation of their dict slots;
        # shared labels race on the read-modify-write.
        registry = MetricsRegistry()
        counter = registry.counter("hammer.labeled", "thread-safety hammer")
        hammer(lambda index: counter.inc(label=f"l{index % 3}"))
        assert counter.total() == THREADS * INCS
        assert sum(counter.values.values()) == THREADS * INCS
        assert set(counter.values) == {"l0", "l1", "l2"}

    def test_histogram_observations_all_counted(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("hammer.hist", "thread-safety hammer")
        hammer(lambda index: histogram.observe(float(index)))
        assert histogram.count() == THREADS * INCS

    def test_gauge_last_write_wins_cleanly(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("hammer.gauge", "thread-safety hammer")
        hammer(lambda index: gauge.set(float(index)))
        assert gauge.values[None] in {float(index) for index in range(THREADS)}


class TestEngineStats:
    def test_concurrent_fire_recordings_all_counted(self):
        stats = EngineStats()
        hammer(lambda index: stats.record_fire(index))
        assert stats.total_fires() == THREADS * INCS
        assert all(stats.fires[index] == INCS for index in range(THREADS))

    def test_concurrent_memo_hits_are_atomic(self):
        stats = EngineStats()
        hammer(lambda index: stats.record_hit(index % 2))
        assert stats.cache_hits == THREADS * INCS
