"""Perf-5: join strategies for the Stations ⋈ Observations step.

Sweeps 1:N workloads over hash, nested-loop, and index-probe strategies.
The shape claim: nested-loop is quadratic and loses by orders of magnitude
as inputs grow; the hash build and the pre-built index probe stay near-linear
and converge.
"""

from __future__ import annotations

import time

import pytest

from repro.data.workloads import build_pairs_tables
from repro.dataflow.boxes_db import AddTableBox, JoinBox, RestrictBox
from repro.dataflow.engine import Engine
from repro.dataflow.graph import Program
from repro.dbms.algebra import join_hash, join_nested_loop
from repro.dbms.catalog import Database
from repro.dbms.index import HashIndex, indexed_equi_join
from repro.dbms.result_cache import result_cache

SIZES = {
    "small": (50, 4),     # 50 x 200
    "medium": (200, 5),   # 200 x 1000
    "large": (500, 6),    # 500 x 3000
}

_CACHE: dict[str, tuple] = {}


def workload(name: str):
    if name not in _CACHE:
        left_count, per_left = SIZES[name]
        left, right = build_pairs_tables(left_count, per_left, seed=5)
        _CACHE[name] = (left.snapshot(), right.snapshot(), HashIndex(right, "ref"))
    return _CACHE[name]


@pytest.mark.parametrize("size", list(SIZES))
def test_perf_join_hash(benchmark, size):
    left, right, __ = workload(size)
    result = benchmark(join_hash, left, right, "key", "ref")
    assert len(result) == len(right)  # every right row matches exactly once


@pytest.mark.parametrize("size", list(SIZES))
def test_perf_join_nested_loop(benchmark, size):
    left, right, __ = workload(size)
    result = benchmark(join_nested_loop, left, right, "key", "ref")
    assert len(result) == len(right)


@pytest.mark.parametrize("size", list(SIZES))
def test_perf_join_index_probe(benchmark, size):
    left, right, index = workload(size)
    pairs = benchmark(indexed_equi_join, left, index, "key")
    assert len(pairs) == len(right)


def test_perf_join_strategies_agree(benchmark):
    """All strategies compute the same join (asserted on the medium size)."""
    left, right, index = workload("medium")

    def all_three():
        h = join_hash(left, right, "key", "ref")
        n = join_nested_loop(left, right, "key", "ref")
        p = indexed_equi_join(left, index, "key")
        return h, n, p

    h, n, p = benchmark(all_three)
    assert sorted(map(repr, h)) == sorted(map(repr, n))
    assert len(p) == len(h)


# ---------------------------------------------------------------------------
# Result cache: slaved viewers sharing one join through the result cache
# ---------------------------------------------------------------------------

_ARMS = {"cold": False, "warm": True}    # arm -> result cache on?
_VIEWERS = 8    # independent engines demanding the same join (slaving model)
_ROUNDS = 5


def _slaved_join_workload():
    """A large Stations⋈Observations-shaped program, 800 x 6400 rows."""
    left, right = build_pairs_tables(800, 8, seed=7)
    db = Database("bench_cache")
    db.add_table(left)
    db.add_table(right)
    program = Program()
    src_l = program.add_box(AddTableBox(table="Left"))
    src_r = program.add_box(AddTableBox(table="Right"))
    join = program.add_box(JoinBox(left_key="key", right_key="ref"))
    keep = program.add_box(RestrictBox(predicate="measure > 0.25"))
    program.connect(src_l, "out", join, "left")
    program.connect(src_r, "out", join, "right")
    program.connect(join, "out", keep, "in")
    return db, program, keep


def _run_viewers(db, program, box_id, cache: bool):
    """Force the join output through _VIEWERS fresh engines (one per viewer)."""
    rows = None
    for __ in range(_VIEWERS):
        engine = Engine(program, db, cache=cache)
        rows = engine.output_of(box_id).rows.force()
    return rows


def test_perf_join_cache_speedup(record_parallel):
    """Repeated demands of one join: the shared result cache must win big.

    The cold arm (cache off) re-executes the join per viewer; the warm arm
    (cache on) pays one miss and then shares the materialization, which is
    where the paper's slaved-viewer interaction pattern gets its speedup.
    Rounds alternate the arms, so a host slowdown lands on both rather than
    skewing the speedup.
    """
    db, program, box_id = _slaved_join_workload()
    cache = result_cache()
    best = dict.fromkeys(_ARMS, float("inf"))
    baseline = None
    for __ in range(_ROUNDS):
        for arm, enabled in _ARMS.items():
            cache.clear()
            start = time.perf_counter()
            rows = _run_viewers(db, program, box_id, enabled)
            best[arm] = min(best[arm], time.perf_counter() - start)
            if baseline is None:
                baseline = rows
            else:
                assert rows == baseline    # every arm computes the same join
    arms = {arm: {"cache": enabled, "seconds": round(best[arm], 6)}
            for arm, enabled in _ARMS.items()}
    stats = cache.stats()
    assert stats["hits"] >= _VIEWERS - 1    # the cache actually engaged
    speedup = arms["cold"]["seconds"] / arms["warm"]["seconds"]
    record_parallel({
        "name": "join_slaved_viewers",
        "workload": {"left_rows": 800, "right_rows": 6400,
                     "viewers": _VIEWERS},
        "arms": arms,
        "speedup": round(speedup, 2),
        "cache": {"hits": stats["hits"], "misses": stats["misses"]},
    })
    assert speedup >= 1.8
