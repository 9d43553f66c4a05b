"""Shared fixtures for the benchmark harness.

The weather database is sized so every figure scenario is non-trivial but a
full ``pytest benchmarks/ --benchmark-only`` run stays in the minutes range.

Every benchmark test also runs under an enabled tracer (``repro.obs``); the
per-test span rollups plus pytest-benchmark timings are written to
``BENCH_obs.json`` (``REPRO_BENCH_OBS`` overrides the path) at session end —
the telemetry artifact the CI observability job uploads and schema-checks.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

# The per-tuple culling reference (tests/cull_reference.py) is the baseline
# arm of the cull-kernel benchmarks.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from repro.data.weather import build_weather_database
from repro.data.workloads import build_points_database
from repro.obs import (
    BENCH_SCHEMA,
    COLUMNAR_BENCH_SCHEMA,
    PARALLEL_BENCH_SCHEMA,
    SERVER_BENCH_SCHEMA,
    Tracer,
    declarations,
    push_tracer,
    run_summary,
    validate_bench_summary,
    validate_columnar_bench,
    validate_parallel_bench,
    validate_server_bench,
)


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


# ---------------------------------------------------------------------------
# Benchmark telemetry: per-test tracer -> BENCH_obs.json
# ---------------------------------------------------------------------------

_TELEMETRY: list[dict] = []


@pytest.fixture(autouse=True)
def _obs_telemetry(request):
    """Attach a capped tracer to every benchmark test.

    The cap bounds memory when a benchmark loops thousands of rounds; the
    rollup still counts every span recorded before the cap and reports the
    overflow in ``dropped``.
    """
    if "benchmark" not in request.fixturenames:
        yield
        return
    fixture = request.getfixturevalue("benchmark")
    tracer = Tracer(enabled=True, max_spans=50_000)
    with push_tracer(tracer):
        yield
    entry = {
        "name": request.node.nodeid,
        "timing": _benchmark_timing(fixture),
        "telemetry": run_summary(tracer),
    }
    _TELEMETRY.append(entry)


def _benchmark_timing(fixture):
    """pytest-benchmark timing stats, or None under --benchmark-disable."""
    meta = getattr(fixture, "stats", None)
    stats = getattr(meta, "stats", None)
    if stats is None or not getattr(stats, "data", None):
        return None
    return {
        "mean_s": stats.mean,
        "min_s": stats.min,
        "max_s": stats.max,
        "stddev_s": stats.stddev,
        "rounds": stats.rounds,
    }


# ---------------------------------------------------------------------------
# Result-cache telemetry: cold/warm arm timings -> BENCH_parallel.json
# ---------------------------------------------------------------------------

_PARALLEL: list[dict] = []


@pytest.fixture(scope="session")
def record_parallel():
    """Collector for the result-cache benchmarks.

    Each call records one benchmark entry (name + cold/warm timing arms +
    speedup); the session hook below schema-checks and writes them all to
    ``BENCH_parallel.json`` (``REPRO_BENCH_PARALLEL`` overrides the path).
    """

    def record(entry: dict) -> None:
        _PARALLEL.append(entry)

    return record


# ---------------------------------------------------------------------------
# Columnar-backend telemetry: row-vs-columnar arms -> BENCH_columnar.json
# ---------------------------------------------------------------------------

_COLUMNAR: list[dict] = []


@pytest.fixture(scope="session")
def record_columnar():
    """Collector for the row-vs-columnar backend benchmarks.

    Each call records one benchmark entry (name + row/columnar timing arms +
    speedup + columnar counters); the session hook below schema-checks and
    writes them all to ``BENCH_columnar.json`` (``REPRO_BENCH_COLUMNAR``
    overrides the path).
    """

    def record(entry: dict) -> None:
        _COLUMNAR.append(entry)

    return record


# ---------------------------------------------------------------------------
# Server-load telemetry: concurrent-viewer runs -> BENCH_server.json
# ---------------------------------------------------------------------------

_SERVER: list[dict] = []


@pytest.fixture(scope="session")
def record_server():
    """Collector for the multi-session server load benchmarks.

    Each call records one benchmark entry (name + viewer count + latency
    quantiles + throughput + frame/cache counters); the session hook below
    schema-checks and writes them all to ``BENCH_server.json``
    (``REPRO_BENCH_SERVER`` overrides the path).
    """

    def record(entry: dict) -> None:
        _SERVER.append(entry)

    return record


def pytest_sessionfinish(session, exitstatus):
    if _TELEMETRY:
        payload = {
            "schema": BENCH_SCHEMA,
            "benchmarks": _TELEMETRY,
            "metric_declarations": declarations(),
        }
        validate_bench_summary(payload)
        out = Path(os.environ.get("REPRO_BENCH_OBS",
                                  session.config.rootpath / "BENCH_obs.json"))
        out.write_text(json.dumps(payload, indent=1, sort_keys=True))
    if _PARALLEL:
        payload = {
            "schema": PARALLEL_BENCH_SCHEMA,
            "benchmarks": _PARALLEL,
        }
        validate_parallel_bench(payload)
        out = Path(os.environ.get(
            "REPRO_BENCH_PARALLEL",
            session.config.rootpath / "BENCH_parallel.json"))
        out.write_text(json.dumps(payload, indent=1, sort_keys=True))
    if _COLUMNAR:
        payload = {
            "schema": COLUMNAR_BENCH_SCHEMA,
            "benchmarks": _COLUMNAR,
        }
        validate_columnar_bench(payload)
        out = Path(os.environ.get(
            "REPRO_BENCH_COLUMNAR",
            session.config.rootpath / "BENCH_columnar.json"))
        out.write_text(json.dumps(payload, indent=1, sort_keys=True))
    if _SERVER:
        payload = {
            "schema": SERVER_BENCH_SCHEMA,
            "benchmarks": _SERVER,
        }
        validate_server_bench(payload)
        out = Path(os.environ.get(
            "REPRO_BENCH_SERVER",
            session.config.rootpath / "BENCH_server.json"))
        out.write_text(json.dumps(payload, indent=1, sort_keys=True))
