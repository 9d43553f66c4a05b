"""Bench regression diffing: compare two ``BENCH_*.json`` files.

The benchmark suite writes two artifact kinds — ``BENCH_obs.json``
(``repro.bench/1``: per-test pytest-benchmark timings + span rollups) and
``BENCH_parallel.json`` (``repro.bench.parallel/1``: result-cache cold and
warm timing arms + speedups).  :func:`diff_bench` routes on the payload's
own schema tag and compares the metrics that matter for each:

* ``repro.bench.parallel/1`` — every arm's ``seconds`` (wall time, higher
  is worse) and the headline ``speedup`` (higher is better).
* ``repro.bench/1`` — every benchmark's ``timing.mean_s``.

A comparison regresses when it moves past its metric's threshold (default
25%, :data:`DEFAULT_THRESHOLDS`); wall times under ``min_seconds`` are
skipped as noise (micro-benchmarks jitter far more than 25% between runs).
The CLI front-end is ``repro bench-diff`` — the CI observability job runs
it against the committed ``benchmarks/baselines/`` snapshots, which is the
gate that keeps the recorded warm-cache speedups from silently
regressing.  See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.errors import ObservabilityError
from repro.obs.export import (
    BENCH_SCHEMA,
    COLUMNAR_BENCH_SCHEMA,
    PARALLEL_BENCH_SCHEMA,
    SERVER_BENCH_SCHEMA,
)

__all__ = [
    "diff_bench",
    "diff_bench_files",
    "render_diff",
    "DIFF_SCHEMA",
    "DEFAULT_THRESHOLDS",
]

DIFF_SCHEMA = "repro.benchdiff/1"
"""Schema tag stamped into :func:`diff_bench` reports."""

DEFAULT_THRESHOLDS = {
    "seconds": 0.25,
    "mean_s": 0.25,
    "speedup": 0.25,
    "p50_s": 0.5,
    "p99_s": 0.5,
    "throughput_cps": 0.5,
}
"""Per-metric relative-change thresholds beyond which a change is a
regression (and, symmetrically, an improvement)."""

#: Wall-clock floor: timings where both sides are under this many seconds
#: are compared informationally but never flagged — micro-timings jitter.
DEFAULT_MIN_SECONDS = 0.005

#: Metrics where *higher* is better (everything else: lower is better).
_HIGHER_IS_BETTER = {"speedup", "throughput_cps"}


def _by_name(payload: dict[str, Any]) -> dict[str, dict[str, Any]]:
    benchmarks = payload.get("benchmarks")
    if not isinstance(benchmarks, list):
        raise ObservabilityError("bench payload needs a 'benchmarks' list")
    return {entry["name"]: entry for entry in benchmarks
            if isinstance(entry, dict) and "name" in entry}


def _compare(name: str, metric: str, base: float, curr: float,
             threshold: float, flaggable: bool) -> dict[str, Any]:
    ratio = curr / base if base else (1.0 if not curr else float("inf"))
    status = "ok"
    if flaggable:
        if metric in _HIGHER_IS_BETTER:
            if curr < base * (1.0 - threshold):
                status = "regression"
            elif curr > base * (1.0 + threshold):
                status = "improvement"
        else:
            if curr > base * (1.0 + threshold):
                status = "regression"
            elif curr < base * (1.0 - threshold):
                status = "improvement"
    return {
        "name": name,
        "metric": metric,
        "baseline": base,
        "current": curr,
        "ratio": round(ratio, 4),
        "threshold": threshold,
        "status": status,
    }


def _parallel_rows(name: str, base: dict, curr: dict, thresholds: dict,
                   min_seconds: float) -> list[dict[str, Any]]:
    rows: list[dict[str, Any]] = []
    base_arms = base.get("arms") or {}
    curr_arms = curr.get("arms") or {}
    for arm_name in sorted(set(base_arms) & set(curr_arms)):
        base_s = base_arms[arm_name].get("seconds")
        curr_s = curr_arms[arm_name].get("seconds")
        if not isinstance(base_s, (int, float)) or \
                not isinstance(curr_s, (int, float)):
            continue
        flaggable = max(base_s, curr_s) >= min_seconds
        rows.append(_compare(f"{name}[{arm_name}]", "seconds",
                             float(base_s), float(curr_s),
                             thresholds["seconds"], flaggable))
    base_speedup = base.get("speedup")
    curr_speedup = curr.get("speedup")
    if isinstance(base_speedup, (int, float)) and \
            isinstance(curr_speedup, (int, float)):
        rows.append(_compare(name, "speedup", float(base_speedup),
                             float(curr_speedup), thresholds["speedup"],
                             True))
    return rows


def _server_rows(name: str, base: dict, curr: dict, thresholds: dict,
                 min_seconds: float) -> list[dict[str, Any]]:
    rows: list[dict[str, Any]] = []
    base_latency = base.get("latency") or {}
    curr_latency = curr.get("latency") or {}
    for quantile in ("p50_s", "p99_s"):
        base_q = base_latency.get(quantile)
        curr_q = curr_latency.get(quantile)
        if not isinstance(base_q, (int, float)) or \
                not isinstance(curr_q, (int, float)):
            continue
        flaggable = max(base_q, curr_q) >= min_seconds
        rows.append(_compare(name, quantile, float(base_q), float(curr_q),
                             thresholds[quantile], flaggable))
    base_tp = base.get("throughput_cps")
    curr_tp = curr.get("throughput_cps")
    if isinstance(base_tp, (int, float)) and isinstance(curr_tp, (int, float)):
        rows.append(_compare(name, "throughput_cps", float(base_tp),
                             float(curr_tp), thresholds["throughput_cps"],
                             True))
    return rows


def _obs_rows(name: str, base: dict, curr: dict, thresholds: dict,
              min_seconds: float) -> list[dict[str, Any]]:
    base_timing = base.get("timing") or {}
    curr_timing = curr.get("timing") or {}
    base_mean = base_timing.get("mean_s")
    curr_mean = curr_timing.get("mean_s")
    if not isinstance(base_mean, (int, float)) or \
            not isinstance(curr_mean, (int, float)):
        return []
    flaggable = max(base_mean, curr_mean) >= min_seconds
    return [_compare(name, "mean_s", float(base_mean), float(curr_mean),
                     thresholds["mean_s"], flaggable)]


def diff_bench(baseline: dict[str, Any], current: dict[str, Any],
               threshold: float | None = None,
               thresholds: dict[str, float] | None = None,
               min_seconds: float = DEFAULT_MIN_SECONDS) -> dict[str, Any]:
    """Compare two bench payloads of the same schema; returns a report.

    ``threshold`` overrides every per-metric threshold at once;
    ``thresholds`` overrides individual metrics on top of
    :data:`DEFAULT_THRESHOLDS`.  The report (schema ``repro.benchdiff/1``)
    carries every comparison plus the ``regressions`` subset, benchmarks
    ``missing`` from the current run, and newly ``added`` ones.
    """
    for side, payload in (("baseline", baseline), ("current", current)):
        if not isinstance(payload, dict) or "schema" not in payload:
            raise ObservabilityError(
                f"{side} bench payload must be an object with a 'schema' tag"
            )
    base_schema = baseline["schema"]
    if base_schema != current["schema"]:
        raise ObservabilityError(
            f"cannot diff schemas {base_schema!r} and "
            f"{current['schema']!r}; compare like with like"
        )
    if base_schema in (PARALLEL_BENCH_SCHEMA, COLUMNAR_BENCH_SCHEMA):
        # Columnar bench files share the arms-plus-speedup shape; the same
        # row comparison applies (arm seconds, headline speedup).
        row_fn = _parallel_rows
    elif base_schema == SERVER_BENCH_SCHEMA:
        row_fn = _server_rows
    elif base_schema == BENCH_SCHEMA:
        row_fn = _obs_rows
    else:
        raise ObservabilityError(
            f"unknown bench schema {base_schema!r}; known: "
            f"{BENCH_SCHEMA!r}, {PARALLEL_BENCH_SCHEMA!r}, "
            f"{COLUMNAR_BENCH_SCHEMA!r}, {SERVER_BENCH_SCHEMA!r}"
        )
    effective = dict(DEFAULT_THRESHOLDS)
    if threshold is not None:
        effective = {metric: threshold for metric in effective}
    if thresholds:
        effective.update(thresholds)

    base_by_name = _by_name(baseline)
    curr_by_name = _by_name(current)
    comparisons: list[dict[str, Any]] = []
    for name in sorted(set(base_by_name) & set(curr_by_name)):
        comparisons.extend(
            row_fn(name, base_by_name[name], curr_by_name[name],
                   effective, min_seconds)
        )
    regressions = [row for row in comparisons if row["status"] == "regression"]
    return {
        "schema": DIFF_SCHEMA,
        "bench_schema": base_schema,
        "thresholds": effective,
        "min_seconds": min_seconds,
        "comparisons": comparisons,
        "regressions": regressions,
        "improvements": [row for row in comparisons
                         if row["status"] == "improvement"],
        "missing": sorted(set(base_by_name) - set(curr_by_name)),
        "added": sorted(set(curr_by_name) - set(base_by_name)),
    }


def diff_bench_files(baseline_path: str | Path, current_path: str | Path,
                     **kwargs: Any) -> dict[str, Any]:
    """:func:`diff_bench` over two JSON files on disk."""
    baseline = json.loads(Path(baseline_path).read_text())
    current = json.loads(Path(current_path).read_text())
    return diff_bench(baseline, current, **kwargs)


def render_diff(report: dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`diff_bench` report."""
    lines = [f"bench diff ({report['bench_schema']}): "
             f"{len(report['comparisons'])} comparisons, "
             f"{len(report['regressions'])} regressions, "
             f"{len(report['improvements'])} improvements"]
    marks = {"regression": "✗", "improvement": "✓", "ok": " "}
    for row in report["comparisons"]:
        direction = ("higher-is-better" if row["metric"] in _HIGHER_IS_BETTER
                     else "")
        lines.append(
            f"  {marks[row['status']]} {row['name']:<44} {row['metric']:<8} "
            f"{row['baseline']:.6g} -> {row['current']:.6g} "
            f"(x{row['ratio']:.3g}) {direction}".rstrip()
        )
    for name in report["missing"]:
        lines.append(f"  ! missing from current run: {name}")
    for name in report["added"]:
        lines.append(f"  + new benchmark: {name}")
    return "\n".join(lines)
