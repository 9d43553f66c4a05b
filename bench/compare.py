"""Compare two sets of benchmark runs metric by metric.

    python3 bench/compare.py A B

``A`` (the parent) and ``B`` (the change) are result files as
``bench/run.py`` appends them to ``bench/out/results.jsonl`` — one full
record per line — or directories of such ``*.jsonl`` files.  Untraced
records are grouped by workload, and for every (end-to-end metric,
workload) pair the script prints each side's median and quartiles and a
verdict, judged against the bounds in ``BENCHMARK.json``:

- ``unresolved``: either side's quartile spread is wider than the bound,
  unless every run of B reads better (``better``) or worse (``worse``)
  than every run of A;
- ``worse``: B's median is worse than A's by more than the bound;
- ``better``: B's median is better by more than A's own quartile spread
  and B wins at least nine tenths of the run pairs (paired by seed when
  both sides ran the same seeds);
- ``same`` otherwise.

Exits 1 when any pair is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from stats import quartiles

BENCH = Path(__file__).resolve().parent

#: series_update's write-path metrics: not in BENCHMARK.json, which lists
#: only metrics every workload reports, but gated here the same way.
UPDATE_METRICS = {
    "update_p50_ms": {"better": "lower", "bound": 0.25},
    "update_frame_p50_ms": {"better": "lower", "bound": 0.25},
    "update_frame_p95_ms": {"better": "lower", "bound": 0.25},
}


def load_runs(path: Path) -> dict[str, list[dict]]:
    """Untraced records under ``path``, by workload."""
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    runs: dict[str, list[dict]] = {}
    for file in files:
        for line in file.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            record = json.loads(line)
            if not record.get("trace"):
                runs.setdefault(record["workload"], []).append(record)
    return runs


def metric_specs() -> dict[str, dict]:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in spec["end_to_end"]}
    specs.update(UPDATE_METRICS)
    return specs


def _beats(x: float, y: float, lower: bool) -> bool:
    """Whether value ``x`` is better than value ``y``."""
    return x < y if lower else x > y


def _win_fraction(a: list[dict], b: list[dict], name: str, lower: bool,
                  paired: bool) -> float:
    """Share of (A run, B run) pairs in which B's run is better; pairs
    match seeds when ``paired`` and both sides ran the same seeds."""
    seeds_a = {r["seed"]: r[name] for r in a}
    seeds_b = {r["seed"]: r[name] for r in b}
    if paired and set(seeds_a) == set(seeds_b):
        pairs = [(seeds_a[s], seeds_b[s]) for s in seeds_a]
    else:
        pairs = [(x[name], y[name]) for x in a for y in b]
    return sum(_beats(y, x, lower) for x, y in pairs) / len(pairs)


def verdict(a: list[dict], b: list[dict], name: str, spec: dict) -> dict:
    lower = spec["better"] == "lower"
    bound = spec["bound"]
    qa, qb = quartiles([r[name] for r in a]), quartiles([r[name] for r in b])
    spread_a = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
    spread_b = (qb[2] - qb[0]) / qb[1] if qb[1] else 0.0
    change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
    worsening = change if lower else -change
    if max(spread_a, spread_b) > bound:
        every = _win_fraction(a, b, name, lower, paired=False)
        result = {1.0: "better", 0.0: "worse"}.get(every, "unresolved")
    elif worsening > bound:
        result = "worse"
    elif (-worsening > spread_a
          and _win_fraction(a, b, name, lower, paired=True) >= 0.9):
        result = "better"
    else:
        result = "same"
    return {"a": qa, "b": qb, "change": change, "verdict": result}


def compare(path_a: Path, path_b: Path) -> tuple[list[str], bool]:
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    specs = metric_specs()
    lines = [f"{'metric':22} {'workload':14} {'A median [Q1, Q3]':>28} "
             f"{'B median [Q1, Q3]':>28} {'change':>8}  verdict"]
    any_worse = False
    for name, spec in specs.items():
        for workload in sorted(set(runs_a) & set(runs_b)):
            a = [r for r in runs_a[workload] if name in r]
            b = [r for r in runs_b[workload] if name in r]
            if not a or not b:
                continue
            row = verdict(a, b, name, spec)
            any_worse |= row["verdict"] == "worse"
            side_a, side_b = (f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
                              for q in (row["a"], row["b"]))
            lines.append(f"{name:22} {workload:14} {side_a:>28} "
                         f"{side_b:>28} {row['change']:+8.1%}  "
                         f"{row['verdict']}")
    return lines, any_worse


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="parent runs")
    parser.add_argument("b", type=Path, help="change runs")
    args = parser.parse_args(argv)
    lines, any_worse = compare(args.a, args.b)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
