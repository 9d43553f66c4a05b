"""Run one benchmark workload and print its result as one JSON line.

    python3 bench/run.py --workload map_explore --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, with every timing rescaled to
a quiet host's speed (``hostspeed.py``), ``--trace 1`` the per-layer split.
The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; the full record (raw timings, sample counts, update latencies,
failures) is appended to ``bench/out/results.jsonl`` for
``bench/compare.py``, and the
run directory ``bench/out/<workload>[-trace]/`` keeps the server's stderr
log and, for traced runs, a Chrome trace.  Run from a source checkout:
the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from layers import FRAME_LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: End-to-end metrics (untraced run) and their units.
END_TO_END = {
    "setup_s": "s",
    "frame_p50_ms": "ms",
    "frame_p95_ms": "ms",
    "frames_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced run) and their units.
PER_LAYER = {
    **{f"{layer}.{stat}": unit for layer in (*FRAME_LAYERS, "unaccounted")
       for stat, unit in (("p50_ms", "ms"), ("p95_ms", "ms"),
                          ("share", "ratio"))},
    "update.apply.p50_ms": "ms",
    "update.apply.p95_ms": "ms",
    "engine.calls_per_frame": "calls/frame",
    "scene.rows_per_frame": "rows/frame",
    "scene.keep_frac": "ratio",
    "canvas.draw_ops_per_frame": "ops/frame",
    "canvas.png_bytes_per_frame": "bytes",
    "dispatch.frame_hit_frac": "ratio",
    "plan.result_hit_frac": "ratio",
    "plan.evictions": "count",
    "trace.overhead_frac": "ratio",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    sys.path.insert(0, str(ROOT / "src"))
    from harness import run_workload
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    run_dir = OUT / (args.workload + ("-trace" if args.trace else ""))
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), run_dir)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as results:
        results.write(json.dumps(record) + "\n")
    print(json.dumps(result_line(record)))
    return 0


def pin_to_one_cpu() -> None:
    """Run the whole process, and every thread it starts, on the
    highest-numbered CPU it may use.

    The program is GIL-bound, so a second CPU buys it little. Unpinned on a
    2-vCPU VM, though, every run landed on a fast or a slow vCPU (1.4x apart)
    and frame latency split into two clusters between runs; cross-CPU
    wake-ups between the client, event-loop and pool threads added more.
    CPU 0 also serves the VM's housekeeping, so the last CPU is the quiet one.
    Threads inherit the affinity, so this must run before any starts.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def result_line(record: dict) -> dict:
    """The printed summary of a run record: end-to-end metrics for an
    untraced run, the per-layer split for a traced one."""
    if record["trace"]:
        values, units = record["layers"], PER_LAYER
    else:
        values, units = record, END_TO_END
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
