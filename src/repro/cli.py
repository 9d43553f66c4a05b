"""Command-line interface: inspect databases, run programs, render figures.

::

    python -m repro.cli init-weather --out weather.json   # write a demo DB
    python -m repro.cli tables --db weather.json          # the tables menu
    python -m repro.cli programs --db weather.json        # saved programs
    python -m repro.cli show-program --db db.json --name viz [--out p.ppm]
    python -m repro.cli run-program --db db.json --name viz --out-dir frames/
    python -m repro.cli figures --out-dir figures/ [--which fig4,fig7]
    python -m repro.cli query --db db.json --table T --where "x > 1" [--limit N]
    python -m repro.cli lint [--figure fig4 | --db db.json --name viz] [--json]
    python -m repro.cli trace fig4                        # Chrome trace_event
    python -m repro.cli stats --figure fig4 [--json]      # metrics snapshot
    python -m repro.cli why --figure fig4 --px 504 --py 352   # why-provenance
    python -m repro.cli bench-diff baselines/BENCH_parallel.json BENCH_parallel.json
    python -m repro.cli dashboard --out-dir dash/         # self-hosted telemetry

``lint`` runs the static program checker (``repro.analyze``) over a saved
program or the built-in figure scenarios (all of them by default) without
executing anything; it exits 1 when any error-severity diagnostic is found
(``--strict`` also fails on warnings).  ``lint --deep`` additionally runs
the abstract interpreter (``repro.analyze.absint``) over each program,
reporting dead predicates (``T2-W204``), statically empty results
(``T2-W205``), and hazard-impossibility proof notes (``T2-I301``).  The
diagnostic codes are cataloged in ``docs/STATIC_ANALYSIS.md``.

``trace`` renders a figure scenario (or a saved program) under an enabled
tracer with a cold engine cache and writes the spans as Chrome
``trace_event`` JSON — load it at ``chrome://tracing`` or in Perfetto to
see engine fires, plan-node execution, and render passes nested on one
timeline.  ``stats`` prints the run-summary dict (span rollups plus the
metrics registry) for a figure render; ``--check`` verifies the
process-wide metric declarations are conflict-free and ``--validate-bench``
schema-checks a ``BENCH_obs.json`` produced by the benchmark suite.
``lint --timing`` and ``explain --timing`` print a span-tree timing
breakdown of the analysis itself.  ``why`` renders a figure scenario,
picks the mark under a pixel, and walks its lineage back to the base-table
rows — a human provenance tree, or the ``repro.lineage/1`` document with
``--json`` (``--strict`` exits 1 when provenance is incomplete).  See
``docs/OBSERVABILITY.md``.

``bench-diff`` compares two ``BENCH_*.json`` files (routing on their schema
tag) and exits nonzero when any metric regresses past its threshold — the
perf-regression gate CI runs against ``benchmarks/baselines/``.
``dashboard`` records telemetry from a real figure render and renders the
self-hosted telemetry dashboard (``repro.obs.dashboard``) headless — the
reproduction visualizing its own engine; see ``docs/DASHBOARD.md``.

``run-program`` loads a saved boxes-and-arrows program, opens every viewer
box it contains, and renders each canvas to a PPM file — a headless batch
version of the interactive session.

The inspection subcommands (``lint``, ``explain``, ``stats``, ``trace``,
``render``) accept one uniform flag set from a shared parent parser:
``--json`` (machine-readable output), ``--timing`` (span-tree timing
breakdown of the run), ``--strict`` (exit nonzero on soft problems —
lint warnings, plan degradation notes, dropped trace spans, blank
canvases).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core import scenarios
from repro.data.weather import build_weather_database
from repro.dbms.algebra import limit as limit_rows
from repro.dbms.algebra import restrict_predicate
from repro.dbms.storage import load_database_file, save_database_file
from repro.display.defaults import default_field_texts
from repro.errors import TiogaError
from repro.ui.session import Session

__all__ = ["main", "build_parser"]

# The figure registry lives with the scenarios so the CLI and the server
# host the same catalog.
_FIGURES = scenarios.FIGURES


def _common_flags() -> argparse.ArgumentParser:
    """Shared parent parser for the inspection subcommands.

    ``lint``/``explain``/``stats``/``trace``/``render`` all inherit the
    same flags instead of re-declaring per-command copies, so
    ``--json``/``--timing``/``--strict`` mean the same thing
    (and spell the same way) everywhere.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit machine-readable JSON instead of human-readable lines",
    )
    common.add_argument(
        "--timing", action="store_true",
        help="also print a span-tree timing breakdown of the run",
    )
    common.add_argument(
        "--strict", action="store_true",
        help="exit nonzero on soft problems too (lint warnings, plan "
        "degradation notes, dropped trace spans, blank canvases)",
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tioga2",
        description="Tioga-2 reproduction: headless database visualization",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    common = _common_flags()

    init = commands.add_parser(
        "init-weather", help="write the synthetic weather database to JSON"
    )
    init.add_argument("--out", required=True, help="output JSON path")
    init.add_argument("--stations", type=int, default=60,
                      help="extra non-Louisiana stations")
    init.add_argument("--every-days", type=int, default=30,
                      help="observation cadence in days")

    tables = commands.add_parser("tables", help="list a database's tables")
    tables.add_argument("--db", required=True)

    programs = commands.add_parser("programs", help="list saved programs")
    programs.add_argument("--db", required=True)

    show = commands.add_parser(
        "show-program", help="print (and optionally draw) a saved program"
    )
    show.add_argument("--db", required=True)
    show.add_argument("--name", required=True)
    show.add_argument("--out", help="also render the program window to PPM")

    run = commands.add_parser(
        "run-program", help="render every canvas of a saved program"
    )
    run.add_argument("--db", required=True)
    run.add_argument("--name", required=True)
    run.add_argument("--out-dir", required=True)

    figures = commands.add_parser(
        "figures", help="regenerate the paper's figures as images"
    )
    figures.add_argument("--out-dir", required=True)
    figures.add_argument(
        "--which", default=",".join(_FIGURES),
        help=f"comma-separated subset of: {', '.join(_FIGURES)}",
    )
    figures.add_argument(
        "--format", default="ppm", choices=("ppm", "png", "svg"),
        help="image format (svg renders vectors through the SVG surface)",
    )

    query = commands.add_parser(
        "query", help="print a table, optionally filtered (terminal monitor)"
    )
    query.add_argument("--db", required=True)
    query.add_argument("--table", required=True)
    query.add_argument("--where", help="predicate in the query language")
    query.add_argument("--limit", type=int, default=20)

    boxes = commands.add_parser(
        "boxes", help="list the registered box catalog with help text"
    )
    boxes.add_argument("--topic", help="show full help for one box type")

    explain = commands.add_parser(
        "explain", parents=[common],
        help="per-operator execution profile of a program (rows in/out, "
        "batches, wall time per plan node)",
    )
    explain.add_argument("--db", help="database JSON (with --name)")
    explain.add_argument("--name", help="saved program to explain")
    explain.add_argument(
        "--figure", choices=sorted(_FIGURES),
        help="explain a built-in figure scenario instead of a saved program",
    )
    explain.add_argument("--box", type=int, help="limit to one box id")

    lint = commands.add_parser(
        "lint", parents=[common],
        help="statically check programs without executing them "
        "(schema inference, expression typechecking, dead-box analysis)",
    )
    lint.add_argument("--db", help="database JSON (with --name)")
    lint.add_argument("--name", help="saved program to lint")
    lint.add_argument(
        "--figure", choices=sorted(_FIGURES),
        help="lint one built-in figure scenario; default is all of them",
    )
    lint.add_argument(
        "--deep", action="store_true",
        help="also run the abstract interpreter over each program "
        "(value-range/nullability propagation: dead predicates T2-W204, "
        "statically empty results T2-W205, hazard-proof notes T2-I301)",
    )

    trace = commands.add_parser(
        "trace", parents=[common],
        help="render a scenario under the tracer and write a Chrome "
        "trace_event JSON (open in Perfetto or chrome://tracing)",
    )
    trace.add_argument(
        "figure", nargs="?", choices=sorted(_FIGURES),
        help="built-in figure scenario to trace (or use --db/--name)",
    )
    trace.add_argument("--db", help="database JSON (with --name)")
    trace.add_argument("--name", help="saved program to trace")
    trace.add_argument("--out", default=None,
                       help="output path for the Chrome trace JSON "
                       "(default: trace_<target>.json, deterministic so "
                       "CI artifact paths are stable)")
    trace.add_argument(
        "--warm", action="store_true",
        help="keep the engine cache warm (default is a cold run so engine "
        "fires appear in the trace)",
    )
    trace.add_argument(
        "--tree", action="store_true",
        help="also print the span tree to stdout (same as --timing)",
    )

    profile = commands.add_parser(
        "profile", parents=[common],
        help="render a scenario under the continuous statistical profiler "
        "and print folded stacks (flamegraph input) or a JSON snapshot",
    )
    profile.add_argument(
        "figure", nargs="?", choices=sorted(_FIGURES),
        help="built-in figure scenario to profile (or use --db/--name)",
    )
    profile.add_argument("--db", help="database JSON (with --name)")
    profile.add_argument("--name", help="saved program to profile")
    profile.add_argument(
        "--hz", type=float, default=200.0,
        help="sampling rate in Hz (default 200; higher resolves shorter "
        "renders at proportionally higher overhead)",
    )
    profile.add_argument(
        "--rounds", type=int, default=5,
        help="how many times to render every window (default 5; more "
        "rounds give the sampler more to catch)",
    )
    profile.add_argument(
        "--out", default=None,
        help="write folded stacks here instead of stdout",
    )
    profile.add_argument(
        "--chrome", default=None,
        help="also write the samples as Chrome trace_event JSON "
        "(instant events on named thread tracks)",
    )

    stats = commands.add_parser(
        "stats", parents=[common],
        help="run-summary telemetry for a figure render (span rollups + "
        "metrics registry), declaration checks, bench-file validation",
    )
    stats.add_argument(
        "--figure", choices=sorted(_FIGURES), default="fig4",
        help="figure scenario to render and summarize (default fig4)",
    )
    stats.add_argument(
        "--check", action="store_true",
        help="verify process-wide metric declarations are conflict-free "
        "(exit 1 on a kind conflict)",
    )
    stats.add_argument(
        "--validate-bench", metavar="PATH",
        help="schema-check a BENCH_obs.json or BENCH_parallel.json "
        "written by the benchmark suite",
    )

    why = commands.add_parser(
        "why", parents=[common],
        help="why-provenance drill-down: pick the mark under a pixel of a "
        "figure render and trace it back to base-table rows "
        "(repro.lineage/1; see docs/OBSERVABILITY.md)",
    )
    why.add_argument(
        "--figure", choices=sorted(_FIGURES), default="fig4",
        help="figure scenario to render and pick from (default fig4)",
    )
    why.add_argument("--px", type=float, required=True,
                     help="pixel x coordinate to pick")
    why.add_argument("--py", type=float, required=True,
                     help="pixel y coordinate to pick")
    why.add_argument(
        "--window", default=None,
        help="window name within the scenario (default: first window)",
    )

    bench_diff = commands.add_parser(
        "bench-diff", parents=[common],
        help="compare two BENCH_*.json files (schema-tag routed) and exit "
        "nonzero on perf regressions past the threshold",
    )
    bench_diff.add_argument("baseline", help="baseline BENCH_*.json path")
    bench_diff.add_argument("current", help="current BENCH_*.json path")
    bench_diff.add_argument(
        "--threshold", type=float, default=None, metavar="FRACTION",
        help="relative-change threshold for every metric (default: "
        "per-metric, 0.25)",
    )
    bench_diff.add_argument(
        "--min-seconds", type=float, default=None, metavar="S",
        help="ignore wall-time regressions when both sides are under S "
        "seconds (micro-benchmark noise floor, default 0.005)",
    )
    bench_diff.add_argument(
        "--update-baselines", action="store_true",
        help="schema-validate the current BENCH file and copy it over the "
        "baseline path instead of diffing (refreshes "
        "benchmarks/baselines/)",
    )

    dashboard = commands.add_parser(
        "dashboard", parents=[common],
        help="record telemetry from a figure render and render the "
        "self-hosted telemetry dashboard headless (repro.obs.dashboard)",
    )
    dashboard.add_argument(
        "--figure", choices=sorted(_FIGURES), default="fig4",
        help="figure workload to record telemetry from (default fig4)",
    )
    dashboard.add_argument("--out-dir", required=True,
                           help="directory for chart images + telemetry")
    dashboard.add_argument(
        "--renders", type=int, default=3,
        help="renders of the workload to sample across (default 3)",
    )

    render = commands.add_parser(
        "render", parents=[common],
        help="render figure scenarios to images (the inspection-flag "
        "sibling of `figures`: adds --json/--timing/--strict)",
    )
    render.add_argument("--out-dir", required=True)
    render.add_argument(
        "--which", default=",".join(_FIGURES),
        help=f"comma-separated subset of: {', '.join(_FIGURES)}",
    )
    render.add_argument(
        "--format", default="ppm", choices=("ppm", "png", "svg"),
        help="image format (svg renders vectors through the SVG surface)",
    )

    serve_cmd = commands.add_parser(
        "serve",
        help="run the multi-session visualization server (HTTP + WebSocket; "
        "see docs/SERVER.md)",
    )
    serve_cmd.add_argument("--db", help="database file to host "
                           "(default: built-in weather demo)")
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8765)
    serve_cmd.add_argument(
        "--max-queue", type=int, default=32,
        help="per-connection send-queue bound before frame coalescing "
        "(default 32)",
    )
    serve_cmd.add_argument(
        "--flight-dump",
        help="file to dump the flight recorder to on internal handler "
        "errors (JSONL)",
    )
    serve_cmd.add_argument(
        "--session-ttl", type=float, default=900.0,
        help="seconds an HTTP-created session may sit idle with no "
        "attached connection before it expires (0 disables; default 900)",
    )
    serve_cmd.add_argument(
        "--profile-hz", type=float, default=67.0,
        help="continuous-profiler sampling rate in Hz (0 disables; "
        "default 67)",
    )
    serve_cmd.add_argument(
        "--slow-ms", type=float, default=None,
        help="uniform slow-request threshold in ms for every command kind "
        "(default: the per-kind SLO table in docs/OBSERVABILITY.md)",
    )
    serve_cmd.add_argument(
        "--slow-dir", default="slowreq",
        help="directory for slow-request capture files "
        "(slowreq_<trace>.jsonl; default ./slowreq, created on first "
        "capture; empty string disables capture)",
    )
    serve_cmd.add_argument(
        "--no-request-tracing", action="store_true",
        help="disable request tracing, the request log, and the /debug "
        "request endpoints",
    )
    serve_cmd.add_argument(
        "--log-level", default="info",
        choices=["debug", "info", "warning", "error"],
        help="structured JSON log level on stderr (default info)",
    )

    client_cmd = commands.add_parser(
        "client",
        help="connect to a running server, run one command, print the "
        "JSON response",
    )
    client_cmd.add_argument(
        "--url", default="ws://127.0.0.1:8765/ws",
        help="server WebSocket URL (default ws://127.0.0.1:8765/ws)",
    )
    client_cmd.add_argument(
        "command_json", nargs="?",
        help="one protocol command as JSON, e.g. "
        '\'{"v": 1, "kind": "open_program", "name": "fig4"}\'; '
        "omit to print the server welcome",
    )
    client_cmd.add_argument(
        "--out", help="write a frame response's image bytes to this file")
    return parser


def _cmd_init_weather(args) -> int:
    db = build_weather_database(
        extra_stations=args.stations, every_days=args.every_days
    )
    path = save_database_file(db, args.out)
    print(f"wrote {path} ({', '.join(db.table_names())})")
    return 0


def _cmd_tables(args) -> int:
    db = load_database_file(args.db)
    for name in db.table_names():
        table = db.table(name)
        columns = ", ".join(
            f"{f.name}:{f.type.name}" for f in table.schema
        )
        print(f"{name}  ({len(table)} rows)  [{columns}]")
    return 0


def _cmd_programs(args) -> int:
    db = load_database_file(args.db)
    names = db.program_names()
    if not names:
        print("(no saved programs)")
    for name in names:
        print(name)
    return 0


def _cmd_show_program(args) -> int:
    db = load_database_file(args.db)
    session = Session(db)
    session.load_program(args.name)
    print(session.program_text())
    if args.out:
        canvas = session.program_window()
        canvas.to_ppm(args.out)
        print(f"program window -> {args.out}")
    return 0


def _cmd_run_program(args) -> int:
    db = load_database_file(args.db)
    session = Session(db)
    session.load_program(args.name)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if not session.windows:
        print("program has no viewer boxes; nothing to render")
        return 1
    for name in sorted(session.windows):
        canvas = session.window(name).render()
        path = out_dir / f"{args.name}_{name}.ppm"
        canvas.to_ppm(path)
        print(f"{name}: {canvas.count_nonbackground()} px -> {path}")
    return 0


def _cmd_figures(args) -> int:
    wanted = [part.strip() for part in args.which.split(",") if part.strip()]
    unknown = [name for name in wanted if name not in _FIGURES]
    if unknown:
        print(f"unknown figures: {', '.join(unknown)}; "
              f"choose from {', '.join(_FIGURES)}", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    db = build_weather_database(extra_stations=40, every_days=30)
    image_format = getattr(args, "format", "ppm")
    for name in wanted:
        scenario = _FIGURES[name](db)
        window = (scenario.named.get("window")
                  or scenario.named.get("map_window"))
        path = out_dir / f"{name}.{image_format}"
        if image_format == "svg":
            from repro.render.svg import render_svg

            svg = render_svg(window.viewer)
            svg.to_svg(path)
            print(f"{name}: {len(svg.elements)} elements -> {path}")
        else:
            canvas = window.render()
            if image_format == "png":
                canvas.to_png(path)
            else:
                canvas.to_ppm(path)
            print(f"{name}: {canvas.count_nonbackground()} px -> {path}")
    return 0


def _cmd_query(args) -> int:
    db = load_database_file(args.db)
    rows = db.table(args.table).snapshot()
    if args.where:
        rows = restrict_predicate(rows, args.where)
    total = len(rows)
    rows = limit_rows(rows, args.limit)
    from repro.dbms.relation import MethodSet

    methods = MethodSet(rows.schema)
    print("  ".join(name.ljust(14) for name in rows.schema.names))
    for row in rows:
        view = methods.row_view(row)
        print("  ".join(default_field_texts(view, rows.schema)))
    if total > len(rows):
        print(f"... {total - len(rows)} more rows (use --limit)")
    return 0


def _cmd_boxes(args) -> int:
    import inspect

    from repro.dataflow.registry import box_class, box_class_names

    if args.topic:
        try:
            cls = box_class(args.topic)
        except TiogaError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(inspect.getdoc(cls) or args.topic)
        return 0
    hidden = {"_Const", "Hole"}
    for name in box_class_names():
        if name in hidden:
            continue
        doc = inspect.getdoc(box_class(name)) or ""
        first_line = doc.splitlines()[0] if doc else ""
        print(f"{name:<18} {first_line}")
    return 0


def _plan_notes(report: dict) -> list[str]:
    """Every free-form plan-node note in an ``explain_data`` report."""
    notes: list[str] = []

    def walk(tree: dict) -> None:
        notes.extend(tree.get("notes", ()))
        for child in tree.get("children", ()):
            walk(child)

    for box in report.get("boxes", ()):
        for output in box.get("outputs", ()):
            for plan in output.get("plans", ()):
                walk(plan["tree"])
    return notes


def _cmd_explain(args) -> int:
    import json as json_module

    if args.figure:
        db = build_weather_database(extra_stations=40, every_days=30)
        scenario = _FIGURES[args.figure](db)
        session = scenario.session
    else:
        if not args.db or not args.name:
            print("error: explain needs --figure, or --db with --name",
                  file=sys.stderr)
            return 2
        db = load_database_file(args.db)
        session = Session(db)
        session.load_program(args.name)

    tracer = None
    if args.timing:
        from repro.obs import Tracer, push_tracer, render_tree

        tracer = Tracer(enabled=True)
        with push_tracer(tracer):
            report = _explain_report(session, args)
    else:
        report = _explain_report(session, args)
    if args.as_json:
        print(json_module.dumps(report, indent=2, sort_keys=True))
    else:
        # The engine memoized every box output above, so the text render
        # walks the same forced plans without re-executing anything.
        from repro.dataflow.explain import explain

        print(explain(session.program, session.database,
                      engine=session.engine, box_id=args.box))
    if tracer is not None:
        print("-- timing --")
        print(render_tree(tracer))
    if args.strict:
        notes = _plan_notes(report)
        if notes:
            for note in notes:
                print(f"strict: plan degradation: {note}", file=sys.stderr)
            return 1
    return 0


def _explain_report(session, args) -> dict:
    from repro.dataflow.explain import explain_data

    return explain_data(session.program, session.database,
                        engine=session.engine, box_id=args.box)


def _cmd_lint(args) -> int:
    import json as json_module

    from repro.analyze.checker import check_program

    targets: list[tuple[str, object, object]] = []  # (name, program, database)
    if args.name:
        if not args.db:
            print("error: lint --name needs --db", file=sys.stderr)
            return 2
        db = load_database_file(args.db)
        session = Session(db)
        session.load_program(args.name)
        targets.append((args.name, session.program, db))
    else:
        db = build_weather_database(extra_stations=5, every_days=120)
        wanted = [args.figure] if args.figure else sorted(_FIGURES)
        for name in wanted:
            scenario = _FIGURES[name](db)
            targets.append((name, scenario.session.program, db))

    tracer = None
    if args.timing:
        from repro.obs import Tracer

        tracer = Tracer(enabled=True)

    failed = False
    json_out = {}
    for name, program, database in targets:
        def run_checks(program=program, database=database):
            report = check_program(program, database)
            if args.deep:
                from repro.analyze.absint import check_program_deep

                report.extend(check_program_deep(program, database))
            return report

        if tracer is not None:
            from repro.obs import push_tracer

            with push_tracer(tracer):
                report = run_checks()
        else:
            report = run_checks()
        if not report.ok or (args.strict and report.warnings()):
            failed = True
        if args.as_json:
            json_out[name] = report.to_json()
        else:
            print(f"== {name} ==")
            print(report.render())
    if args.as_json:
        print(json_module.dumps(json_out, indent=2, sort_keys=True))
    if tracer is not None:
        from repro.obs import render_tree

        print("-- timing --")
        print(render_tree(tracer))
    return 1 if failed else 0


def _traced_session(args):
    """Build the session for ``trace``: a figure scenario or saved program."""
    if args.figure:
        db = build_weather_database(extra_stations=40, every_days=30)
        scenario = _FIGURES[args.figure](db)
        return args.figure, scenario.session
    if not args.db or not args.name:
        print("error: trace needs a figure, or --db with --name",
              file=sys.stderr)
        return None, None
    db = load_database_file(args.db)
    session = Session(db)
    session.load_program(args.name)
    return args.name, session


def _cmd_trace(args) -> int:
    from repro.obs import Tracer, push_tracer, render_tree, write_chrome_trace

    target, session = _traced_session(args)
    if session is None:
        return 2
    if not session.windows:
        print("program has no viewer boxes; nothing to trace",
              file=sys.stderr)
        return 1
    tracer = Tracer(enabled=True)
    if not args.warm:
        # Cold run: drop memoized box outputs so engine fires (and the plan
        # nodes they execute) land inside the trace, not just cache hits.
        session.engine.invalidate()
    with push_tracer(tracer):
        for name in sorted(session.windows):
            session.window(name).render()
    if args.out is None:
        # Deterministic default keyed on the traced target, so repeated CI
        # runs (and their artifact globs) see a stable filename.
        safe = "".join(ch if ch.isalnum() or ch in "-_" else "_"
                       for ch in str(target))
        args.out = f"trace_{safe}.json"
    path = write_chrome_trace(tracer, args.out, process_name=f"repro {target}")
    spans = len(tracer.finished())
    if args.as_json:
        import json as json_module

        print(json_module.dumps(
            {"target": target, "spans": spans, "dropped": tracer.dropped,
             "out": str(path)},
            indent=2, sort_keys=True,
        ))
    else:
        print(f"{target}: {spans} spans -> {path}")
    if tracer.dropped:
        print(f"warning: {tracer.dropped} spans dropped (buffer full)",
              file=sys.stderr)
    if args.tree or args.timing:
        print(render_tree(tracer))
    if args.strict and tracer.dropped:
        return 1
    return 0


def _cmd_stats(args) -> int:
    import json as json_module

    from repro.obs import (
        ObservabilityError,
        Tracer,
        check_declarations,
        global_registry,
        push_tracer,
        run_summary,
        validate_any_bench,
    )

    if args.validate_bench:
        payload = json_module.loads(Path(args.validate_bench).read_text())
        # Route by the payload's own schema tag: BENCH_obs.json carries
        # repro.bench/1, BENCH_parallel.json repro.bench.parallel/1,
        # BENCH_columnar.json repro.bench.columnar/1.
        try:
            validate_any_bench(payload)
        except ObservabilityError as exc:
            print(f"invalid bench summary: {exc}", file=sys.stderr)
            return 1
        print(f"{args.validate_bench}: ok "
              f"({len(payload.get('benchmarks', []))} benchmarks)")
        return 0

    # Pre-register the execution counter set (cache.hit/miss/evict via the
    # process-wide ResultCache; the columnar pair explicitly) so one
    # `stats` invocation surfaces the full counter taxonomy even when the
    # run happens not to exercise the cache or the columnar backend — the
    # snapshot then always carries the complete, pinned key set.
    from repro.dbms.result_cache import result_cache

    result_cache()
    global_registry().counter(
        "columnar.batches", "column batches produced by columnar kernels")
    global_registry().counter(
        "columnar.fallback",
        "column batches re-evaluated on the row path after a data hazard")
    # The lineage counters' declaration strings live next to the code that
    # increments them; importing the tuples keeps `--check` conflict-free,
    # and cold runs (capture off, no why-walks) still emit the full
    # lineage.* key set with zero totals.
    from repro.obs.lineage import (
        DROPPED_COUNTER,
        MAPPINGS_COUNTER,
        WALKS_COUNTER,
    )

    global_registry().counter(*MAPPINGS_COUNTER)
    global_registry().counter(*DROPPED_COUNTER)
    global_registry().counter(*WALKS_COUNTER)
    # And the server family (sessions/commands/frame_ms/...), so the stats
    # snapshot pins the full metric surface a serving process exposes.
    from repro.server.app import register_server_metrics

    register_server_metrics(global_registry())

    db = build_weather_database(extra_stations=40, every_days=30)
    scenario = _FIGURES[args.figure](db)
    session = scenario.session
    tracer = Tracer(enabled=True)
    session.engine.invalidate()
    with push_tracer(tracer):
        for name in sorted(session.windows):
            session.window(name).render()

    if args.check:
        # The render above populated the process-wide declaration table from
        # the real instrumented code paths; a conflicting re-declaration
        # would already have raised, so a clean table here means the
        # taxonomy is consistent.
        try:
            names = check_declarations()
        except ObservabilityError as exc:
            print(f"metric declaration conflict: {exc}", file=sys.stderr)
            return 1
        print(f"metric declarations: ok ({len(names)} metrics)")
        return 0

    summary = run_summary(tracer, global_registry())
    if args.as_json:
        print(json_module.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"== {args.figure} ==")
        for name, roll in sorted(summary["spans"].items()):
            print(f"{name:<28} count={roll['count']:<5} "
                  f"total={roll['total_ms']:.2f}ms "
                  f"mean={roll['mean_ms']:.3f}ms")
        for name, metric in sorted(summary["metrics"].items()):
            print(f"{name}: {metric}")
    if args.timing:
        from repro.obs import render_tree

        print("-- timing --")
        print(render_tree(tracer))
    if args.strict and tracer.dropped:
        print(f"strict: {tracer.dropped} spans dropped (buffer full)",
              file=sys.stderr)
        return 1
    return 0


def _cmd_bench_diff(args) -> int:
    import json as json_module

    from repro.obs.benchdiff import diff_bench_files, render_diff

    if args.update_baselines:
        # Refresh the committed baseline from a current run: the current
        # file must validate against its own schema before it can replace
        # the baseline — a malformed artifact never becomes the gate.
        from repro.obs import ObservabilityError, validate_any_bench

        try:
            payload = json_module.loads(Path(args.current).read_text())
            validate_any_bench(payload)
        except ObservabilityError as exc:
            print(f"invalid bench file {args.current}: {exc}",
                  file=sys.stderr)
            return 1
        baseline_path = Path(args.baseline)
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(
            json_module.dumps(payload, indent=1, sort_keys=True) + "\n"
        )
        print(f"baseline updated: {args.current} "
              f"({payload.get('schema')}, "
              f"{len(payload.get('benchmarks', []))} benchmarks) "
              f"-> {baseline_path}")
        return 0

    kwargs = {}
    if args.threshold is not None:
        kwargs["threshold"] = args.threshold
    if args.min_seconds is not None:
        kwargs["min_seconds"] = args.min_seconds
    report = diff_bench_files(args.baseline, args.current, **kwargs)
    if args.as_json:
        print(json_module.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_diff(report))
    if report["regressions"]:
        for row in report["regressions"]:
            print(f"regression: {row['name']} {row['metric']} "
                  f"{row['baseline']:.6g} -> {row['current']:.6g} "
                  f"(x{row['ratio']:.3g}, threshold "
                  f"{row['threshold']:.0%})", file=sys.stderr)
        return 1
    if args.strict and report["missing"]:
        print(f"strict: benchmarks missing from current run: "
              f"{', '.join(report['missing'])}", file=sys.stderr)
        return 1
    return 0


def _cmd_dashboard(args) -> int:
    import json as json_module

    from repro.obs import render_tree
    from repro.obs.dashboard import (
        build_dashboard_program,
        record_figure_telemetry,
        render_dashboard,
        telemetry_database,
    )

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    recorder, tracer = record_figure_telemetry(
        figure=args.figure, renders=args.renders,
    )
    db = telemetry_database(recorder, tracer)
    scenario = build_dashboard_program(db)
    charts = render_dashboard(scenario)

    (out_dir / "timeseries.json").write_text(
        json_module.dumps(recorder.snapshot(), indent=1, sort_keys=True)
    )
    (out_dir / "metrics.prom").write_text(recorder.prometheus_text())
    results = []
    for name, chart in sorted(charts.items()):
        if name == "total_draw_ops":
            continue
        path = out_dir / f"dashboard_{name}.ppm"
        chart["canvas"].to_ppm(path)
        results.append({"chart": name, "out": str(path),
                        "draw_ops": chart["draw_ops"],
                        "pixels": chart["pixels"]})
    if args.as_json:
        print(json_module.dumps(
            {"figure": args.figure,
             "total_draw_ops": charts["total_draw_ops"],
             "charts": results,
             "series": len(recorder.series_keys()),
             "samples": recorder.samples_taken},
            indent=2, sort_keys=True,
        ))
    else:
        for entry in results:
            print(f"{entry['chart']}: {entry['draw_ops']} draw ops, "
                  f"{entry['pixels']} px -> {entry['out']}")
        print(f"telemetry: {len(recorder.series_keys())} series, "
              f"{recorder.samples_taken} samples -> "
              f"{out_dir / 'timeseries.json'}")
    if args.timing:
        print("-- timing --")
        print(render_tree(tracer))
    if args.strict:
        blank = [entry["chart"] for entry in results
                 if not entry["draw_ops"]]
        if blank:
            print(f"strict: dashboard charts drew nothing: "
                  f"{', '.join(blank)}", file=sys.stderr)
            return 1
    return 0


def _cmd_render(args) -> int:
    import json as json_module

    wanted = [part.strip() for part in args.which.split(",") if part.strip()]
    unknown = [name for name in wanted if name not in _FIGURES]
    if unknown:
        print(f"unknown figures: {', '.join(unknown)}; "
              f"choose from {', '.join(_FIGURES)}", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.timing:
        from repro.obs import Tracer

        tracer = Tracer(enabled=True)

    results: list[dict] = []

    def run() -> None:
        db = build_weather_database(extra_stations=40, every_days=30)
        for name in wanted:
            scenario = _FIGURES[name](db)
            window = (scenario.named.get("window")
                      or scenario.named.get("map_window"))
            path = out_dir / f"{name}.{args.format}"
            if args.format == "svg":
                from repro.render.svg import render_svg

                svg = render_svg(window.viewer)
                svg.to_svg(path)
                results.append({"figure": name, "out": str(path),
                                "elements": len(svg.elements)})
            else:
                canvas = window.render()
                if args.format == "png":
                    canvas.to_png(path)
                else:
                    canvas.to_ppm(path)
                results.append({"figure": name, "out": str(path),
                                "pixels": canvas.count_nonbackground()})

    if tracer is not None:
        from repro.obs import push_tracer

        with push_tracer(tracer):
            run()
    else:
        run()

    if args.as_json:
        print(json_module.dumps({"figures": results},
                                indent=2, sort_keys=True))
    else:
        for entry in results:
            detail = (f"{entry['pixels']} px" if "pixels" in entry
                      else f"{entry['elements']} elements")
            print(f"{entry['figure']}: {detail} -> {entry['out']}")
    if tracer is not None:
        from repro.obs import render_tree

        print("-- timing --")
        print(render_tree(tracer))
    if args.strict:
        blank = [entry["figure"] for entry in results
                 if not entry.get("pixels", entry.get("elements"))]
        if blank:
            print(f"strict: blank canvases: {', '.join(blank)}",
                  file=sys.stderr)
            return 1
    return 0


def _cmd_why(args) -> int:
    import json as json_module

    from repro.obs.lineage import render_why, why

    db = build_weather_database(extra_stations=40, every_days=30)
    scenario = _FIGURES[args.figure](db)
    session = scenario.session
    windows = sorted(session.windows)
    name = args.window or windows[0]
    if name not in session.windows:
        print(f"unknown window {name!r}; choose from {', '.join(windows)}",
              file=sys.stderr)
        return 2
    window = session.window(name)
    window.render()
    doc = why(window, args.px, args.py)
    if args.as_json:
        print(json_module.dumps(doc, indent=2, sort_keys=True, default=str))
    else:
        print(render_why(doc))
    if args.strict and not doc["complete"]:
        return 1
    return 0


def _cmd_profile(args) -> int:
    import json as json_module

    from repro.obs import Profiler, Tracer, push_tracer

    target, session = _traced_session(args)
    if session is None:
        return 2
    if not session.windows:
        print("program has no viewer boxes; nothing to profile",
              file=sys.stderr)
        return 1
    profiler = Profiler(hz=args.hz)
    # Trace alongside the sampler so samples can be attributed to requests
    # exactly as the server does it.
    tracer = Tracer(enabled=True)
    session.engine.invalidate()
    with push_tracer(tracer), profiler:
        for _ in range(max(1, args.rounds)):
            session.engine.invalidate()
            for name in sorted(session.windows):
                session.window(name).render()
    folded = profiler.collapsed_text()
    if args.out:
        Path(args.out).write_text(folded)
    if args.chrome:
        Path(args.chrome).write_text(json_module.dumps(
            profiler.chrome_trace(process_name=f"repro profile {target}"),
            indent=1))
    if args.as_json:
        print(json_module.dumps(profiler.snapshot(), indent=2,
                                sort_keys=True))
    elif not args.out:
        print(folded, end="")
    summary = (f"{target}: {profiler.ticks} ticks, "
               f"{len(profiler)} samples at {args.hz:g}hz")
    if args.out:
        summary += f" -> {args.out}"
    if args.chrome:
        summary += f" (chrome: {args.chrome})"
    print(summary, file=sys.stderr)
    if args.strict and len(profiler) == 0:
        print("no samples captured; raise --hz or --rounds",
              file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args) -> int:
    import logging as logging_module

    from repro.obs import DEFAULT_SLO_MS, configure_logging
    from repro.server import serve

    configure_logging(
        level=getattr(logging_module, args.log_level.upper()))
    database = load_database_file(args.db) if args.db else None
    host, port = args.host, args.port
    slo_ms = None
    if args.slow_ms is not None:
        slo_ms = {kind: args.slow_ms for kind in DEFAULT_SLO_MS}
    print(f"serving on http://{host}:{port} (ws://{host}:{port}/ws); "
          "Ctrl-C stops", file=sys.stderr)
    serve(host=host, port=port, database=database,
          max_queue=args.max_queue, flight_dump=args.flight_dump,
          session_ttl=args.session_ttl,
          request_tracing=not args.no_request_tracing,
          profile_hz=args.profile_hz,
          slo_ms=slo_ms,
          slow_dir=args.slow_dir or None)
    return 0


def _cmd_client(args) -> int:
    import base64 as _base64
    import json as _json

    from repro.protocol import decode_command, encode_response
    from repro.server import connect

    with connect(args.url) as client:
        if not args.command_json:
            print(encode_response(client.welcome))
            return 0
        command = decode_command(args.command_json)
        response = client.request(command)
        if args.out and getattr(response, "data", None):
            Path(args.out).write_bytes(
                _base64.b64decode(response.data))
            payload = _json.loads(encode_response(response))
            payload["data"] = f"(written to {args.out})"
            print(_json.dumps(payload, sort_keys=True))
        else:
            print(encode_response(response))
        return 0 if response.ok else 1


_HANDLERS = {
    "init-weather": _cmd_init_weather,
    "tables": _cmd_tables,
    "programs": _cmd_programs,
    "show-program": _cmd_show_program,
    "run-program": _cmd_run_program,
    "figures": _cmd_figures,
    "query": _cmd_query,
    "boxes": _cmd_boxes,
    "explain": _cmd_explain,
    "lint": _cmd_lint,
    "trace": _cmd_trace,
    "profile": _cmd_profile,
    "stats": _cmd_stats,
    "why": _cmd_why,
    "bench-diff": _cmd_bench_diff,
    "dashboard": _cmd_dashboard,
    "render": _cmd_render,
    "serve": _cmd_serve,
    "client": _cmd_client,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    import json

    try:
        return _HANDLERS[args.command](args)
    except TiogaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: not a database file: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
