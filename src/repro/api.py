"""The stable public API surface of the Tioga-2 reproduction.

Import from here::

    from repro.api import Session, Engine, Program, open_db

    db = open_db()                     # empty database
    db = open_db("weather")           # the paper's synthetic weather data
    session = Session(db)
    engine = Engine(program, db, cache=True)  # reuse plan results

Everything re-exported below is **supported**: names, signatures, and
observable behaviour are kept compatible across releases of this repo,
and ``repro.__init__`` routes through this module.  Anything imported
from a deep module path (``repro.dbms.plan``, ``repro.render.scene``,
…) is an **internal** and may change in any commit — see ``docs/API.md``
for the full contract.

New in this release: the keyword-only ``cache=`` knob on :class:`Engine`
turns on the process-wide result cache, which reuses materialized plan
results across demands, engines, and slaved viewers until a table they
read changes — see ``docs/RESULT_CACHE.md``.

Also new: the columnar execution backend.  The plan optimizer runs on
every demand and moves eligible subtrees onto vectorized numpy kernels —
identical rows, order, and pixels, large speedups on scans/filters/joins
— with no knob to set.  See ``docs/COLUMNAR.md``.

Also new: time-series telemetry and the self-hosted dashboard.
:class:`MetricsRecorder` samples the process metrics into ring-buffer
series (JSON + Prometheus exposition), :class:`FlightRecorder` keeps a
JSONL black box of recent spans that auto-dumps on engine errors,
:func:`diff_bench` gates performance regressions between two
``BENCH_*.json`` files, and :func:`build_telemetry_dashboard` /
:func:`render_dashboard` visualize recorded engine telemetry with a
Tioga-2 program — see ``docs/OBSERVABILITY.md`` and ``docs/DASHBOARD.md``.

Also new: static analysis.  :func:`check_program` lints a program without
executing it; :func:`check_program_deep` additionally runs the abstract
interpreter (interval/nullability/constancy/sign domains) for dead
predicates and statically empty results — see
``docs/STATIC_ANALYSIS.md``.

Also new: why-provenance.  ``Engine(lineage=True)`` (or ``REPRO_LINEAGE=1``,
or a :class:`LineageConfig`) records per-operator backward lineage while
plans execute; :func:`why` picks the mark under a pixel and walks it back
to the exact base-table rows, returning a ``repro.lineage/1`` document
(:func:`render_why` pretty-prints it, CLI ``repro why``).  Result-cache
invalidation is now per-table: mutating one table no longer evicts cached
plans that never read it — see ``docs/OBSERVABILITY.md``.

Also new: the protocol command layer and the multi-session server.  Every
demand is a versioned :class:`Command` dataclass with a JSON codec
(:mod:`repro.protocol`); :class:`Session`'s imperative methods — and the
new demand wrappers ``Session.pan`` / ``pan_to`` / ``zoom`` /
``set_elevation`` / ``set_slider`` / ``render_frame`` / ``why`` — are thin
wrappers building those commands, so in-process and remote interaction
share one dispatch path.  :func:`serve` runs the asyncio HTTP/WebSocket
server (:class:`TiogaServer`), :func:`connect` returns a blocking client;
see ``docs/SERVER.md``.

Deprecated this release (removed next): mutating a :class:`Viewer`
directly (``viewer.pan``/``pan_to``/``zoom``/``set_elevation``/
``set_slider``).  Those methods now emit :class:`DeprecationWarning` and
forward to the protocol layer's internals; call the ``Session`` wrappers
instead.

Removed: ``Engine(workers=)`` and ``Engine(columnar=)`` (both were no-ops
for one release and now raise :class:`TypeError`), and the runtime switch
that fed the abstract interpreter to the plan compiler; the interpreter
stays behind :func:`check_program_deep` and ``repro lint --deep``.
"""

from __future__ import annotations

from repro.analyze import (
    Diagnostic,
    Report,
    check_program,
    check_program_deep,
)
from repro.core import (
    CanvasWindow,
    Database,
    Scenario,
    Session,
    build_fig1_table_view,
    build_fig4_station_map,
    build_fig7_overlay,
    build_fig8_wormholes,
    build_fig9_magnifier,
    build_fig10_stitch,
    build_fig11_replicate,
    build_weather_database,
)
from repro.dataflow.boxes_attr import (
    AddAttributeBox,
    CombineDisplaysBox,
    RemoveAttributeBox,
    ScaleAttributeBox,
    SetAttributeBox,
    SwapAttributesBox,
    TranslateAttributeBox,
)
from repro.dataflow.boxes_db import (
    AddTableBox,
    JoinBox,
    ProjectBox,
    RestrictBox,
    SampleBox,
    SwitchBox,
    TBox,
)
from repro.dataflow.boxes_display import (
    OverlayBox,
    ReplicateBox,
    SetRangeBox,
    ShuffleBox,
    StitchBox,
)
from repro.dataflow.boxes_extra import (
    AggregateBox,
    DistinctBox,
    LimitBox,
    OrderByBox,
    ParameterBox,
    RenameBox,
    ThresholdBox,
    UnionBox,
)
from repro.dataflow.engine import Engine, EngineStats
from repro.dataflow.explain import explain, explain_data
from repro.dataflow.graph import Program
from repro.dbms.result_cache import result_cache
from repro.errors import TiogaError
from repro.obs import (
    LINEAGE_SCHEMA,
    FlightRecorder,
    LineageConfig,
    MetricsRecorder,
    Profiler,
    RequestLog,
    TimeSeries,
    TraceContext,
    configure_logging,
    current_trace_context,
    default_lineage_config,
    diff_bench,
    diff_bench_files,
    get_logger,
    install_flight_recorder,
    lineage_capture,
    lineage_config_from_env,
    render_why,
    set_default_lineage_config,
    why,
)
from repro.obs.dashboard import (
    build_dashboard_program,
    build_telemetry_dashboard,
    record_figure_telemetry,
    render_dashboard,
    telemetry_database,
)
from repro.protocol import (
    PROTOCOL_CODES,
    PROTOCOL_VERSION,
    AddViewer,
    Command,
    CommandExecutor,
    ErrorReply,
    Explain,
    FrameReply,
    OpenProgram,
    Pan,
    PanTo,
    Pick,
    ProtocolError,
    Render,
    Reply,
    Response,
    SetElevation,
    SetSlider,
    Stats,
    Welcome,
    Why,
    Zoom,
    decode_command,
    decode_response,
    encode_command,
    encode_response,
    error_code_for,
)
from repro.server import Client, ServerThread, TiogaServer, connect, serve
from repro.viewer.viewer import Viewer, ViewerBox

__all__ = [
    # Environment
    "Database",
    "open_db",
    "build_weather_database",
    "Session",
    "CanvasWindow",
    "Scenario",
    "TiogaError",
    # Dataflow
    "Program",
    "Engine",
    "EngineStats",
    "explain",
    "explain_data",
    # Result cache
    "result_cache",
    # Observability: time series, flight recorder, bench gate, dashboard
    "MetricsRecorder",
    "TimeSeries",
    "FlightRecorder",
    "install_flight_recorder",
    "diff_bench",
    "diff_bench_files",
    # Request observability: tracing, profiling, structured logs
    "TraceContext",
    "current_trace_context",
    "Profiler",
    "RequestLog",
    "configure_logging",
    "get_logger",
    "record_figure_telemetry",
    "telemetry_database",
    "build_dashboard_program",
    "build_telemetry_dashboard",
    "render_dashboard",
    # Lineage & why-provenance
    "LINEAGE_SCHEMA",
    "LineageConfig",
    "lineage_capture",
    "lineage_config_from_env",
    "default_lineage_config",
    "set_default_lineage_config",
    "why",
    "render_why",
    # Static analysis
    "Diagnostic",
    "Report",
    "check_program",
    "check_program_deep",
    # Boxes
    "AddTableBox",
    "RestrictBox",
    "ProjectBox",
    "SampleBox",
    "JoinBox",
    "TBox",
    "SwitchBox",
    "AddAttributeBox",
    "RemoveAttributeBox",
    "SetAttributeBox",
    "SwapAttributesBox",
    "ScaleAttributeBox",
    "TranslateAttributeBox",
    "CombineDisplaysBox",
    "SetRangeBox",
    "OverlayBox",
    "ShuffleBox",
    "StitchBox",
    "ReplicateBox",
    "AggregateBox",
    "OrderByBox",
    "DistinctBox",
    "LimitBox",
    "RenameBox",
    "UnionBox",
    "ParameterBox",
    "ThresholdBox",
    # Protocol command layer (the demand wire format)
    "PROTOCOL_VERSION",
    "PROTOCOL_CODES",
    "Command",
    "OpenProgram",
    "AddViewer",
    "Pan",
    "PanTo",
    "Zoom",
    "SetElevation",
    "SetSlider",
    "Render",
    "Pick",
    "Why",
    "Explain",
    "Stats",
    "Response",
    "Reply",
    "ErrorReply",
    "FrameReply",
    "Welcome",
    "encode_command",
    "decode_command",
    "encode_response",
    "decode_response",
    "CommandExecutor",
    "ProtocolError",
    "error_code_for",
    # Server & client
    "TiogaServer",
    "ServerThread",
    "serve",
    "connect",
    "Client",
    # Viewers
    "Viewer",
    "ViewerBox",
    # Figure scenarios
    "build_fig1_table_view",
    "build_fig4_station_map",
    "build_fig7_overlay",
    "build_fig8_wormholes",
    "build_fig9_magnifier",
    "build_fig10_stitch",
    "build_fig11_replicate",
]


def open_db(name: str = "tioga") -> Database:
    """Open a database by name — the catalog entry point.

    ``open_db()`` returns a fresh empty :class:`Database`;
    ``open_db("weather")`` builds the paper's synthetic weather dataset
    (stations, temperatures, precipitation) used by every figure scenario.
    """
    if name == "weather":
        return build_weather_database()
    return Database(name)
