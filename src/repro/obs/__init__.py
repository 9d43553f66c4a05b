"""``repro.obs`` — the unified tracing & metrics subsystem.

Zero-dependency observability for the whole stack: nested spans
(:class:`Tracer`), labeled counters/gauges/histograms
(:class:`MetricsRegistry`), and exporters (Chrome ``trace_event`` JSON,
human-readable trees, machine-readable run summaries).  The span and metric
taxonomy the instrumented modules emit is documented in
``docs/OBSERVABILITY.md``.

Activation: tracing is off by default and costs one attribute read per hook
when off.  Turn it on for a region with :func:`tracing` /
:func:`push_tracer`, per render with ``Viewer.render(trace=...)``, per CLI
run with ``repro trace`` / ``--timing``, or process-wide with
``REPRO_TRACE=1``.
"""

from repro.errors import ObservabilityError
from repro.obs.export import (
    BENCH_SCHEMA,
    chrome_trace,
    empty_run_summary,
    render_tree,
    run_summary,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.flightrec import (
    FLIGHT_SCHEMA,
    FlightRecorder,
    current_flight_recorder,
    install_flight_recorder,
    note_engine_error,
)
from repro.obs.lineage import (
    LINEAGE_SCHEMA,
    LineageConfig,
    LineageStore,
    active_lineage,
    default_lineage_config,
    lineage_capture,
    lineage_config_from_env,
    render_why,
    resolve_lineage_config,
    set_default_lineage_config,
    why,
)
from repro.obs.log import (
    ACCESS_LOGGER,
    JsonFormatter,
    configure_logging,
    get_logger,
)
from repro.obs.profiler import (
    PROFILE_SCHEMA,
    Profiler,
    ProfileSample,
)
from repro.obs.requests import (
    DEFAULT_SLO_MS,
    SLOWREQ_SCHEMA,
    RequestLog,
    RequestRecord,
)
from repro.obs.timeseries import (
    TIMESERIES_SCHEMA,
    MetricsRecorder,
    TimeSeries,
    validate_timeseries,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    check_declarations,
    declarations,
    declare,
    global_registry,
)
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    TraceContext,
    TraceEvent,
    Tracer,
    current_trace_context,
    current_tracer,
    install_from_env,
    push_tracer,
    set_tracer,
    thread_trace_contexts,
    tracing,
)

__all__ = [
    "ACCESS_LOGGER",
    "BENCH_SCHEMA",
    "DEFAULT_SLO_MS",
    "FLIGHT_SCHEMA",
    "LINEAGE_SCHEMA",
    "PROFILE_SCHEMA",
    "SLOWREQ_SCHEMA",
    "TIMESERIES_SCHEMA",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "JsonFormatter",
    "LineageConfig",
    "LineageStore",
    "MetricsRecorder",
    "MetricsRegistry",
    "NULL_SPAN",
    "ObservabilityError",
    "ProfileSample",
    "Profiler",
    "RequestLog",
    "RequestRecord",
    "Span",
    "TimeSeries",
    "TraceContext",
    "TraceEvent",
    "Tracer",
    "active_lineage",
    "check_declarations",
    "chrome_trace",
    "configure_logging",
    "current_flight_recorder",
    "current_trace_context",
    "current_tracer",
    "declarations",
    "declare",
    "default_lineage_config",
    "empty_run_summary",
    "get_logger",
    "global_registry",
    "install_flight_recorder",
    "install_from_env",
    "lineage_capture",
    "lineage_config_from_env",
    "note_engine_error",
    "push_tracer",
    "render_tree",
    "render_why",
    "resolve_lineage_config",
    "run_summary",
    "set_default_lineage_config",
    "set_tracer",
    "thread_trace_contexts",
    "tracing",
    "why",
    "validate_chrome_trace",
    "validate_timeseries",
    "write_chrome_trace",
]
