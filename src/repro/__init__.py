"""Tioga-2 reproduction: a direct manipulation database visualization environment.

A full implementation of the system described in "Tioga-2: A Direct
Manipulation Database Visualization Environment" (Aiken, Chen, Stonebraker,
Woodruff; ICDE 1996): an object-relational DBMS substrate, typed
boxes-and-arrows dataflow programs with lazy evaluation, the R/C/G
displayable algebra, a software rasterizer, viewers with pan/zoom/sliders,
drill down via elevation ranges and wormholes, rear view mirrors, slaving,
magnifying glasses, stitch/replicate group views, and screen-object updates.

Subpackages
-----------
``repro.dbms``      object-relational substrate (tables, algebra, expressions)
``repro.dataflow``  boxes-and-arrows programs and the lazy engine
``repro.display``   displayable types, drawables, elevation ranges
``repro.render``    framebuffer canvas, bitmap font, scene building
``repro.viewer``    viewers, wormholes, rear view, slaving, magnifiers
``repro.ui``        the headless session model (windows, menus, undo)
``repro.data``      synthetic weather data and benchmark workloads
``repro.core``      facade and the paper's figure scenarios
``repro.analyze``   static program checker, expression typechecker, plan verifier
``repro.obs``       tracing spans, metrics registry, Chrome-trace exporters
"""

import os as _os

# The supported public surface lives in repro.api; the package root
# re-exports it so `from repro import Session` keeps working.  Deep module
# imports (repro.dbms.plan, ...) remain available but are internals.
from repro.api import (
    Command,
    Database,
    Engine,
    Program,
    Response,
    Scenario,
    Session,
    ServerThread,
    Viewer,
    build_fig1_table_view,
    build_fig4_station_map,
    build_fig7_overlay,
    build_fig8_wormholes,
    build_fig9_magnifier,
    build_fig10_stitch,
    build_fig11_replicate,
    build_weather_database,
    connect,
    open_db,
    serve,
)
from repro.errors import TiogaError

if _os.environ.get("REPRO_PLAN_VERIFY") == "1":
    from repro.analyze.planverify import install_from_env as _install_verifier

    _install_verifier()

if _os.environ.get("REPRO_TRACE") == "1":
    from repro.obs.trace import install_from_env as _install_tracer

    _install_tracer()

if _os.environ.get("REPRO_FLIGHT") == "1":
    from repro.obs.flightrec import install_from_env as _install_flight

    _install_flight()

if _os.environ.get("REPRO_LINEAGE", "") not in ("", "0"):
    from repro.obs.lineage import install_from_env as _install_lineage

    _install_lineage()

__version__ = "1.0.0"

__all__ = [
    "Command",
    "Database",
    "Engine",
    "Program",
    "Response",
    "Scenario",
    "ServerThread",
    "Session",
    "Viewer",
    "TiogaError",
    "__version__",
    "connect",
    "serve",
    "build_fig1_table_view",
    "build_fig4_station_map",
    "build_fig7_overlay",
    "build_fig8_wormholes",
    "build_fig9_magnifier",
    "build_fig10_stitch",
    "build_fig11_replicate",
    "build_weather_database",
    "open_db",
]
