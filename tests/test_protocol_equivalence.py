"""Property: imperative Session calls ≡ protocol-dispatched commands.

Thirty deterministic seeds each build a random visualization (pipeline of
relational boxes over a Stations table, ending in a viewer) twice — once
driven by the imperative :class:`~repro.ui.session.Session` methods, once
by wire-round-tripped protocol commands through ``Session.execute`` — and
assert the two sessions end pixel-identical (same PPM bytes) with
identical ``explain_data``.  The property must hold on the default path
(the optimizer picks the backend per plan), with the result cache on, and
across backends: a local drive on the row reference (``row_backend()``)
against a protocol drive on the default path, with EXPLAIN compared in
its backend-independent shape.

This is the PR-9 "one code path" guarantee made falsifiable: if a demand
wrapper drifted from its protocol handler (different validation, different
defaults, a missed ``_sync_views``), some seed's pixels diverge.
"""

from __future__ import annotations

import random
from contextlib import nullcontext

import pytest

from repro.analyze.checker import check_program
from repro.dataflow.explain import explain_data
from repro.dbms.catalog import Database
from repro.dbms.result_cache import result_cache, set_cache_enabled
from repro.dbms.relation import Table
from repro.dbms.tuples import Schema
from repro.protocol import (
    Pan,
    PanTo,
    Render,
    SetElevation,
    Zoom,
    decode_command,
    encode_command,
    jsonable,
)
from repro.ui.session import Session
from row_reference import row_backend, row_shape

SEEDS = 30
ROWS = 600
FIELDS = ["station_id", "name", "state", "longitude", "latitude", "altitude"]
NUMERIC = ["station_id", "longitude", "latitude", "altitude"]


@pytest.fixture(scope="module")
def stations_db() -> Database:
    rng = random.Random(4242)
    db = Database("protocol_equivalence")
    table = Table("Stations", Schema([
        ("station_id", "int"),
        ("name", "text"),
        ("state", "text"),
        ("longitude", "float"),
        ("latitude", "float"),
        ("altitude", "float"),
    ]))
    table.insert_many(
        {
            "station_id": index,
            "name": f"S{index}",
            "state": rng.choice(["LA", "TX", "CA", "NY"]),
            "longitude": rng.uniform(-120, -70),
            "latitude": rng.uniform(25, 50),
            "altitude": rng.uniform(0, 140),
        }
        for index in range(ROWS)
    )
    db.add_table(table)
    return db


def random_step(rng: random.Random, step: int) -> tuple[str, dict]:
    kind = rng.choice(
        ["restrict", "sample", "project", "addattr", "orderby",
         "distinct", "limit"]
    )
    if kind == "restrict":
        field = rng.choice(NUMERIC)
        return "Restrict", {
            "predicate": f"{field} > {rng.uniform(-50, 150):.1f}"}
    if kind == "sample":
        return "Sample", {"probability": rng.choice([0.3, 0.6, 0.9]),
                          "seed": rng.randint(0, 99)}
    if kind == "project":
        count = rng.randint(2, len(FIELDS))
        return "Project", {"fields": rng.sample(FIELDS, count)}
    if kind == "addattr":
        field = rng.choice(NUMERIC)
        return "AddAttribute", {
            "name": f"a{step}",
            "definition": f"{field} * {rng.uniform(0.5, 3):.1f}",
        }
    if kind == "orderby":
        return "OrderBy", {"fields": [rng.choice(FIELDS)],
                           "descending": rng.random() < 0.5}
    if kind == "distinct":
        return "Distinct", {}
    return "Limit", {"count": rng.randint(1, 400)}


def build_session(db: Database, seed: int) -> Session:
    """One random visualization, deterministically derived from the seed."""
    rng = random.Random(seed)
    session = Session(db, f"equiv-{seed}")
    upstream = session.add_table("Stations")
    for step in range(rng.randint(1, 4)):
        name, params = random_step(rng, step)
        box_id = session.add_box(name, params)
        session.connect(upstream, "out", box_id, "in")
        upstream = box_id
    session.add_viewer(upstream, name="canvas", width=200, height=150)
    return session


def random_demands(seed: int) -> list:
    """The same demand sequence both sessions will execute."""
    rng = random.Random(seed * 7919 + 13)
    demands = []
    for _ in range(rng.randint(2, 6)):
        kind = rng.choice(["pan", "pan_to", "zoom", "set_elevation"])
        if kind == "pan":
            demands.append(Pan(window="canvas",
                               dx=round(rng.uniform(-60, 60), 2),
                               dy=round(rng.uniform(-60, 60), 2)))
        elif kind == "pan_to":
            demands.append(PanTo(window="canvas",
                                 cx=round(rng.uniform(-150, 350), 2),
                                 cy=round(rng.uniform(-150, 350), 2)))
        elif kind == "zoom":
            demands.append(Zoom(window="canvas",
                                factor=rng.choice([0.5, 1.5, 2.0, 4.0])))
        else:
            demands.append(SetElevation(
                window="canvas",
                elevation=round(rng.uniform(20, 600), 2)))
    demands.append(Render(window="canvas", format="ppm"))
    return demands


def drive_imperative(session: Session, demands) -> bytes:
    """Execute demands through the imperative Session methods."""
    for demand in demands:
        if isinstance(demand, Pan):
            session.pan(demand.window, demand.dx, demand.dy)
        elif isinstance(demand, PanTo):
            session.pan_to(demand.window, demand.cx, demand.cy)
        elif isinstance(demand, Zoom):
            session.zoom(demand.window, demand.factor)
        elif isinstance(demand, SetElevation):
            session.set_elevation(demand.window, demand.elevation)
    # The classic render path: CanvasWindow.render() -> Canvas.
    return session.window("canvas").render().ppm_bytes()


def drive_protocol(session: Session, demands) -> bytes:
    """Execute the same demands as wire-round-tripped protocol commands."""
    frame_bytes = b""
    for demand in demands:
        wire = decode_command(encode_command(demand))
        response = session.execute(wire)
        assert response.ok, f"{demand}: {response}"
        if isinstance(demand, Render):
            frame_bytes = response.data_bytes()
    return frame_bytes


def _strip_volatile(value):
    """Drop wall-clock plan timings; every other explain field must match."""
    if isinstance(value, dict):
        return {key: _strip_volatile(item) for key, item in value.items()
                if key != "wall_ms"}
    if isinstance(value, list):
        return [_strip_volatile(item) for item in value]
    return value


def _row_shapes(explain) -> list[dict]:
    """Every plan tree of an explain document, in backend-free form."""
    return [row_shape(plan["tree"])
            for box in explain["boxes"]
            for output in box["outputs"]
            for plan in output.get("plans", ())]


def _run_equivalence(db: Database, local_backend=nullcontext) -> int:
    """Drive each seed locally (under ``local_backend()``) and over the
    protocol (on the default path) and compare pixels and EXPLAIN.  When
    the local drive runs another backend, EXPLAIN is compared per plan in
    :func:`row_shape` form."""
    compared = 0
    for seed in range(SEEDS):
        probe = build_session(db, seed)
        if check_program(probe.program, db).errors():
            continue
        demands = random_demands(seed)

        imperative = build_session(db, seed)
        protocol = build_session(db, seed)
        # Same cold-cache starting line for both drives, so shared-cache
        # hit/miss status matches node for node.
        result_cache().clear()
        with local_backend():
            local_ppm = drive_imperative(imperative, demands)
        result_cache().clear()
        remote_ppm = drive_protocol(protocol, demands)
        assert local_ppm == remote_ppm, f"seed {seed}: pixels diverge"

        local_explain = explain_data(
            imperative.program, db, engine=imperative.engine)
        remote_explain = protocol.execute(
            decode_command('{"v": 1, "kind": "explain"}')).result
        if local_backend is nullcontext:
            # The wire flattens tuples to lists and stringifies dict keys;
            # normalize both sides the same way before comparing.
            assert _strip_volatile(jsonable(local_explain)) == \
                _strip_volatile(remote_explain), \
                f"seed {seed}: explain diverges"
        else:
            assert _row_shapes(jsonable(local_explain)) == \
                _row_shapes(remote_explain), \
                f"seed {seed}: explain diverges"
        compared += 1
    # A degenerate generator would vacuously pass; require real coverage.
    assert compared >= SEEDS // 2, compared
    return compared


def test_local_vs_protocol_serial_backend(stations_db):
    _run_equivalence(stations_db)


def test_local_vs_protocol_cached_backend(stations_db):
    previous = set_cache_enabled(True)
    try:
        result_cache().clear()
        _run_equivalence(stations_db)
    finally:
        set_cache_enabled(previous)
        result_cache().clear()


def test_local_vs_protocol_columnar_backend(stations_db):
    _run_equivalence(stations_db, local_backend=row_backend)
