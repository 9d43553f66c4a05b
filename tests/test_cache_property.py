"""Property test: a warm result cache is observationally invisible.

Thirty deterministic seeds each build a random pipeline of relational boxes
(the generator mirrors tests/test_analyze_property.py) over a 5000-row
Stations table.  Every program the static checker accepts is executed
uncached, then cache-cold (a miss that publishes the result), then
cache-warm (served from the cache where the plan's fingerprint is shared
across engines).  All three must produce identical tuples in identical
order; every plan that actually ran must report the same per-node EXPLAIN
counters as the uncached run, and the warm engine the same firing counters
as the cold one.
"""

from __future__ import annotations

import random

import pytest

from repro.analyze.checker import check_program
from repro.dataflow.boxes_attr import AddAttributeBox, ScaleAttributeBox
from repro.dataflow.boxes_db import (
    AddTableBox,
    ProjectBox,
    RestrictBox,
    SampleBox,
)
from repro.dataflow.boxes_extra import (
    DistinctBox,
    LimitBox,
    OrderByBox,
    RenameBox,
)
from repro.dataflow.engine import Engine
from repro.dataflow.explain import explain_data
from repro.dataflow.graph import Program
from repro.dbms.catalog import Database
from repro.dbms.result_cache import result_cache
from repro.dbms.relation import Table
from repro.dbms.tuples import Schema
from row_reference import row_backend, row_shape

SEEDS = 30
ROWS = 5_000
FIELDS = ["station_id", "name", "state", "longitude", "latitude", "altitude"]
NUMERIC = ["station_id", "longitude", "latitude", "altitude"]


@pytest.fixture(scope="module")
def big_stations_db() -> Database:
    rng = random.Random(2024)
    db = Database("property_cache")
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


def random_step(rng: random.Random, step: int):
    kind = rng.choice(
        ["restrict", "sample", "project", "addattr", "scale",
         "orderby", "distinct", "limit", "rename"]
    )
    if kind == "restrict":
        field = rng.choice(NUMERIC)
        return RestrictBox(predicate=f"{field} > {rng.uniform(-50, 150):.1f}")
    if kind == "sample":
        return SampleBox(probability=rng.choice([0.3, 0.6, 0.9]),
                         seed=rng.randint(0, 99))
    if kind == "project":
        count = rng.randint(1, len(FIELDS))
        return ProjectBox(fields=rng.sample(FIELDS, count))
    if kind == "addattr":
        field = rng.choice(NUMERIC)
        return AddAttributeBox(
            name=f"a{step}", definition=f"{field} * {rng.uniform(0.5, 3):.1f}"
        )
    if kind == "scale":
        name = rng.choice(FIELDS + [f"a{rng.randint(0, 4)}"])
        return ScaleAttributeBox(name=name, amount=rng.choice([0.5, 2.0]))
    if kind == "orderby":
        return OrderByBox(fields=[rng.choice(FIELDS)],
                          descending=rng.random() < 0.5)
    if kind == "distinct":
        return DistinctBox()
    if kind == "limit":
        return LimitBox(count=rng.randint(1, 2000))
    return RenameBox(old=rng.choice(FIELDS), new=f"r{step}")


def random_program(seed: int):
    rng = random.Random(seed)
    program = Program(f"cache-property-{seed}")
    upstream = program.add_box(AddTableBox(table="Stations"))
    for step in range(rng.randint(1, 5)):
        box_id = program.add_box(random_step(rng, step))
        program.connect(upstream, "out", box_id, "in")
        upstream = box_id
    return program, upstream


def run(db, program, box_id, **knobs):
    """Force one output; returns its rows and the box's EXPLAIN data."""
    engine = Engine(program, db, **knobs)
    rows = tuple(engine.output_of(box_id, "out").rows.force())
    return rows, explain_data(program, engine=engine, box_id=box_id)


def plan_entries(report) -> list[dict]:
    return [plan
            for box in report["boxes"]
            for output in box["outputs"]
            for plan in output.get("plans", ())]


def node_counters(tree) -> list[tuple]:
    """Every plan node's (op, rows_in, rows_out), in preorder."""
    out = [(tree["op"], tree["stats"]["rows_in"], tree["stats"]["rows_out"])]
    for child in tree["children"]:
        out.extend(node_counters(child))
    return out


def test_cold_and_warm_cache_agree_over_30_seeds(big_stations_db):
    compared = hits = 0
    for seed in range(SEEDS):
        program, last_box = random_program(seed)
        if check_program(program, big_stations_db).errors():
            continue    # generator produced a genuinely broken pipeline
        uncached, uncached_report = run(big_stations_db, program, last_box,
                                        cache=False)
        result_cache().clear()
        cold, cold_report = run(big_stations_db, program, last_box,
                                cache=True)
        warm, warm_report = run(big_stations_db, program, last_box,
                                cache=True)
        assert cold == uncached, f"seed {seed}: cache-cold differs"
        assert warm == uncached, f"seed {seed}: cache-warm differs"
        assert warm_report["engine"] == cold_report["engine"], \
            f"seed {seed}: engine counters differ"
        reference = plan_entries(uncached_report)
        for arm, report in (("cold", cold_report), ("warm", warm_report)):
            plans = plan_entries(report)
            assert len(plans) == len(reference)
            for plan, expected in zip(plans, reference):
                assert plan["cache"] in ("hit", "miss", None)
                if arm == "cold":
                    assert plan["cache"] != "hit", f"seed {seed}: cold hit"
                if plan["cache"] != "hit":
                    # The plan really ran: its counters match uncached.
                    assert node_counters(plan["tree"]) == \
                        node_counters(expected["tree"]), \
                        f"seed {seed}: {arm} EXPLAIN counters differ"
        hits += any(plan["cache"] == "hit" for plan in plan_entries(warm_report))
        compared += 1
    result_cache().clear()
    # A degenerate generator would vacuously pass; require real coverage.
    assert compared >= SEEDS // 2, compared
    assert hits >= compared // 2, (hits, compared)


def test_columnar_cold_and_warm_agree_over_30_seeds(big_stations_db):
    """Uncached row reference vs default cache-cold vs default cache-warm.

    The default path lets the optimizer move subtrees onto the columnar
    backend; it must match the row reference (``row_backend()``) in rows,
    order, and every executed plan's row counters.  The default arms run
    under the plan verifier so every rewritten tree is also structurally
    checked (adapter placement, schema/dtype agreement).
    """
    from repro.analyze.planverify import assert_valid_plan
    from repro.dbms.plan import plan_verifier, set_plan_verifier

    previous_verifier = plan_verifier()
    compared = columnarized = 0
    try:
        for seed in range(SEEDS):
            program, last_box = random_program(seed)
            if check_program(program, big_stations_db).errors():
                continue
            with row_backend():
                uncached, uncached_report = run(
                    big_stations_db, program, last_box, cache=False)
            result_cache().clear()
            set_plan_verifier(assert_valid_plan)
            cold, cold_report = run(big_stations_db, program, last_box,
                                    cache=True)
            warm, __ = run(big_stations_db, program, last_box, cache=True)
            set_plan_verifier(previous_verifier)
            assert cold == uncached, f"seed {seed}: columnar-cold differs"
            assert warm == uncached, f"seed {seed}: columnar-warm differs"
            reference = plan_entries(uncached_report)
            plans = plan_entries(cold_report)
            assert len(plans) == len(reference)
            for plan, expected in zip(plans, reference):
                assert row_shape(plan["tree"]) == \
                    row_shape(expected["tree"]), \
                    f"seed {seed}: EXPLAIN counters differ"
                columnarized += plan["tree"]["op"] == "ToRows"
            compared += 1
    finally:
        set_plan_verifier(previous_verifier)
        result_cache().clear()
    assert compared >= SEEDS // 2, compared
    # The default path must actually exercise the columnar backend.
    assert columnarized >= compared // 4, (columnarized, compared)
