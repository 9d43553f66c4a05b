"""EXPLAIN for dataflow programs: per-operator execution profiles.

Boxes fire by emitting physical-plan fragments (:mod:`repro.dbms.plan`);
demanding an output executes the fragment and leaves per-node counters
behind — rows in/out, batch count, buffered state, wall time.  This module
surfaces those counters: :func:`explain` demands every (connected) box
output of a program, then prints each output's plan tree annotated with its
counters plus the engine's per-box fire/cache accounting.

This is the debugging story for "no distinction between constructing,
modifying, and using a program" (§1.2): the same incremental evaluation
that drives the display also reports exactly what each edit recomputed.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterator

from repro.dataflow.engine import Engine, _all_required_inputs_connected
from repro.dataflow.graph import Program
from repro.dbms.catalog import Database
from repro.dbms.plan import LazyRowSet, PlanNode, explain_plan
from repro.display.displayable import Composite, DisplayableRelation, Group
from repro.errors import TiogaError

__all__ = ["explain", "explain_data", "output_plans", "deterministic_order"]


def deterministic_order(program: Program) -> list[int]:
    """Topological order with ties broken by ascending box id.

    ``Program.topological_order`` is deterministic for a given construction
    history but depends on edge insertion order; EXPLAIN output must be
    stable across equivalent programs (serialization round-trips reorder
    edges), so ties are resolved by id.
    """
    indegree = {box_id: 0 for box_id in
                (box.box_id for box in program.boxes())}
    for edge in program.edges():
        indegree[edge.dst_box] += 1
    ready = [box_id for box_id, degree in indegree.items() if degree == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        current = heapq.heappop(ready)
        order.append(current)
        for edge in program.edges_from(current):
            indegree[edge.dst_box] -= 1
            if indegree[edge.dst_box] == 0:
                heapq.heappush(ready, edge.dst_box)
    return order


def output_plans(value: Any) -> Iterator[tuple[str, LazyRowSet]]:
    """Yield ``(what, lazy)`` for every plan-backed row set inside a value.

    ``what`` names the slot within the output (the relation's name, with
    group members prefixed); containers are walked the way the renderer
    walks them.
    """
    if isinstance(value, LazyRowSet):
        yield value.label or "rows", value
    elif isinstance(value, DisplayableRelation):
        if isinstance(value.rows, LazyRowSet):
            yield value.name, value.rows
    elif isinstance(value, Composite):
        for entry in value.entries:
            yield from output_plans(entry.relation)
    elif isinstance(value, Group):
        for member_name, member in value.members:
            for what, lazy in output_plans(member):
                yield f"{member_name}.{what}", lazy


def explain(
    program: Program,
    database: Database | None = None,
    *,
    engine: Engine | None = None,
    box_id: int | None = None,
) -> str:
    """Demand a program's outputs and report every operator's counters.

    Pass an existing ``engine`` to profile its current (possibly warm)
    state — cache hits then show as ``Cache[..., hot]`` leaves and engine
    hits; otherwise a fresh engine is built over ``database`` and every
    fire is cold.  ``box_id`` limits the report to one box's outputs.
    """
    if engine is None:
        if database is None:
            raise TiogaError("explain needs a database or an engine")
        engine = Engine(program, database)

    box_ids = [box_id] if box_id is not None else deterministic_order(program)
    lines: list[str] = []
    for bid in box_ids:
        box = program.box(bid)
        if not box.outputs:
            continue
        if not _all_required_inputs_connected(program, box):
            lines.append(f"-- {box.describe()}: inputs not connected, skipped")
            continue
        for port in box.outputs:
            header = f"== {box.describe()} .{port.name} =="
            try:
                value = engine.output_of(bid, port.name)
            except TiogaError as exc:
                lines.append(header)
                lines.append(f"error: {exc}")
                continue
            lines.append(header)
            plans = list(output_plans(value))
            if not plans:
                lines.append(f"(materialized: {value!r})")
            for what, lazy in plans:
                if len(plans) > 1 or what != (lazy.label or "rows"):
                    lines.append(f"-- {what}")
                if lazy.cache_status is not None:
                    lines.append(f"-- result cache: {lazy.cache_status}")
                lines.append(explain_plan(lazy.plan))
    lines.append(engine.stats.summary())
    return "\n".join(lines)


def _plan_to_dict(node: PlanNode, counter: list[int]) -> dict[str, Any]:
    """One plan node as a JSON-ready dict; ids are preorder positions, so
    they are stable for a given tree shape."""
    node_id = counter[0]
    counter[0] += 1
    stats = node.stats
    entry: dict[str, Any] = {
        "id": node_id,
        "op": node.label,
        "describe": node.describe(),
        "stats": {
            "rows_in": stats.rows_in,
            "rows_out": stats.rows_out,
            "batches": stats.batches,
            "opens": stats.opens,
            "rows_buffered": stats.rows_buffered,
            "wall_ms": round(stats.wall_s * 1000.0, 3),
        },
        "notes": list(stats.notes),
        "children": [_plan_to_dict(child, counter) for child in node.children],
    }
    entry["backend"] = getattr(node, "backend", "row")
    return entry


def explain_data(
    program: Program,
    database: Database | None = None,
    *,
    engine: Engine | None = None,
    box_id: int | None = None,
) -> dict[str, Any]:
    """Machine-readable EXPLAIN: the dict behind :func:`explain`.

    Boxes appear in topological order with ties broken by box id
    (:func:`deterministic_order`); plan nodes carry their counters *and*
    their free-form notes — including the hash-join → nested-loop
    degradation warning — so tooling need not parse the human text.
    """
    if engine is None:
        if database is None:
            raise TiogaError("explain needs a database or an engine")
        engine = Engine(program, database)

    box_ids = [box_id] if box_id is not None else deterministic_order(program)
    boxes: list[dict[str, Any]] = []
    for bid in box_ids:
        box = program.box(bid)
        if not box.outputs:
            continue
        entry: dict[str, Any] = {"box": bid, "type": box.type_name,
                                 "outputs": []}
        if not _all_required_inputs_connected(program, box):
            entry["skipped"] = "inputs not connected"
            boxes.append(entry)
            continue
        for port in box.outputs:
            output: dict[str, Any] = {"port": port.name, "plans": []}
            try:
                value = engine.output_of(bid, port.name)
            except TiogaError as exc:
                output["error"] = str(exc)
                entry["outputs"].append(output)
                continue
            for what, lazy in output_plans(value):
                counter = [0]
                output["plans"].append(
                    {
                        "what": what,
                        "cache": lazy.cache_status,
                        "tree": _plan_to_dict(lazy.plan, counter),
                    }
                )
            entry["outputs"].append(output)
        boxes.append(entry)
    return {
        "program": program.name,
        "boxes": boxes,
        "engine": engine.stats.to_dict(),
    }
