"""Browsing-query optimization over boxes-and-arrows programs.

The paper defers "how browsing queries are implemented with tolerable
performance" to Chen's companion work [Che95] (§9).  This module implements
the classic core of that story for our programs: a static stored-schema
analysis over the graph and two rewrite families applied before evaluation —

* **Restrict merging** — adjacent Restrict boxes collapse into one
  conjunction (fewer intermediate materializations), and
* **Restrict pushdown** — a Restrict moves upstream past boxes that only
  decorate tuples (attribute/display boxes, ordering, distinct) and into the
  matching input of a Join, shrinking join inputs.

Rewrites are semantics-preserving by construction: a predicate only moves to
a position where (a) every field it references is a stored field there, (b)
no box it crosses modifies those fields' values, (c) the crossed box maps
rows 1:1 or commutes with filtering, and (d) no other consumer observes the
crossed box's output.  :func:`optimize` returns a rewritten copy plus a
rewrite log (the EXPLAIN story); the input program is untouched.
"""

from __future__ import annotations

from repro.dataflow.graph import Program
from repro.dataflow.serialize import clone_program
from repro.dbms.algebra import _joined_schema
from repro.dbms.catalog import Database
from repro.dbms.expr import (
    Binary,
    Call,
    Conditional,
    Expr,
    FieldRef,
    Literal,
    Unary,
)
from repro.dbms.parser import parse_expression
from repro.dbms.tuples import Schema
from repro.errors import TiogaError

__all__ = ["optimize", "stored_schema_of", "rename_fields"]


def split_conjuncts(expr: Expr) -> list[Expr]:
    """Flatten top-level ``and`` into its conjuncts."""
    if isinstance(expr, Binary) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def rename_fields(expr: Expr, mapping: dict[str, str]) -> Expr:
    """Rebuild an expression with field references renamed."""
    if isinstance(expr, FieldRef):
        return FieldRef(mapping.get(expr.name, expr.name))
    if isinstance(expr, Literal):
        return expr
    if isinstance(expr, Unary):
        return Unary(expr.op, rename_fields(expr.operand, mapping))
    if isinstance(expr, Binary):
        return Binary(
            expr.op,
            rename_fields(expr.left, mapping),
            rename_fields(expr.right, mapping),
        )
    if isinstance(expr, Conditional):
        return Conditional(
            rename_fields(expr.condition, mapping),
            rename_fields(expr.then_branch, mapping),
            rename_fields(expr.else_branch, mapping),
        )
    if isinstance(expr, Call):
        return Call(expr.fn.name, [rename_fields(a, mapping) for a in expr.args])
    raise TiogaError(f"cannot rewrite expression node {type(expr).__name__}")


# Boxes a Restrict may cross when the predicate's fields are untouched:
# they keep rows 1:1 (decorators) or commute with filtering.
_CROSSABLE = {
    "SetAttribute": True,
    "AddAttribute": True,
    "CombineDisplays": True,
    "SetRange": True,
    "OrderBy": True,
    "Distinct": True,
    "Rename": True,            # field map handled explicitly
    "ScaleAttribute": True,    # blocked per-field via _modified_fields
    "TranslateAttribute": True,
    "SwapAttributes": True,
    "RemoveAttribute": True,
}
# Explicitly NOT crossable: Sample (per-row RNG sequence changes), Limit
# (filter does not commute with head-N), Switch/T (multiple consumers by
# design), Join (handled by the dedicated join rule), Replicate/Overlay/
# Stitch (composite/group outputs), Encapsulated (opaque).


def stored_schema_of(
    program: Program, box_id: int, port: str, database: Database,
    _memo: dict | None = None,
) -> Schema | None:
    """The stored-row schema on an output port, or None when unknown.

    Static propagation through the boxes whose row schema is derivable
    without evaluation; anything else returns None and blocks rewrites.
    """
    memo = _memo if _memo is not None else {}
    key = (box_id, port)
    if key in memo:
        return memo[key]
    memo[key] = None  # cycle guard (cycles are impossible, but be safe)
    box = program.box(box_id)

    def input_schema(port_name: str = "in") -> Schema | None:
        edge = program.edge_into_port(box_id, port_name)
        if edge is None:
            return None
        return stored_schema_of(program, edge.src_box, edge.src_port,
                                database, memo)

    schema: Schema | None = None
    kind = box.type_name
    if kind == "AddTable":
        table = box.param("table")
        if table and database.has_table(table):
            schema = database.table(table).schema
    elif kind in ("Restrict", "Sample", "SetRange", "OrderBy", "Distinct",
                  "Limit", "Threshold", "SetAttribute", "AddAttribute",
                  "CombineDisplays", "ScaleAttribute", "TranslateAttribute",
                  "SwapAttributes"):
        schema = input_schema()
    elif kind == "Switch":
        schema = input_schema()
    elif kind == "T":
        schema = input_schema()
    elif kind == "Union":
        schema = input_schema("left")
    elif kind == "Project":
        upstream = input_schema()
        fields = box.param("fields")
        if upstream is not None and fields:
            try:
                schema = upstream.project(fields)
            except TiogaError:
                schema = None
    elif kind == "Rename":
        upstream = input_schema()
        old = box.param("old")
        new = box.param("new")
        if upstream is not None and old and new and old in upstream:
            try:
                schema = upstream.rename(old, new)
            except TiogaError:
                schema = None
    elif kind == "RemoveAttribute":
        upstream = input_schema()
        name = box.param("name")
        if upstream is not None:
            schema = upstream.without(name) if name in upstream else upstream
    elif kind == "Join":
        left = input_schema("left")
        right = input_schema("right")
        if left is not None and right is not None:
            schema, __ = _joined_schema(left, right)
    # Everything else (Overlay, Stitch, Replicate, Encapsulated, Viewer,
    # Parameter, ...) stays unknown.
    memo[key] = schema
    return schema


def _modified_fields(box) -> set[str]:
    """Stored fields whose *values* the box may change."""
    kind = box.type_name
    if kind in ("ScaleAttribute", "TranslateAttribute"):
        name = box.param("name")
        return {name} if name else set()
    if kind == "SwapAttributes":
        return {box.param("first"), box.param("second")} - {None}
    return set()


def _plain_restricts(program: Program) -> list[int]:
    """Restrict boxes without overload selection (safe to move)."""
    return [
        box.box_id
        for box in program.boxes_of_type("Restrict")
        if box.param("component") is None and box.param("member") is None
        and box.param("predicate")
    ]


def _sole_consumer(program: Program, box_id: int, port: str) -> bool:
    consumers = [
        edge for edge in program.edges()
        if edge.src_box == box_id and edge.src_port == port
    ]
    return len(consumers) == 1


def _merge_adjacent_restricts(program: Program, log: list[str]) -> bool:
    for restrict_id in _plain_restricts(program):
        edge = program.edge_into_port(restrict_id, "in")
        if edge is None:
            continue
        upstream = program.box(edge.src_box)
        if upstream.type_name != "Restrict":
            continue
        if upstream.param("component") is not None or \
                upstream.param("member") is not None:
            continue
        if not _sole_consumer(program, edge.src_box, edge.src_port):
            continue
        a = upstream.param("predicate")
        b = program.box(restrict_id).param("predicate")
        if not a or not b:
            continue
        upstream.set_param("predicate", f"({a}) and ({b})")
        program.delete_box(restrict_id)  # 1-in/1-out same type: splices
        log.append(
            f"merged Restrict #{restrict_id} into #{upstream.box_id}: "
            f"({a}) and ({b})"
        )
        return True
    return False


def _push_past_decorator(
    program: Program, database: Database, log: list[str]
) -> bool:
    for restrict_id in _plain_restricts(program):
        edge = program.edge_into_port(restrict_id, "in")
        if edge is None:
            continue
        upstream = program.box(edge.src_box)
        if not _CROSSABLE.get(upstream.type_name):
            continue
        if upstream.param("component") is not None or \
                upstream.param("member") is not None:
            continue
        if not _sole_consumer(program, edge.src_box, edge.src_port):
            continue
        upstream_in = program.edge_into_port(upstream.box_id, "in")
        if upstream_in is None:
            continue
        memo: dict = {}
        schema_above = stored_schema_of(
            program, upstream_in.src_box, upstream_in.src_port, database, memo
        )
        if schema_above is None:
            continue
        restrict = program.box(restrict_id)
        try:
            predicate = parse_expression(restrict.param("predicate"))
        except TiogaError:
            continue
        if upstream.type_name == "Rename":
            # Below the Rename the field carries the new name; above it, the
            # old one.  Map before the schema check (values are unchanged).
            predicate = rename_fields(
                predicate,
                {upstream.param("new"): upstream.param("old")},
            )
        fields = predicate.fields_used()
        if not fields <= set(schema_above.names):
            continue
        if fields & _modified_fields(upstream):
            continue
        if upstream.type_name == "Rename":
            restrict.set_param("predicate", str(predicate))
        # Rewire: source -> Restrict -> decorator -> (old consumers).
        downstream = program.edges_from(restrict_id)
        program.disconnect(edge)                      # decorator -> restrict
        program.disconnect(upstream_in)               # source -> decorator
        for consumer in downstream:
            program.disconnect(consumer)
        program.connect(upstream_in.src_box, upstream_in.src_port,
                        restrict_id, "in")
        program.connect(restrict_id, "out", upstream.box_id, "in")
        for consumer in downstream:
            program.connect(upstream.box_id, edge.src_port,
                            consumer.dst_box, consumer.dst_port)
        log.append(
            f"pushed Restrict #{restrict_id} above "
            f"{upstream.type_name} #{upstream.box_id}"
        )
        return True
    return False


def _push_below_join(
    program: Program, database: Database, log: list[str]
) -> bool:
    from repro.dataflow.boxes_db import RestrictBox

    for restrict_id in _plain_restricts(program):
        edge = program.edge_into_port(restrict_id, "in")
        if edge is None:
            continue
        join = program.box(edge.src_box)
        if join.type_name != "Join":
            continue
        if not _sole_consumer(program, join.box_id, "out"):
            continue
        left_edge = program.edge_into_port(join.box_id, "left")
        right_edge = program.edge_into_port(join.box_id, "right")
        if left_edge is None or right_edge is None:
            continue
        memo: dict = {}
        left_schema = stored_schema_of(
            program, left_edge.src_box, left_edge.src_port, database, memo
        )
        right_schema = stored_schema_of(
            program, right_edge.src_box, right_edge.src_port, database, memo
        )
        if left_schema is None or right_schema is None:
            continue
        __, renames = _joined_schema(left_schema, right_schema)
        restrict = program.box(restrict_id)
        try:
            predicate = parse_expression(restrict.param("predicate"))
        except TiogaError:
            continue
        right_joined_names = {
            renames.get(name, name) for name in right_schema.names
        }
        left_only = set(left_schema.names) - right_joined_names
        reverse = {joined: original for original, joined in renames.items()}

        # Classify each top-level conjunct by the side that supplies all of
        # its fields; any unclassifiable conjunct blocks the whole rewrite.
        left_parts: list[Expr] = []
        right_parts: list[Expr] = []
        blocked = False
        for conjunct in split_conjuncts(predicate):
            fields = conjunct.fields_used()
            if fields <= left_only:
                left_parts.append(conjunct)
            elif fields <= right_joined_names and not (fields & left_only):
                right_parts.append(rename_fields(conjunct, reverse))
            else:
                blocked = True
                break
        if blocked or (not left_parts and not right_parts):
            continue

        def conjoin(parts: list[Expr]) -> str:
            source = str(parts[0])
            for part in parts[1:]:
                source = f"({source}) and ({part})"
            return source

        consumers = program.edges_from(restrict_id)
        program.disconnect(edge)  # join -> restrict
        for consumer in consumers:
            program.disconnect(consumer)

        def insert_side(side: str, side_edge, parts: list[Expr],
                        reuse: int | None) -> int:
            program.disconnect(side_edge)
            if reuse is not None:
                box_id = reuse
                program.box(box_id).set_param("predicate", conjoin(parts))
            else:
                box_id = program.add_box(
                    RestrictBox(predicate=conjoin(parts))
                )
            program.connect(side_edge.src_box, side_edge.src_port,
                            box_id, "in")
            program.connect(box_id, "out", join.box_id, side)
            log.append(
                f"pushed Restrict #{box_id} into the {side} input of "
                f"Join #{join.box_id}"
            )
            return box_id

        reuse: int | None = restrict_id
        if left_parts:
            insert_side("left", left_edge, left_parts, reuse)
            reuse = None
        if right_parts:
            insert_side("right", right_edge, right_parts, reuse)
            reuse = None
        if reuse is not None:  # pragma: no cover - guarded above
            raise TiogaError("join pushdown classified no conjuncts")
        for consumer in consumers:
            program.connect(join.box_id, "out",
                            consumer.dst_box, consumer.dst_port)
        return True
    return False


def optimize(
    program: Program, database: Database, max_passes: int = 50
) -> tuple[Program, list[str]]:
    """Apply rewrite rules to a copy of ``program`` until fixpoint.

    Returns (optimized copy, rewrite log).  With no applicable rewrites the
    copy is structurally identical and the log empty.
    """
    optimized = clone_program(program)
    optimized.name = program.name
    log: list[str] = []
    for __ in range(max_passes):
        changed = (
            _merge_adjacent_restricts(optimized, log)
            or _push_below_join(optimized, database, log)
            or _push_past_decorator(optimized, database, log)
        )
        if not changed:
            break
    return optimized, log
