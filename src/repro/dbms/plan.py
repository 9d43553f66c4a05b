"""Streaming physical-plan IR: instrumented Volcano-style operator nodes.

The paper defers the performance story of browsing queries to a companion
work (§9); its essence is that evaluation must be lazy so only the demanded
path fires.  This module is the compile target that makes that real: every
relational operation is a :class:`PlanNode` following the classic iterator
protocol — ``open()`` begins one execution and yields *batches* of tuples,
``close()`` releases per-execution state — and tuples stream through a tree
of such nodes one at a time.  Pipeline-breaking operators (sort, hash build,
group-by, distinct) materialize only their own working state; everything
else holds O(1) rows.

Three things distinguish this IR from a plain generator pipeline:

* **Instrumentation.**  Every node carries a :class:`NodeStats` with rows
  in/out, batch and open counts, wall time, peak buffered rows, and free-form
  notes (e.g. the hash-join degradation warning).  :meth:`PlanNode.explain`
  renders the operator tree with those counters — the EXPLAIN story.
* **Re-execution.**  Nodes hold declarative configuration, not iterator
  state; each ``open()`` starts a fresh execution, so one plan can be run,
  inspected, and run again.
* **Memo boundaries.**  :class:`LazyRowSet` is a drop-in
  :class:`~repro.dbms.relation.RowSet` whose rows are produced by a plan on
  first demand and buffered incrementally — the dataflow engine's memoized
  box outputs are exactly these, so a chain of boxes streams end to end and
  each boundary buffers only its own output (O(output), not O(input)).
  :class:`CacheNode` re-enters a LazyRowSet as a plan leaf, sharing its
  buffer among any number of downstream consumers.

The list-in/list-out functions in :mod:`repro.dbms.algebra` are thin
wrappers over these nodes, so the public algebra API is unchanged.
"""

from __future__ import annotations

import random
from itertools import chain, islice
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.dbms import types as T
from repro.dbms.columnar import (
    BatchRows,
    ColumnBatch,
    DEFAULT_BATCH_ROWS,
    NUMPY_DTYPES,
    _object_array,
)
from repro.dbms.expr import Expr
from repro.dbms.expr_compile import VectorFallback, compile_predicate
from repro.dbms.parser import parse_predicate
from repro.dbms.relation import RowSet
from repro.dbms.tuples import Field, Schema, Tuple
from repro.errors import EvaluationError, SchemaError, TypeCheckError
from repro.obs.lineage import LineageStore, active_lineage
from repro.obs.metrics import global_registry
from repro.obs.trace import current_tracer

__all__ = [
    "BATCH_SIZE",
    "NodeStats",
    "PlanNode",
    "ScanNode",
    "CacheNode",
    "ProjectNode",
    "RestrictNode",
    "SampleNode",
    "NestedLoopJoinNode",
    "HashJoinNode",
    "ThetaJoinNode",
    "CrossProductNode",
    "OrderByNode",
    "DistinctNode",
    "LimitNode",
    "UnionNode",
    "RenameNode",
    "GroupByNode",
    "LazyRowSet",
    "source_plan",
    "explain_plan",
    "joined_schema",
    "concat_rows",
    "AGGREGATES",
    "set_plan_verifier",
    "plan_verifier",
    "ColumnarNode",
    "ToColumnsNode",
    "ToRowsNode",
    "ColumnarRestrictNode",
    "ColumnarProjectNode",
    "ColumnarRenameNode",
    "ColumnarLimitNode",
    "ColumnarDistinctNode",
    "ColumnarOrderByNode",
    "ColumnarGroupByNode",
    "ColumnarHashJoinNode",
]

BATCH_SIZE = 256
"""Rows per batch yielded by ``open()``.  Small enough that early-exit
consumers (Limit, a zoomed-in viewer) pull little more than they need,
large enough to amortize per-batch accounting."""

#: Optional verification hook run on every ``PlanNode.open()`` and after
#: plan rewrites.  ``repro.analyze.planverify.install_from_env`` installs
#: the invariant verifier here when ``REPRO_PLAN_VERIFY=1``.
_VERIFY_HOOK: Callable[["PlanNode"], None] | None = None


def set_plan_verifier(hook: Callable[["PlanNode"], None] | None) -> None:
    """Install (or clear, with ``None``) the plan verification hook."""
    global _VERIFY_HOOK
    _VERIFY_HOOK = hook


def plan_verifier() -> Callable[["PlanNode"], None] | None:
    """The installed verification hook, if any."""
    return _VERIFY_HOOK


def _lineage_store(node: "PlanNode") -> LineageStore | None:
    """The node's lineage store for the active capture, or None.

    One module-global read when capture is off — the whole disabled cost.
    A node keeps its store across executions *within* one capture (counters
    and the EXPLAIN annotation accumulate); a new capture replaces it, so
    stores never grow across unrelated captures.
    """
    state = active_lineage()
    if state is None:
        return None
    store = node.lineage
    if store is None or store.state is not state:
        store = node.lineage = LineageStore(state)
    return store


class NodeStats:
    """Per-operator execution counters, cumulative across opens."""

    __slots__ = (
        "rows_in", "rows_out", "batches", "wall_s", "opens",
        "rows_buffered", "notes",
    )

    def __init__(self) -> None:
        self.rows_in = 0
        self.rows_out = 0
        self.batches = 0
        self.wall_s = 0.0
        self.opens = 0
        self.rows_buffered = 0
        self.notes: list[str] = []

    def note(self, message: str) -> None:
        """Record a warning once (repeat notes are collapsed)."""
        if message not in self.notes:
            self.notes.append(message)

    def summary(self) -> str:
        parts = [f"in={self.rows_in}", f"out={self.rows_out}",
                 f"batches={self.batches}"]
        if self.rows_buffered:
            parts.append(f"buffered={self.rows_buffered}")
        if self.opens != 1:
            parts.append(f"opens={self.opens}")
        parts.append(f"{self.wall_s * 1000.0:.1f}ms")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"NodeStats({self.summary()})"


class PlanNode:
    """A physical operator: children, an output schema, and counters.

    Subclasses implement :meth:`_produce`, a generator over output rows;
    the base class wraps it into the batch protocol and maintains stats.
    Wall time is *inclusive* of children (it measures time spent producing
    this node's rows, wherever it went).
    """

    label = "Plan"

    #: Which execution backend the node runs on; the columnar kernels
    #: override this.  Surfaced per node through ``explain``/``explain_data``.
    backend = "row"

    #: Backward-lineage mappings recorded by the most recent capture, or
    #: None.  Identity-breaking operators populate this via
    #: :func:`_lineage_store` while a capture is active; the why-provenance
    #: walk (``repro.obs.lineage``) reads it.
    lineage: LineageStore | None = None

    def __init__(self, children: Sequence["PlanNode"], schema: Schema):
        self._children = tuple(children)
        self._schema = schema
        self.stats = NodeStats()

    # -- protocol ---------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def children(self) -> tuple["PlanNode", ...]:
        return self._children

    def open(self) -> Iterator[list[Tuple]]:
        """Begin one execution, yielding batches of rows.

        Every call starts a fresh execution; counters accumulate across
        executions (``stats.opens`` tells them apart).

        When a plan verifier is installed (``REPRO_PLAN_VERIFY=1``), the
        subtree's invariants are re-checked before any row is produced.
        """
        if _VERIFY_HOOK is not None:
            _VERIFY_HOOK(self)
        self.stats.opens += 1
        return self._batches()

    def close(self) -> None:
        """Release per-execution state (the base class holds none; buffered
        generators are finalized when their iterator is dropped)."""

    def _batches(self) -> Iterator[list[Tuple]]:
        tracer = current_tracer()
        if tracer.enabled:
            return self._batches_traced(tracer)
        return self._batches_plain()

    def _batches_plain(self) -> Iterator[list[Tuple]]:
        produced = self._produce()
        try:
            while True:
                start = perf_counter()
                batch = list(islice(produced, BATCH_SIZE))
                self.stats.wall_s += perf_counter() - start
                if not batch:
                    break
                self.stats.batches += 1
                self.stats.rows_out += len(batch)
                yield batch
        finally:
            produced.close()
            self.close()

    def _batches_traced(self, tracer) -> Iterator[list[Tuple]]:
        """One ``plan.node`` span per execution, open from first pull to
        exhaustion (inclusive of consumer interleave); children's spans nest
        because their rows are pulled while this span is open.  Row counts
        for *this* execution are attached at close."""
        stats = self.stats
        rows_in_before = stats.rows_in
        rows_out_before = stats.rows_out
        span = tracer.span("plan.node", op=self.label, desc=self.describe())
        span.__enter__()
        try:
            yield from self._batches_plain()
        finally:
            span.set(
                rows_in=stats.rows_in - rows_in_before,
                rows_out=stats.rows_out - rows_out_before,
                opens=stats.opens,
            )
            span.__exit__(None, None, None)

    def rows_iter(self) -> Iterator[Tuple]:
        """Row-at-a-time view of one execution."""
        for batch in self.open():
            yield from batch

    def execute(self) -> RowSet:
        """Run the plan to completion and materialize a RowSet."""
        return RowSet(self._schema, self.rows_iter())

    # -- helpers for subclasses -------------------------------------------

    def _produce(self) -> Iterator[Tuple]:
        raise NotImplementedError

    def _pull(self, child: "PlanNode") -> Iterator[Tuple]:
        """Stream a child's rows, counting them as this node's input."""
        stats = self.stats
        for row in child.rows_iter():
            stats.rows_in += 1
            yield row

    def _buffered(self, rows: Sequence[Any] | int) -> None:
        """Record pipeline-breaker state size (peak across executions)."""
        count = rows if isinstance(rows, int) else len(rows)
        if count > self.stats.rows_buffered:
            self.stats.rows_buffered = count

    # -- description ------------------------------------------------------

    def describe(self) -> str:
        """One-line operator description (without stats)."""
        return self.label

    def explain(self, with_stats: bool = True) -> str:
        """Render this subtree as an indented operator tree."""
        return explain_plan(self, with_stats=with_stats)

    def __repr__(self) -> str:
        return f"<{self.describe()} {self.stats.summary()}>"


def _clip(text: str, limit: int = 72) -> str:
    return text if len(text) <= limit else text[: limit - 1] + "…"


def explain_plan(node: PlanNode, with_stats: bool = True) -> str:
    """Format a plan tree, one operator per line, with per-node counters."""
    lines: list[str] = []

    def walk(current: PlanNode, prefix: str, tail: str) -> None:
        line = tail + _clip(current.describe())
        if getattr(current, "backend", "row") != "row":
            line += " <columnar>"
        store = current.lineage
        if store is not None and len(store):
            line += f" lineage={len(store)}"
        if with_stats:
            line += f"  [{current.stats.summary()}]"
        lines.append(line)
        for warning in current.stats.notes:
            lines.append(prefix + "  ! " + warning)
        kids = current.children
        for pos, child in enumerate(kids):
            last = pos == len(kids) - 1
            walk(child,
                 prefix + ("   " if last else "│  "),
                 prefix + ("└─ " if last else "├─ "))

    walk(node, "", "")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Shared relational helpers (also re-exported through repro.dbms.algebra)
# ---------------------------------------------------------------------------


def joined_schema(left: Schema, right: Schema) -> tuple[Schema, dict[str, str]]:
    """Concatenate schemas, renaming right-side collisions to ``right_<name>``."""
    renames: dict[str, str] = {}
    fields: list[Field] = list(left.fields)
    taken = set(left.names)
    for field in right.fields:
        name = field.name
        if name in taken:
            candidate = f"right_{name}"
            suffix = 2
            while candidate in taken:
                candidate = f"right_{name}_{suffix}"
                suffix += 1
            renames[name] = candidate
            name = candidate
        taken.add(name)
        fields.append(Field(name, field.type))
    return Schema(fields), renames


def concat_rows(schema: Schema, left_row: Tuple, right_row: Tuple) -> Tuple:
    return Tuple(schema, [*left_row.values, *right_row.values])


# Aggregate semantics — the single contract BOTH backends implement
# (locked by tests/test_aggregate_semantics.py):
#
#   * ``count`` of an empty group is 0; ``sum`` of an empty group is the
#     additive identity ``0`` (an int — coerced to 0.0 for a FLOAT output
#     field by Tuple construction).
#   * ``avg``/``min``/``max`` over an empty group raise
#     ``EvaluationError("<agg> over an empty group")`` — the type system
#     has no NULL to return, and silently inventing a value would be worse.
#     (There are likewise no all-None groups: every Tuple value is
#     validated non-None at construction.)
#   * ``sum``/``avg`` fold left-to-right in input order.  IEEE float
#     addition is not associative, so this order is part of the contract;
#     the columnar GroupBy kernel reproduces the same sequential fold
#     (``np.bincount`` weight accumulation), never a pairwise reduction.
#
# GroupBy can never *produce* an empty group (a group exists only because a
# row created it), so the empty-group errors surface only through direct
# ``AGGREGATES[...]`` use — they are pinned here so both backends would
# still agree if an outer-join-style extension ever yielded empty groups.


def _agg_count(values: list[Any]) -> int:
    return len(values)


def _agg_sum(values: list[Any]) -> Any:
    """Left-to-right fold; 0 (the additive identity) for an empty group."""
    return sum(values) if values else 0


def _agg_avg(values: list[Any]) -> float:
    """Left-to-right sum divided by count; errors on an empty group."""
    if not values:
        raise EvaluationError("avg over an empty group")
    return sum(values) / len(values)


def _agg_min(values: list[Any]) -> Any:
    if not values:
        raise EvaluationError("min over an empty group")
    return min(values)


def _agg_max(values: list[Any]) -> Any:
    if not values:
        raise EvaluationError("max over an empty group")
    return max(values)


AGGREGATES: dict[str, Callable[[list[Any]], Any]] = {
    "count": _agg_count,
    "sum": _agg_sum,
    "avg": _agg_avg,
    "min": _agg_min,
    "max": _agg_max,
}

_AGG_RESULT_TYPE = {"count": T.INT, "avg": T.FLOAT}


def _groupby_output_schema(
    schema: Schema,
    keys: Sequence[str],
    aggregations: Sequence[tuple[str, str, str]],
) -> Schema:
    """Validate a GroupBy spec and derive its output schema.

    Shared by the row and columnar GroupBy operators so the two backends
    can never diverge on typing rules or output field order."""
    for key in keys:
        schema.field(key)
    out_fields: list[Field] = [schema.field(key) for key in keys]
    for agg_name, field, output_name in aggregations:
        if agg_name not in AGGREGATES:
            raise EvaluationError(
                f"unknown aggregate {agg_name!r}; "
                f"known: {', '.join(sorted(AGGREGATES))}"
            )
        source_type = schema.type_of(field)
        if agg_name in ("sum", "avg") and not T.numeric(source_type):
            raise TypeCheckError(
                f"{agg_name} requires a numeric field, {field!r} is {source_type}"
            )
        result_type = _AGG_RESULT_TYPE.get(agg_name, source_type)
        if agg_name == "sum" and source_type is T.FLOAT:
            result_type = T.FLOAT
        out_fields.append(Field(output_name, result_type))
    return Schema(out_fields)


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


class ScanNode(PlanNode):
    """Leaf over an in-memory row source (a RowSet or a tuple sequence)."""

    label = "Scan"

    def __init__(
        self,
        source: RowSet | Sequence[Tuple],
        schema: Schema | None = None,
        name: str | None = None,
    ):
        if schema is None:
            if not isinstance(source, RowSet):
                raise SchemaError("ScanNode over a plain sequence needs a schema")
            schema = source.schema
        super().__init__((), schema)
        self._source = source
        self._name = name

    def _produce(self) -> Iterator[Tuple]:
        stats = self.stats
        for row in self._source:
            stats.rows_in += 1
            yield row

    def describe(self) -> str:
        return f"Scan[{self._name}]" if self._name else "Scan"


class CacheNode(PlanNode):
    """Leaf re-entering a :class:`LazyRowSet` — a memoization boundary.

    Streams through the lazy set's shared buffer, so the upstream plan runs
    at most once no matter how many consumers pull through this node.  The
    upstream plan appears as a child purely for EXPLAIN continuity; rows are
    never pulled from it directly.
    """

    label = "Cache"

    def __init__(self, source: "LazyRowSet"):
        super().__init__((source.plan,), source.schema)
        self._source = source

    def _produce(self) -> Iterator[Tuple]:
        stats = self.stats
        source = self._source
        try:
            for row in source.stream():
                stats.rows_in += 1
                yield row
        finally:
            self._buffered(source.buffered_rows())

    def describe(self) -> str:
        label = self._source.label
        state = "hot" if self._source.is_materialized else "cold"
        return f"Cache[{label}, {state}]" if label else f"Cache[{state}]"


# ---------------------------------------------------------------------------
# Streaming unary operators
# ---------------------------------------------------------------------------


class ProjectNode(PlanNode):
    """Keep named fields; preserves duplicates (bag semantics)."""

    label = "Project"

    def __init__(self, child: PlanNode, names: Sequence[str]):
        if not names:
            raise SchemaError("projection requires at least one field")
        self._names = list(names)
        super().__init__((child,), child.schema.project(self._names))

    def _produce(self) -> Iterator[Tuple]:
        names = self._names
        store = _lineage_store(self)
        if store is None:
            for row in self._pull(self._children[0]):
                yield row.project(names)
            return
        for row in self._pull(self._children[0]):
            out = row.project(names)
            store.record(out, (row,))
            yield out

    def describe(self) -> str:
        return f"Project[{', '.join(self._names)}]"


class RestrictNode(PlanNode):
    """Keep rows satisfying a type-checked boolean predicate.

    ``positions`` holds the input positions the last complete execution
    kept, ascending (None before one completes): what a patch across an
    update (:mod:`repro.dbms.delta`) maps a changed input row through.
    """

    label = "Restrict"
    positions: np.ndarray | None = None

    def __init__(self, child: PlanNode, predicate: Expr, alias: str | None = None):
        result_type = predicate.infer(child.schema)
        if result_type is not T.BOOL:
            raise TypeCheckError(
                f"restrict predicate has type {result_type}, want bool"
            )
        super().__init__((child,), child.schema)
        self.predicate = predicate
        self.alias = alias

    def _produce(self) -> Iterator[Tuple]:
        predicate = self.predicate
        self.positions = None
        kept: list[int] = []
        for index, row in enumerate(self._pull(self._children[0])):
            if predicate.evaluate(row):
                kept.append(index)
                yield row
        self.positions = np.array(kept, dtype=np.intp)

    def describe(self) -> str:
        text = _clip(str(self.predicate), 56)
        if self.alias:
            return f"Restrict[{self.alias}: {text}]"
        return f"Restrict[{text}]"


class SampleNode(PlanNode):
    """Bernoulli sample (§4.2); a seed makes each execution reproducible."""

    label = "Sample"

    def __init__(self, child: PlanNode, probability: float, seed: int | None = None):
        if not 0.0 <= probability <= 1.0:
            raise EvaluationError(
                f"sample probability must be in [0, 1], got {probability}"
            )
        super().__init__((child,), child.schema)
        self._probability = probability
        self._seed = seed

    def _produce(self) -> Iterator[Tuple]:
        rng = random.Random(self._seed)
        probability = self._probability
        for row in self._pull(self._children[0]):
            if rng.random() < probability:
                yield row

    def describe(self) -> str:
        if self._seed is None:
            return f"Sample[p={self._probability}]"
        return f"Sample[p={self._probability}, seed={self._seed}]"


class RenameNode(PlanNode):
    """Rename a single field."""

    label = "Rename"

    def __init__(self, child: PlanNode, old: str, new: str):
        super().__init__((child,), child.schema.rename(old, new))
        self._old = old
        self._new = new

    def _produce(self) -> Iterator[Tuple]:
        schema = self._schema
        store = _lineage_store(self)
        if store is None:
            for row in self._pull(self._children[0]):
                yield Tuple(schema, row.values)
            return
        for row in self._pull(self._children[0]):
            out = Tuple(schema, row.values)
            store.record(out, (row,))
            yield out

    @property
    def mapping(self) -> tuple[str, str]:
        return (self._old, self._new)

    def describe(self) -> str:
        return f"Rename[{self._old} -> {self._new}]"


class LimitNode(PlanNode):
    """Keep the first ``count`` rows; stops pulling upstream once satisfied."""

    label = "Limit"

    def __init__(self, child: PlanNode, count: int):
        if count < 0:
            raise EvaluationError(f"limit must be non-negative, got {count}")
        super().__init__((child,), child.schema)
        self._count = count

    def _produce(self) -> Iterator[Tuple]:
        remaining = self._count
        if remaining == 0:
            return
        for row in self._pull(self._children[0]):
            yield row
            remaining -= 1
            if remaining == 0:
                return

    def describe(self) -> str:
        return f"Limit[{self._count}]"


# ---------------------------------------------------------------------------
# Pipeline breakers
# ---------------------------------------------------------------------------


class OrderByNode(PlanNode):
    """Stable sort by one or more fields; buffers its input."""

    label = "OrderBy"

    def __init__(self, child: PlanNode, names: Sequence[str],
                 descending: bool = False):
        for name in names:
            child.schema.field(name)
        super().__init__((child,), child.schema)
        self._names = list(names)
        self._descending = descending

    def _produce(self) -> Iterator[Tuple]:
        names = self._names
        rows = list(self._pull(self._children[0]))
        self._buffered(rows)
        rows.sort(key=lambda row: tuple(row[name] for name in names),
                  reverse=self._descending)
        yield from rows

    def describe(self) -> str:
        direction = " desc" if self._descending else ""
        return f"OrderBy[{', '.join(self._names)}{direction}]"


class DistinctNode(PlanNode):
    """Drop duplicate rows, first occurrence wins; buffers the seen set."""

    label = "Distinct"

    def __init__(self, child: PlanNode):
        super().__init__((child,), child.schema)

    def _produce(self) -> Iterator[Tuple]:
        seen: set[Tuple] = set()
        try:
            for row in self._pull(self._children[0]):
                if row not in seen:
                    seen.add(row)
                    yield row
        finally:
            self._buffered(seen)

    def describe(self) -> str:
        return "Distinct"


class GroupByNode(PlanNode):
    """Group by key fields and aggregate; buffers the groups.

    ``aggregations`` is a sequence of ``(agg_name, field, output_name)``
    with ``agg_name`` one of count/sum/avg/min/max.
    """

    label = "GroupBy"

    def __init__(
        self,
        child: PlanNode,
        keys: Sequence[str],
        aggregations: Sequence[tuple[str, str, str]],
    ):
        out_schema = _groupby_output_schema(child.schema, keys, aggregations)
        super().__init__((child,), out_schema)
        self._keys = list(keys)
        self._aggregations = [tuple(spec) for spec in aggregations]

    def _produce(self) -> Iterator[Tuple]:
        keys = self._keys
        groups: dict[tuple[Any, ...], list[Tuple]] = {}
        total = 0
        for row in self._pull(self._children[0]):
            groups.setdefault(tuple(row[key] for key in keys), []).append(row)
            total += 1
        if total > self.stats.rows_buffered:
            self.stats.rows_buffered = total
        out_schema = self._schema
        store = _lineage_store(self)
        for key_values, members in groups.items():
            values: list[Any] = list(key_values)
            for agg_name, field, __ in self._aggregations:
                column = [member[field] for member in members]
                values.append(AGGREGATES[agg_name](column))
            out = Tuple(out_schema, values)
            if store is not None:
                store.record(out, tuple(members))
            yield out

    def describe(self) -> str:
        aggs = ", ".join(
            f"{agg}({field})->{out}" for agg, field, out in self._aggregations
        )
        return f"GroupBy[{', '.join(self._keys)}; {aggs}]"


# ---------------------------------------------------------------------------
# Binary operators
# ---------------------------------------------------------------------------


class UnionNode(PlanNode):
    """Bag union of two schema-identical inputs; fully streaming."""

    label = "Union"

    def __init__(self, left: PlanNode, right: PlanNode):
        if left.schema != right.schema:
            raise SchemaError(
                f"union requires identical schemas, got {left.schema!r} "
                f"and {right.schema!r}"
            )
        super().__init__((left, right), left.schema)

    def _produce(self) -> Iterator[Tuple]:
        store = _lineage_store(self)
        if store is None:
            yield from self._pull(self._children[0])
            yield from self._pull(self._children[1])
            return
        # Rows pass through unchanged, but the walk needs to know which
        # child a row streamed from — the tag records the child index.
        for side in (0, 1):
            for row in self._pull(self._children[side]):
                store.record(row, (row,), tag=side)
                yield row

    def describe(self) -> str:
        return "Union"


def _check_join_keys(
    left: Schema, right: Schema, left_key: str, right_key: str
) -> None:
    left_type = left.type_of(left_key)
    right_type = right.type_of(right_key)
    compatible = left_type is right_type or (
        T.numeric(left_type) and T.numeric(right_type)
    )
    if not compatible:
        raise TypeCheckError(
            f"join keys {left_key!r} ({left_type}) and {right_key!r} "
            f"({right_type}) have incompatible types"
        )


class CrossProductNode(PlanNode):
    """Cartesian product; buffers the right input, streams the left."""

    label = "CrossProduct"

    def __init__(self, left: PlanNode, right: PlanNode):
        schema, __ = joined_schema(left.schema, right.schema)
        super().__init__((left, right), schema)

    def _produce(self) -> Iterator[Tuple]:
        schema = self._schema
        store = _lineage_store(self)
        right_rows = list(self._pull(self._children[1]))
        self._buffered(right_rows)
        for lrow in self._pull(self._children[0]):
            for rrow in right_rows:
                out = concat_rows(schema, lrow, rrow)
                if store is not None:
                    store.record(out, (lrow, rrow))
                yield out

    def describe(self) -> str:
        return "CrossProduct"


class NestedLoopJoinNode(PlanNode):
    """Equi-join by nested loops — the O(n*m) baseline strategy."""

    label = "NestedLoopJoin"

    def __init__(self, left: PlanNode, right: PlanNode,
                 left_key: str, right_key: str):
        _check_join_keys(left.schema, right.schema, left_key, right_key)
        schema, __ = joined_schema(left.schema, right.schema)
        super().__init__((left, right), schema)
        self._left_key = left_key
        self._right_key = right_key

    def _produce(self) -> Iterator[Tuple]:
        schema = self._schema
        store = _lineage_store(self)
        left_key, right_key = self._left_key, self._right_key
        right_rows = list(self._pull(self._children[1]))
        self._buffered(right_rows)
        for lrow in self._pull(self._children[0]):
            key = lrow[left_key]
            for rrow in right_rows:
                if rrow[right_key] == key:
                    out = concat_rows(schema, lrow, rrow)
                    if store is not None:
                        store.record(out, (lrow, rrow))
                    yield out

    def describe(self) -> str:
        return f"NestedLoopJoin[{self._left_key} = {self._right_key}]"


class HashJoinNode(PlanNode):
    """Equi-join hashing the right input — the production strategy.

    Non-hashable key values (e.g. drawable lists) cannot poison the stream:
    the build side degrades to a plain scan list and probing falls back to
    nested loops, with the degradation recorded in ``stats.notes`` instead
    of a ``TypeError`` escaping mid-iteration.
    """

    label = "HashJoin"

    _DEGRADED_BUILD = (
        "hash join degraded to nested-loop: non-hashable key value in "
        "the build (right) input"
    )
    _DEGRADED_PROBE = (
        "hash join probed with a non-hashable key value; scanned the "
        "build side for those rows"
    )

    def __init__(self, left: PlanNode, right: PlanNode,
                 left_key: str, right_key: str):
        _check_join_keys(left.schema, right.schema, left_key, right_key)
        schema, __ = joined_schema(left.schema, right.schema)
        super().__init__((left, right), schema)
        self._left_key = left_key
        self._right_key = right_key

    def _produce(self) -> Iterator[Tuple]:
        schema = self._schema
        store = _lineage_store(self)
        left_key, right_key = self._left_key, self._right_key

        right_rows: list[Tuple] = []
        buckets: dict[Any, list[Tuple]] | None = {}
        for rrow in self._pull(self._children[1]):
            right_rows.append(rrow)
            if buckets is not None:
                try:
                    buckets.setdefault(rrow[right_key], []).append(rrow)
                except TypeError:
                    buckets = None
                    self.stats.note(self._DEGRADED_BUILD)
        self._buffered(right_rows)

        if buckets is None:
            for lrow in self._pull(self._children[0]):
                key = lrow[left_key]
                for rrow in right_rows:
                    if rrow[right_key] == key:
                        out = concat_rows(schema, lrow, rrow)
                        if store is not None:
                            store.record(out, (lrow, rrow))
                        yield out
            return

        for lrow in self._pull(self._children[0]):
            key = lrow[left_key]
            try:
                matches: Iterable[Tuple] = buckets.get(key, ())
            except TypeError:
                self.stats.note(self._DEGRADED_PROBE)
                matches = [r for r in right_rows if r[right_key] == key]
            for rrow in matches:
                out = concat_rows(schema, lrow, rrow)
                if store is not None:
                    store.record(out, (lrow, rrow))
                yield out

    def describe(self) -> str:
        return f"HashJoin[{self._left_key} = {self._right_key}]"


class ThetaJoinNode(PlanNode):
    """General join filtered by a predicate over the concatenated schema.

    Right-side fields whose names collide are addressed as ``right_<name>``.
    """

    label = "ThetaJoin"

    def __init__(self, left: PlanNode, right: PlanNode, predicate_source: str):
        schema, __ = joined_schema(left.schema, right.schema)
        predicate = parse_predicate(predicate_source, schema)
        super().__init__((left, right), schema)
        self.predicate = predicate
        self._source = predicate_source

    def _produce(self) -> Iterator[Tuple]:
        schema = self._schema
        predicate = self.predicate
        store = _lineage_store(self)
        right_rows = list(self._pull(self._children[1]))
        self._buffered(right_rows)
        for lrow in self._pull(self._children[0]):
            for rrow in right_rows:
                joined = concat_rows(schema, lrow, rrow)
                if predicate.evaluate(joined):
                    if store is not None:
                        store.record(joined, (lrow, rrow))
                    yield joined

    def describe(self) -> str:
        return f"ThetaJoin[{_clip(self._source, 56)}]"


# ---------------------------------------------------------------------------
# Lazy row sets: the engine's memoization boundary
# ---------------------------------------------------------------------------


class LazyRowSet(RowSet):
    """A RowSet whose rows are produced by a plan on first demand.

    Fully API-compatible with :class:`RowSet` — iteration, ``len``,
    indexing, equality all work — but the underlying plan executes at most
    once, incrementally: :meth:`stream` serves rows from a shared buffer and
    advances the plan only past the buffered frontier, so N concurrent
    consumers (fan-out edges, re-demanded outputs, a downstream
    :class:`CacheNode`) cost one execution and one buffer.

    An error raised mid-stream is remembered and re-raised on every later
    demand; a half-buffered result can never silently pose as complete.

    A plan whose root is :class:`ToRowsNode` is forced late: when nothing
    has streamed yet, :meth:`force` takes the columnar result as one batch
    (kept in ``column_batch``) and the rows become a
    :class:`~repro.dbms.columnar.BatchRows` over it, which builds each
    Tuple on first access.  Any other plan, or one a consumer already
    streams, buffers its rows as they arrive.

    ``predecessor`` is the same box's previous output, linked by the
    engine when the box re-fires after an update: the engine may then
    patch that result instead of running the plan
    (:func:`repro.dbms.delta.carry`).  A patched set keeps the link until
    the viewer has patched its location columns from the predecessor's
    (``repro.render.scene.location_columns``); any other materialization
    drops it.
    """

    __slots__ = ("_plan", "_buffer", "_iter", "_done", "_error", "_forced",
                 "label", "cache_status", "predecessor")

    def __init__(self, plan: PlanNode, label: str | None = None):
        # Deliberately no super().__init__: the parent would materialize.
        self._schema = plan.schema
        self._plan = plan
        # A list while rows arrive; the final sequence once done.
        self._buffer: Sequence[Tuple] = []
        self._iter: Iterator[Tuple] | None = None
        self._done = False
        self._error: BaseException | None = None
        self._forced: Sequence[Tuple] | None = None
        self.column_batch = None
        self.location_memo = None
        self.stats_memo = None
        self.delta = None
        self.label = label
        # "hit" / "miss" when the result cache was consulted, "patched"
        # when the result was carried across an update; None otherwise.
        self.cache_status: str | None = None
        self.predecessor: LazyRowSet | None = None

    # -- laziness ---------------------------------------------------------

    @property
    def plan(self) -> PlanNode:
        return self._plan

    @property
    def is_materialized(self) -> bool:
        return self._forced is not None

    @property
    def is_complete(self) -> bool:
        """True once the rows are all known: forced, or streamed to the end
        by a consumer."""
        return self._forced is not None or (self._done
                                            and self._error is None)

    def buffered_rows(self) -> int:
        return len(self._buffer)

    def stream(self) -> Iterator[Tuple]:
        """Yield rows, sharing one plan execution among all consumers."""
        if self._done:
            yield from self._buffer
            return
        pos = 0
        while True:
            buffer = self._buffer
            while pos < len(buffer):
                yield buffer[pos]
                pos += 1
            if self._done:
                return
            self._advance()

    def _advance(self) -> None:
        if self._error is not None:
            raise self._error
        if self._iter is None:
            self._iter = self._plan.rows_iter()
        try:
            self._buffer.append(next(self._iter))
        except StopIteration:
            self._done = True
            self._iter = None
            self.predecessor = None
        except Exception as exc:
            self._error = exc
            self._iter = None
            raise

    def force(self) -> Sequence[Tuple]:
        """Run the plan to completion; further demands are free.

        Returns a tuple, or a :class:`BatchRows` when the plan ran late
        (see the class docstring).
        """
        if self._forced is None:
            plan = self._plan
            if type(plan) is ToRowsNode and not self.has_started:
                try:
                    batch = plan.execute_batch()
                except Exception as exc:
                    self._error = exc
                    raise
                self._finish(BatchRows(batch))
            else:
                for __ in self.stream():
                    pass
                self._forced = tuple(self._buffer)
            self.predecessor = None
        return self._forced

    def _finish(self, rows: Sequence[Tuple]) -> None:
        if isinstance(rows, BatchRows):
            self.column_batch = rows.batch
        self._buffer = self._forced = rows
        self._done = True

    @property
    def has_started(self) -> bool:
        """True once any plan execution has begun (or finished)."""
        return (
            self._iter is not None
            or self._done
            or self._error is not None
            or bool(self._buffer)
        )

    def adopt(self, rows: Sequence[Tuple]) -> None:
        """Install an externally computed result (e.g. a result-cache hit).

        Only legal before any execution has started; the plan never runs.
        A :class:`BatchRows` is shared as it is, with its batch and the
        tuples it has built.
        """
        if self.has_started:
            raise RuntimeError("cannot adopt rows: plan execution has started")
        self._finish(rows if isinstance(rows, BatchRows) else tuple(rows))

    def replace_plan(self, plan: PlanNode) -> None:
        """Swap in an equivalent plan (e.g. a columnarized rewrite).

        Only legal before any execution has started, and the replacement must
        preserve the schema — downstream consumers already saw it.
        """
        if self.has_started:
            raise RuntimeError(
                "cannot replace plan: plan execution has started"
            )
        if plan.schema != self._schema:
            raise SchemaError("replacement plan changes the output schema")
        self._plan = plan

    # _rows shadows the parent's slot with a forcing property, so every
    # RowSet method (len, indexing, equality, .rows) works transparently.
    @property
    def _rows(self) -> Sequence[Tuple]:  # type: ignore[override]
        return self.force()

    def __iter__(self) -> Iterator[Tuple]:
        return self.stream()

    def __repr__(self) -> str:
        if self._forced is not None:
            return f"LazyRowSet({self._schema!r}, {len(self._forced)} rows)"
        return (
            f"LazyRowSet({self._schema!r}, unforced, "
            f"{len(self._buffer)} rows buffered)"
        )


def source_plan(rows: RowSet, name: str | None = None) -> PlanNode:
    """The plan leaf for an input relation: re-enter a lazy set through its
    shared buffer, or scan a materialized one."""
    if isinstance(rows, LazyRowSet):
        return CacheNode(rows)
    return ScanNode(rows, name=name)


# ---------------------------------------------------------------------------
# Columnar backend: vectorized kernels exchanging ColumnBatch
# ---------------------------------------------------------------------------

#: Largest integer magnitude float64 represents exactly.  Vectorized paths
#: that would route int values through float64 (bincount sums, mixed-type
#: join keys) guard against values or partial sums beyond this and fall
#: back to the exact row algorithm instead.
_EXACT_INT = 2 ** 53


def _batches_counter():
    return global_registry().counter(
        "columnar.batches", "column batches produced by columnar kernels"
    )


def _fallback_counter():
    return global_registry().counter(
        "columnar.fallback",
        "column batches re-evaluated on the row path after a data hazard",
    )


class ColumnarNode(PlanNode):
    """Base class for vectorized operators exchanging :class:`ColumnBatch`.

    Mirrors the row protocol one level up: :meth:`column_batches` is to
    ``open()`` what ``_produce_columns`` is to ``_produce``.  The row
    protocol still works — ``open()`` converts each column batch back to
    rows — so a bare kernel can be executed anywhere a row node can, but
    the intended consumers are other ColumnarNodes and the
    :class:`ToRowsNode` adapter (``planverify`` enforces that shape for
    plans built by ``columnarize_plan``).

    Kernels are constructed from (and behave identically to) their serial
    siblings; ``describe()`` strings match so EXPLAIN output reads the
    same modulo the backend annotation.
    """

    backend = "columnar"

    #: The serial node this kernel replaced, when the rewrite kept one.
    #: Per-execution row counters are folded back into it so call sites
    #: holding the original plan (the scene-graph cull cache reads
    #: ``rows_in``/``rows_out`` off its Restrict nodes) observe exactly the
    #: stats the row backend would have produced.
    template: PlanNode | None = None

    @property
    def columnar_info(self) -> dict[str, Any]:
        """Marker + summary for rewrite passes and ``explain_data``."""
        return {"backend": "columnar", "op": self.label}

    def column_batches(self) -> Iterator[ColumnBatch]:
        """Begin one execution, yielding column batches."""
        if _VERIFY_HOOK is not None:
            _VERIFY_HOOK(self)
        self.stats.opens += 1
        return self._column_stream()

    def _column_stream(self) -> Iterator[ColumnBatch]:
        stats = self.stats
        rows_in_before = stats.rows_in
        rows_out_before = stats.rows_out
        tracer = current_tracer()
        span = None
        if tracer.enabled:
            span = tracer.span(
                "columnar.kernel", op=self.label, desc=self.describe()
            )
            span.__enter__()
        counter = _batches_counter()
        produced = self._produce_columns()
        try:
            while True:
                start = perf_counter()
                try:
                    batch = next(produced)
                except StopIteration:
                    stats.wall_s += perf_counter() - start
                    break
                stats.wall_s += perf_counter() - start
                stats.batches += 1
                stats.rows_out += len(batch)
                counter.inc()
                yield batch
        finally:
            produced.close()
            self.close()
            template = self.template
            if template is not None:
                template.stats.opens += 1
                template.stats.rows_in += stats.rows_in - rows_in_before
                template.stats.rows_out += stats.rows_out - rows_out_before
            if span is not None:
                span.set(
                    rows_in=stats.rows_in - rows_in_before,
                    rows_out=stats.rows_out - rows_out_before,
                    opens=stats.opens,
                )
                span.__exit__(None, None, None)

    def _produce_columns(self) -> Iterator[ColumnBatch]:
        raise NotImplementedError

    def _pull_columns(self, child: PlanNode) -> Iterator[ColumnBatch]:
        """Stream a child's column batches, counting rows as our input."""
        stats = self.stats
        for batch in child.column_batches():
            stats.rows_in += len(batch)
            yield batch

    def _produce(self) -> Iterator[Tuple]:
        # Row-protocol view (a bare kernel executed without adapters).
        for batch in self._produce_columns():
            yield from batch.to_rows()


class ToColumnsNode(ColumnarNode):
    """Row-to-column adapter at the bottom edge of a columnar region.

    For materialized leaves — a Scan over a RowSet, a Cache over an
    already-forced lazy set — the whole source is converted once and the
    batch memoized on the row set (``RowSet.column_batch``), so repeated
    renders of an unchanged table skip the per-tuple walk entirely, and a
    late-forced lazy set's own batch is reused without building a tuple; the
    leaf's counters are advanced as if it had streamed (EXPLAIN must read
    backend-independently).  Any other child is executed through the row
    protocol and re-batched at ``batch_rows`` granularity; the optimizer
    always uses ``DEFAULT_BATCH_ROWS``, and tests pass smaller sizes to
    exercise multi-batch streams.
    """

    label = "ToColumns"

    def __init__(self, child: PlanNode, batch_rows: int = DEFAULT_BATCH_ROWS):
        super().__init__((child,), child.schema)
        self._batch_rows = max(1, int(batch_rows))

    @property
    def batch_rows(self) -> int:
        return self._batch_rows

    def _leaf_source(self) -> tuple[PlanNode, RowSet | tuple] | None:
        child = self._children[0]
        if type(child) is ScanNode:
            source = child._source
            if isinstance(source, RowSet) and not isinstance(source, LazyRowSet):
                return child, source
            if isinstance(source, tuple):
                return child, source
            return None
        if type(child) is CacheNode and child._source.is_materialized:
            return child, child._source
        return None

    def _source_batch(self, source: RowSet | tuple) -> ColumnBatch:
        """The whole-source conversion, memoized on a row-set source."""
        if isinstance(source, tuple):
            return ColumnBatch.from_rows(self._schema, source)
        batch = source.column_batch
        if batch is None or batch.schema != self._schema:
            batch = ColumnBatch.from_rows(self._schema, source.rows)
            source.column_batch = batch
        rows = source.rows
        if isinstance(rows, BatchRows) and rows.batch is batch:
            return rows.as_batch()
        return batch

    def _produce_columns(self) -> Iterator[ColumnBatch]:
        stats = self.stats
        size = self._batch_rows
        leaf = self._leaf_source()
        if leaf is not None:
            node, source = leaf
            batch = self._source_batch(source)
            n = len(batch)
            # The leaf never actually streamed; mimic the counters one
            # serial execution would have left behind.
            leaf_stats = node.stats
            leaf_stats.opens += 1
            leaf_stats.rows_in += n
            leaf_stats.rows_out += n
            leaf_stats.batches += (n + BATCH_SIZE - 1) // BATCH_SIZE
            if type(node) is CacheNode:
                node._buffered(n)
            stats.rows_in += n
            if n <= size:
                if n:
                    yield batch
                return
            for start in range(0, n, size):
                yield batch.slice(start, min(start + size, n))
            return
        buffer: list[Tuple] = []
        for row in self._pull(self._children[0]):
            buffer.append(row)
            if len(buffer) >= size:
                yield ColumnBatch.from_rows(self._schema, buffer)
                buffer = []
        if buffer:
            yield ColumnBatch.from_rows(self._schema, buffer)

    def describe(self) -> str:
        return f"ToColumns[batch={self._batch_rows}]"


class ToRowsNode(PlanNode):
    """Column-to-row adapter at the top edge of a columnar region.

    Speaks the plain row protocol to its parent; batches that still carry
    their original Tuple objects hand them back by identity.  At the root
    of a demanded plan it is not pulled row by row: :class:`LazyRowSet`
    takes the whole result from :meth:`execute_batch`, and rows are built
    on first access.
    """

    label = "ToRows"

    def __init__(self, child: ColumnarNode):
        super().__init__((child,), child.schema)

    def execute_batch(self) -> ColumnBatch:
        """Run one execution and return its result as one batch.

        Leaves the counters and the ``plan.node`` span one row-protocol
        execution leaves, so EXPLAIN cannot tell the two apart.
        """
        if _VERIFY_HOOK is not None:
            _VERIFY_HOOK(self)
        stats = self.stats
        stats.opens += 1
        with current_tracer().span(
            "plan.node", op=self.label, desc=self.describe()
        ) as span:
            start = perf_counter()
            try:
                batches = list(self._children[0].column_batches())
                batch = (ColumnBatch.concat(batches) if batches
                         else ColumnBatch.from_rows(self._schema, ()))
            finally:
                stats.wall_s += perf_counter() - start
            n = len(batch)
            stats.rows_in += n
            stats.rows_out += n
            stats.batches += (n + BATCH_SIZE - 1) // BATCH_SIZE
            span.set(rows_in=n, rows_out=n, opens=stats.opens)
        return batch

    def _produce(self) -> Iterator[Tuple]:
        stats = self.stats
        for batch in self._children[0].column_batches():
            stats.rows_in += len(batch)
            yield from batch.to_rows()

    def describe(self) -> str:
        return "ToRows"


class ColumnarRestrictNode(ColumnarNode):
    """Vectorized Restrict: one compiled mask program per batch.

    When the predicate did not compile — or a batch trips a data hazard
    (:class:`VectorFallback`: a zero divisor the serial short-circuit might
    have skipped, an overflowed int column) — that batch is evaluated
    row-at-a-time with the serial ``Expr.evaluate``: identical rows,
    identical errors, counted in ``columnar.fallback``.  ``positions``
    holds the kept input positions, as on :class:`RestrictNode`.
    """

    label = "Restrict"
    positions: np.ndarray | None = None

    def __init__(
        self,
        child: PlanNode,
        predicate: Expr,
        alias: str | None = None,
        template: PlanNode | None = None,
    ):
        result_type = predicate.infer(child.schema)
        if result_type is not T.BOOL:
            raise TypeCheckError(
                f"restrict predicate has type {result_type}, want bool"
            )
        super().__init__((child,), child.schema)
        self.predicate = predicate
        self.alias = alias
        self.template = template
        self._compiled = compile_predicate(predicate, child.schema)

    @property
    def compiled(self) -> bool:
        """Did the predicate vectorize? (False = always row-path.)"""
        return self._compiled is not None

    def _produce_columns(self) -> Iterator[ColumnBatch]:
        compiled = self._compiled
        predicate = self.predicate
        self.positions = None
        kept: list[np.ndarray] = []
        offset = 0
        for batch in self._pull_columns(self._children[0]):
            if not len(batch):
                continue
            keep: np.ndarray | None = None
            if compiled is not None:
                try:
                    # Python float arithmetic overflows to inf silently.
                    with np.errstate(all="ignore"):
                        keep = compiled(batch)
                except VectorFallback:
                    keep = None
            if keep is None:
                _fallback_counter().inc()
                keep = np.fromiter(
                    (bool(predicate.evaluate(row)) for row in batch.to_rows()),
                    dtype=bool,
                    count=len(batch),
                )
            kept.append(keep.nonzero()[0] + offset)
            offset += len(batch)
            out = batch.take_mask(keep)
            if len(out):
                yield out
        self.positions = (np.concatenate(kept) if kept
                          else np.zeros(0, dtype=np.intp))

    def describe(self) -> str:
        text = _clip(str(self.predicate), 56)
        if self.alias:
            return f"Restrict[{self.alias}: {text}]"
        return f"Restrict[{text}]"


class ColumnarProjectNode(ColumnarNode):
    """Vectorized Project: reorders column references, copies nothing."""

    label = "Project"

    def __init__(
        self,
        child: PlanNode,
        names: Sequence[str],
        template: PlanNode | None = None,
    ):
        if not names:
            raise SchemaError("projection requires at least one field")
        self._names = list(names)
        super().__init__((child,), child.schema.project(self._names))
        self.template = template

    def _produce_columns(self) -> Iterator[ColumnBatch]:
        names = self._names
        schema = self._schema
        store = _lineage_store(self)
        for batch in self._pull_columns(self._children[0]):
            columns = {name: batch.column(name) for name in names}
            out = ColumnBatch(schema, columns, mask=batch.mask)
            if store is not None:
                in_rows = batch.to_rows()
                out_rows = list(out.to_rows())
                out.rows = _object_array(out_rows)
                for irow, orow in zip(in_rows, out_rows):
                    store.record(orow, (irow,))
            yield out

    def describe(self) -> str:
        return f"Project[{', '.join(self._names)}]"


class ColumnarRenameNode(ColumnarNode):
    """Vectorized Rename: relabels one column reference."""

    label = "Rename"

    def __init__(
        self,
        child: PlanNode,
        old: str,
        new: str,
        template: PlanNode | None = None,
    ):
        super().__init__((child,), child.schema.rename(old, new))
        self._old = old
        self._new = new
        self.template = template

    @property
    def mapping(self) -> tuple[str, str]:
        return (self._old, self._new)

    def _produce_columns(self) -> Iterator[ColumnBatch]:
        old, new = self._old, self._new
        schema = self._schema
        store = _lineage_store(self)
        for batch in self._pull_columns(self._children[0]):
            columns = {
                (new if name == old else name): batch.column(name)
                for name in batch.schema.names
            }
            out = ColumnBatch(schema, columns, mask=batch.mask)
            if store is not None:
                in_rows = batch.to_rows()
                out_rows = list(out.to_rows())
                out.rows = _object_array(out_rows)
                for irow, orow in zip(in_rows, out_rows):
                    store.record(orow, (irow,))
            yield out

    def describe(self) -> str:
        return f"Rename[{self._old} -> {self._new}]"


class ColumnarLimitNode(ColumnarNode):
    """Vectorized Limit.

    Pulls whole batches, so upstream ``rows_in`` counters can overshoot
    the serial backend's row-exact early exit by up to one batch;
    ``columnarize_plan`` therefore leaves Limit on the row backend (where
    EXPLAIN counters stay serial-identical) and this kernel serves
    explicitly constructed columnar plans.
    """

    label = "Limit"

    def __init__(
        self,
        child: PlanNode,
        count: int,
        template: PlanNode | None = None,
    ):
        if count < 0:
            raise EvaluationError(f"limit must be non-negative, got {count}")
        super().__init__((child,), child.schema)
        self._count = count
        self.template = template

    def _produce_columns(self) -> Iterator[ColumnBatch]:
        remaining = self._count
        if remaining == 0:
            return
        for batch in self._pull_columns(self._children[0]):
            if not len(batch):
                continue
            if len(batch) >= remaining:
                yield batch.slice(0, remaining)
                return
            remaining -= len(batch)
            yield batch

    def describe(self) -> str:
        return f"Limit[{self._count}]"


def _structured_view(arrays: Sequence[np.ndarray], n: int) -> np.ndarray:
    """The columns fused into one structured array (for np.unique)."""
    if len(arrays) == 1:
        return arrays[0]
    rec = np.empty(
        n, dtype=[(f"f{pos}", arr.dtype) for pos, arr in enumerate(arrays)]
    )
    for pos, arr in enumerate(arrays):
        rec[f"f{pos}"] = arr
    return rec


def _first_occurrences(arrays: Sequence[np.ndarray], n: int) -> np.ndarray:
    """Indices of each distinct combination's first occurrence, ascending.

    All-fixed-dtype columns go through a structured ``np.unique`` (which
    sorts stably when ``return_index`` is requested, so the reported index
    is genuinely the first occurrence); any object column degrades this to
    a plain range.  Either way the result is only a *candidate* filter —
    the caller's hash set makes the final call with Python equality, so a
    pre-filter that keeps too much can never change the answer.
    """
    if any(arr.dtype == object for arr in arrays):
        return np.arange(n, dtype=np.int64)
    __, first = np.unique(_structured_view(arrays, n), return_index=True)
    first.sort()
    return first


class ColumnarDistinctNode(ColumnarNode):
    """Vectorized Distinct, first occurrence wins.

    Per batch, a structured ``np.unique`` narrows the rows to
    first-occurrence candidates; a Python set of value tuples — the same
    comparison relation the serial backend's Tuple set uses — deduplicates
    across batches.
    """

    label = "Distinct"

    def __init__(self, child: PlanNode, template: PlanNode | None = None):
        super().__init__((child,), child.schema)
        self.template = template

    def _produce_columns(self) -> Iterator[ColumnBatch]:
        seen: set[tuple[Any, ...]] = set()
        try:
            for batch in self._pull_columns(self._children[0]):
                n = len(batch)
                if not n:
                    continue
                arrays = batch.arrays()
                candidates = _first_occurrences(arrays, n)
                value_lists = [arr[candidates].tolist() for arr in arrays]
                keep: list[int] = []
                for pos, values in enumerate(zip(*value_lists)):
                    if values not in seen:
                        seen.add(values)
                        keep.append(pos)
                if not keep:
                    continue
                yield batch.take(candidates[np.asarray(keep, dtype=np.int64)])
        finally:
            self._buffered(len(seen))

    def describe(self) -> str:
        return "Distinct"


def _stable_sort_order(
    keys: Sequence[np.ndarray], n: int, descending: bool
) -> np.ndarray:
    """A sort permutation matching ``list.sort`` on key tuples exactly.

    All-numeric keys ride ``np.lexsort`` (stable, like Python's sort, so
    equal keys keep input order in both directions).  Descending order
    negates each key — exact for float64 (sign flip) and bool (via int8),
    guarded for int64 (its minimum has no negation).  Everything else
    falls back to a Python ``sorted`` over the exact values: the very
    comparisons the serial backend makes.
    """
    vectorized = all(arr.dtype != object for arr in keys)
    if vectorized and descending:
        negated: list[np.ndarray] = []
        for arr in keys:
            if arr.dtype.kind == "b":
                negated.append(-(arr.astype(np.int8)))
            elif arr.dtype.kind in "iu" and arr.size and bool(
                np.any(arr == np.iinfo(arr.dtype).min)
            ):
                vectorized = False
                break
            else:
                negated.append(-arr)
        if vectorized:
            keys = negated
    if vectorized:
        return np.lexsort(tuple(reversed(list(keys))))
    value_lists = [arr.tolist() for arr in keys]
    order = sorted(
        range(n),
        key=lambda pos: tuple(column[pos] for column in value_lists),
        reverse=descending,
    )
    return np.asarray(order, dtype=np.int64)


class ColumnarOrderByNode(ColumnarNode):
    """Vectorized stable sort; buffers its input (pipeline breaker)."""

    label = "OrderBy"

    def __init__(
        self,
        child: PlanNode,
        names: Sequence[str],
        descending: bool = False,
        template: PlanNode | None = None,
    ):
        for name in names:
            child.schema.field(name)
        super().__init__((child,), child.schema)
        self._names = list(names)
        self._descending = descending
        self.template = template

    def _produce_columns(self) -> Iterator[ColumnBatch]:
        batches = list(self._pull_columns(self._children[0]))
        if not batches:
            return
        batch = ColumnBatch.concat(batches)
        n = len(batch)
        self._buffered(n)
        if not n:
            return
        keys = [batch.column(name) for name in self._names]
        yield batch.take(_stable_sort_order(keys, n, self._descending))

    def describe(self) -> str:
        direction = " desc" if self._descending else ""
        return f"OrderBy[{', '.join(self._names)}{direction}]"


def _group_codes(
    key_arrays: Sequence[np.ndarray], n: int
) -> tuple[np.ndarray, np.ndarray, int] | None:
    """First-appearance group ids for every row.

    ``codes[i]`` is row *i*'s group, groups numbered in order of first
    appearance — the serial backend's dict-insertion order —
    ``first_rows[g]`` the row index of group *g*'s first member.  Returns
    None when a key column is object-dtype (the caller then groups in
    Python).
    """
    if any(arr.dtype == object for arr in key_arrays):
        return None
    __, first_idx, inverse = np.unique(
        _structured_view(key_arrays, n),
        return_index=True,
        return_inverse=True,
    )
    appearance = np.argsort(first_idx, kind="stable")
    rank = np.empty(len(first_idx), dtype=np.int64)
    rank[appearance] = np.arange(len(first_idx))
    codes = rank[np.asarray(inverse).reshape(-1)]
    first_rows = first_idx[appearance]
    return codes, first_rows, len(first_idx)


def _vector_aggregate(
    agg_name: str, column: np.ndarray, codes: np.ndarray, group_count: int
) -> np.ndarray:
    """One aggregate output column, indexed by group code.

    Sums must reproduce the serial left-to-right fold bit-for-bit, so they
    ride ``np.bincount`` — its weight accumulation walks the input in
    order, exactly like Python's ``sum()`` — never ``np.add.reduce``,
    whose pairwise summation rounds differently.  min/max are
    order-independent, so a stable argsort plus ``reduceat`` is safe.
    Raises :class:`VectorFallback` when int values routed through the
    float64 weights could lose exactness.
    """
    if agg_name == "count":
        return np.bincount(codes, minlength=group_count).astype(np.int64)
    if column.dtype == object:
        raise VectorFallback("object-dtype aggregate input")
    if agg_name in ("sum", "avg"):
        if column.dtype.kind in "iu" and column.size and (
            int(np.abs(column).max()) * len(column) > _EXACT_INT
        ):
            raise VectorFallback("int sum may leave the exact float64 range")
        sums = np.bincount(codes, weights=column, minlength=group_count)
        if agg_name == "avg":
            return sums / np.bincount(codes, minlength=group_count)
        if column.dtype.kind in "iu":
            return sums.astype(np.int64)
        return sums
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    starts = np.flatnonzero(
        np.r_[True, sorted_codes[1:] != sorted_codes[:-1]]
    )
    ufunc = np.minimum if agg_name == "min" else np.maximum
    return ufunc.reduceat(column[order], starts)


class ColumnarGroupByNode(ColumnarNode):
    """Vectorized GroupBy with sum/count/avg/min/max.

    Structured ``np.unique`` assigns group codes, remapped to
    first-appearance order so output group order matches the serial
    backend's insertion-ordered dict.  Object-dtype keys or an exactness
    hazard drop the whole input to the serial grouping algorithm (same
    ``AGGREGATES`` table, same errors).
    """

    label = "GroupBy"

    def __init__(
        self,
        child: PlanNode,
        keys: Sequence[str],
        aggregations: Sequence[tuple[str, str, str]],
        template: PlanNode | None = None,
    ):
        out_schema = _groupby_output_schema(child.schema, keys, aggregations)
        super().__init__((child,), out_schema)
        self._keys = list(keys)
        self._aggregations = [tuple(spec) for spec in aggregations]
        self.template = template

    def _produce_columns(self) -> Iterator[ColumnBatch]:
        batches = list(self._pull_columns(self._children[0]))
        batch = ColumnBatch.concat(batches) if batches else None
        n = len(batch) if batch is not None else 0
        self._buffered(n)
        if not n:
            return
        key_arrays = [batch.column(key) for key in self._keys]
        grouped = _group_codes(key_arrays, n)
        if grouped is None:
            _fallback_counter().inc()
            yield from self._row_groups(batch)
            return
        codes, first_rows, group_count = grouped
        columns: dict[str, np.ndarray] = {}
        for key, arr in zip(self._keys, key_arrays):
            columns[key] = arr[first_rows]
        try:
            for agg_name, field, output_name in self._aggregations:
                columns[output_name] = _vector_aggregate(
                    agg_name, batch.column(field), codes, group_count
                )
        except VectorFallback:
            _fallback_counter().inc()
            yield from self._row_groups(batch)
            return
        out = ColumnBatch(self._schema, columns)
        store = _lineage_store(self)
        if store is not None:
            in_rows = batch.to_rows()
            out_rows = list(out.to_rows())
            out.rows = _object_array(out_rows)
            members: list[list[Tuple]] = [[] for __ in range(group_count)]
            for idx, code in enumerate(codes.tolist()):
                members[code].append(in_rows[idx])
            for code, orow in enumerate(out_rows):
                store.record(orow, tuple(members[code]))
        yield out

    def _row_groups(self, batch: ColumnBatch) -> Iterator[ColumnBatch]:
        """The serial grouping algorithm over the buffered input."""
        keys = self._keys
        out_schema = self._schema
        store = _lineage_store(self)
        groups: dict[tuple[Any, ...], list[Tuple]] = {}
        for row in batch.to_rows():
            groups.setdefault(tuple(row[key] for key in keys), []).append(row)
        out_rows: list[Tuple] = []
        for key_values, members in groups.items():
            values: list[Any] = list(key_values)
            for agg_name, field, __ in self._aggregations:
                values.append(
                    AGGREGATES[agg_name]([member[field] for member in members])
                )
            out = Tuple(out_schema, values)
            if store is not None:
                store.record(out, tuple(members))
            out_rows.append(out)
        if out_rows:
            yield ColumnBatch.from_rows(out_schema, out_rows)

    def describe(self) -> str:
        aggs = ", ".join(
            f"{agg}({field})->{out}" for agg, field, out in self._aggregations
        )
        return f"GroupBy[{', '.join(self._keys)}; {aggs}]"


class ColumnarHashJoinNode(ColumnarNode):
    """Vectorized equi-join: sort the buffered build side's keys once,
    binary-search each probe batch against it.

    For left row *i* the matches are the stable-sorted right positions in
    ``[lo[i], hi[i])`` — the stable sort keeps equal keys in right-input
    order, so expanding lefts in batch order reproduces the serial output
    order (probe stream order, then build order within a key) exactly.
    Key hazards — an overflowed int column, mixed int/float keys beyond
    the exact float64 range, values numpy cannot order — drop execution to
    the serial hash-join algorithm, degradation notes included.

    ``positions`` keeps the last complete vectorized execution's index
    arrays ``(probe, build)``: output row *j* joins probe row
    ``probe[j]`` (ascending) with build row ``build[j]``.  A patch across
    an update (:mod:`repro.dbms.delta`) looks a changed row's output
    positions up in them.  None before one completes or after the serial
    fallback ran.
    """

    label = "HashJoin"
    positions: tuple[np.ndarray, np.ndarray] | None = None

    _DEGRADED_BUILD = HashJoinNode._DEGRADED_BUILD
    _DEGRADED_PROBE = HashJoinNode._DEGRADED_PROBE

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        left_key: str,
        right_key: str,
        template: PlanNode | None = None,
    ):
        _check_join_keys(left.schema, right.schema, left_key, right_key)
        schema, renames = joined_schema(left.schema, right.schema)
        super().__init__((left, right), schema)
        self._left_key = left_key
        self._right_key = right_key
        self._renames = renames
        self.template = template

    def _key_caster(self):
        """How probe/build key arrays become comparable, or hazards out.

        Mixed INT/FLOAT keys compare exactly as Python numbers on the
        serial backend; float64 only matches inside the exact int range,
        so both sides are cast with a magnitude guard.  A fixed-dtype key
        column that overflowed to object dtype can't be binary-searched
        against a fixed array at all.
        """
        left_type = self._children[0].schema.type_of(self._left_key)
        right_type = self._children[1].schema.type_of(self._right_key)
        mixed = {left_type, right_type} == {T.INT, T.FLOAT}
        fixed = left_type in NUMPY_DTYPES or right_type in NUMPY_DTYPES

        def cast(arr: np.ndarray) -> np.ndarray:
            if arr.dtype == object:
                if fixed:
                    raise VectorFallback("overflowed join key column")
                return arr
            if mixed:
                if arr.dtype.kind in "iu" and arr.size and (
                    int(np.abs(arr).max()) > _EXACT_INT
                ):
                    raise VectorFallback(
                        "join key beyond the exact float64 range"
                    )
                return arr.astype(np.float64, copy=False)
            return arr

        return cast

    def _produce_columns(self) -> Iterator[ColumnBatch]:
        left_child, right_child = self._children
        self.positions = None
        right_batches = list(self._pull_columns(right_child))
        rbatch = ColumnBatch.concat(right_batches) if right_batches else None
        build_rows = len(rbatch) if rbatch is not None else 0
        self._buffered(build_rows)
        left_stream = self._pull_columns(left_child)
        if not build_rows:
            for __ in left_stream:  # serial still scans the probe side
                pass
            empty = np.zeros(0, dtype=np.intp)
            self.positions = (empty, empty)
            return
        cast = self._key_caster()
        try:
            rkeys = cast(rbatch.column(self._right_key))
            r_order = np.argsort(rkeys, kind="stable")
            r_sorted = rkeys[r_order]
        except (TypeError, VectorFallback):
            _fallback_counter().inc()
            yield from self._row_join(rbatch, left_stream)
            return
        left_names = left_child.schema.names
        renames = self._renames
        right_names = [
            (name, renames.get(name, name))
            for name in right_child.schema.names
        ]
        out_schema = self._schema
        store = _lineage_store(self)
        r_rows = rbatch.to_rows() if store is not None else None
        probes: list[np.ndarray] = []
        builds: list[np.ndarray] = []
        offset = 0
        for lbatch in left_stream:
            if not len(lbatch):
                continue
            try:
                lkeys = cast(lbatch.column(self._left_key))
                lo = np.searchsorted(r_sorted, lkeys, side="left")
                hi = np.searchsorted(r_sorted, lkeys, side="right")
            except (TypeError, VectorFallback):
                _fallback_counter().inc()
                yield from self._row_join(
                    rbatch, chain([lbatch], left_stream)
                )
                return
            counts = hi - lo
            total = int(counts.sum())
            base = offset
            offset += len(lbatch)
            if not total:
                continue
            li = np.repeat(np.arange(len(lbatch)), counts)
            starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
            within = (
                np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
            )
            ri = r_order[np.repeat(lo, counts) + within]
            probes.append(li + base)
            builds.append(ri)
            columns = {
                name: lbatch.column(name)[li] for name in left_names
            }
            for name, out_name in right_names:
                columns[out_name] = rbatch.column(name)[ri]
            out = ColumnBatch(out_schema, columns)
            if store is not None and r_rows is not None:
                l_rows = lbatch.to_rows()
                out_rows = list(out.to_rows())
                out.rows = _object_array(out_rows)
                li_list, ri_list = li.tolist(), ri.tolist()
                for j, orow in enumerate(out_rows):
                    store.record(orow, (l_rows[li_list[j]], r_rows[ri_list[j]]))
            yield out
        if probes:
            self.positions = (np.concatenate(probes), np.concatenate(builds))
        else:
            empty = np.zeros(0, dtype=np.intp)
            self.positions = (empty, empty)

    def _row_join(
        self, rbatch: ColumnBatch, left_stream: Iterator[ColumnBatch]
    ) -> Iterator[ColumnBatch]:
        """The serial hash-join algorithm (hazard path), batch-granular."""
        schema = self._schema
        store = _lineage_store(self)
        left_key, right_key = self._left_key, self._right_key
        right_rows = list(rbatch.to_rows())
        buckets: dict[Any, list[Tuple]] | None = {}
        for rrow in right_rows:
            try:
                buckets.setdefault(rrow[right_key], []).append(rrow)
            except TypeError:
                buckets = None
                self.stats.note(self._DEGRADED_BUILD)
                break
        for lbatch in left_stream:
            out: list[Tuple] = []
            for lrow in lbatch.to_rows():
                key = lrow[left_key]
                matches: Iterable[Tuple]
                if buckets is None:
                    matches = [r for r in right_rows if r[right_key] == key]
                else:
                    try:
                        matches = buckets.get(key, ())
                    except TypeError:
                        self.stats.note(self._DEGRADED_PROBE)
                        matches = [
                            r for r in right_rows if r[right_key] == key
                        ]
                for rrow in matches:
                    joined = concat_rows(schema, lrow, rrow)
                    if store is not None:
                        store.record(joined, (lrow, rrow))
                    out.append(joined)
            if out:
                yield ColumnBatch.from_rows(schema, out)

    def describe(self) -> str:
        return f"HashJoin[{self._left_key} = {self._right_key}]"

