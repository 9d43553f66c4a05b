"""Backward lineage capture and the "why this pixel" provenance walk.

Direct manipulation needs an inverse: the renderer maps database tuples to
marks, and a user pointing at a mark is asking which tuples produced it
(Psallidas & Wu, "Provenance for Interactive Visualizations").  This module
supplies that inverse in two halves:

* **Capture.**  While a capture is active (``Engine(lineage=True)``,
  ``REPRO_LINEAGE=1``, or the :func:`lineage_capture` context manager),
  identity-*breaking* physical operators — Project, Rename, GroupBy, the
  joins, Union, and their columnar kernels — record output-tuple →
  input-tuple mappings into a compact per-node :class:`LineageStore`.
  Identity-*preserving* operators (Restrict, Sample, Limit, OrderBy,
  Distinct, the columnar take/take_mask/slice kernels) record nothing:
  their output rows *are* their input rows, so the walk passes straight
  through them.  Stores are ring-capped per node; evictions are tallied in
  the ``lineage.dropped`` counter.  With no capture active the per-operator
  cost is a single module-global read per plan execution — the disabled
  overhead budget (<5% of a render) is enforced by
  ``tests/test_obs_lineage.py``.

* **Walk.**  :func:`why` picks the mark under a pixel
  (:meth:`Viewer.pick`), finds the displayable relation behind it, and
  walks the recorded mappings down the relation's plan to the named
  base-table rows, returning a structured ``repro.lineage/1`` document
  with the per-operator path.  When the plan ran without capture, the walk
  transparently *replays* it under a scoped capture — memoization
  boundaries (:class:`~repro.dbms.plan.CacheNode`) stream their stable
  buffers and Samples are seeded on every cacheable plan, so the replay
  reproduces the original rows and the fresh mappings apply.

Spans ``lineage.capture`` / ``lineage.walk`` and counters
``lineage.mappings`` / ``lineage.walks`` / ``lineage.dropped`` integrate
with the existing registry; see docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.metrics import global_registry
from repro.obs.trace import current_tracer

__all__ = [
    "LINEAGE_SCHEMA",
    "LineageConfig",
    "LineageStore",
    "lineage_config_from_env",
    "default_lineage_config",
    "set_default_lineage_config",
    "resolve_lineage_config",
    "install_from_env",
    "lineage_capture",
    "active_lineage",
    "why",
    "render_why",
    "MAPPINGS_COUNTER",
    "DROPPED_COUNTER",
    "WALKS_COUNTER",
]

LINEAGE_SCHEMA = "repro.lineage/1"
"""Schema tag of the document :func:`why` returns (docs/OBSERVABILITY.md)."""

DEFAULT_MAX_MAPPINGS = 1_000_000
"""Per-node ring capacity: a store holding this many mappings evicts its
oldest entry for each new one (counted in ``lineage.dropped``)."""

#: Counter declaration tuples, importable by ``repro stats`` so cold JSON
#: output pre-registers the lineage counters.
MAPPINGS_COUNTER = (
    "lineage.mappings", "lineage mappings recorded by plan operators")
DROPPED_COUNTER = (
    "lineage.dropped", "lineage mappings evicted by the per-node ring cap")
WALKS_COUNTER = ("lineage.walks", "why-provenance walks performed")


class LineageConfig:
    """Knobs for lineage capture: the per-node mapping ring capacity."""

    __slots__ = ("max_mappings",)

    def __init__(self, max_mappings: int = DEFAULT_MAX_MAPPINGS):
        self.max_mappings = max(1, int(max_mappings))

    def __repr__(self) -> str:
        return f"LineageConfig(max_mappings={self.max_mappings})"


def lineage_config_from_env(environ=None) -> LineageConfig | None:
    """Read ``REPRO_LINEAGE`` / ``REPRO_LINEAGE_MAX``.

    Unset, empty, or ``0`` means off (``None``); anything else enables
    capture with the (optionally overridden) per-node ring capacity.
    """
    env = os.environ if environ is None else environ
    raw = env.get("REPRO_LINEAGE", "")
    if raw in ("", "0"):
        return None
    try:
        max_mappings = int(
            env.get("REPRO_LINEAGE_MAX", str(DEFAULT_MAX_MAPPINGS)))
    except ValueError:
        max_mappings = DEFAULT_MAX_MAPPINGS
    return LineageConfig(max_mappings=max_mappings)


_DEFAULT_CONFIG: LineageConfig | None = None


def default_lineage_config() -> LineageConfig | None:
    """The process-wide lineage config (``None`` = capture off)."""
    return _DEFAULT_CONFIG


def set_default_lineage_config(
        config: LineageConfig | None) -> LineageConfig | None:
    """Install a process default; returns the previous one (for restore)."""
    global _DEFAULT_CONFIG
    previous = _DEFAULT_CONFIG
    _DEFAULT_CONFIG = config
    return previous


def resolve_lineage_config(lineage=None) -> LineageConfig | None:
    """Resolve the ``Engine(lineage=...)`` knob against the process default.

    ``None`` inherits the default; ``False`` forces capture off; ``True``
    enables capture (reusing the default's cap when one is installed); a
    :class:`LineageConfig` passes through.
    """
    if lineage is None:
        return default_lineage_config()
    if isinstance(lineage, LineageConfig):
        return lineage
    if lineage:
        return default_lineage_config() or LineageConfig()
    return None


class _CaptureState:
    """One active capture: a config plus recording tallies.

    Tallies are plain ints bumped without a lock: concurrent captures may
    race on them, which can undercount a metric but never corrupt a store.
    """

    __slots__ = ("config", "recorded", "dropped")

    def __init__(self, config: LineageConfig):
        self.config = config
        self.recorded = 0
        self.dropped = 0

    def publish(self) -> None:
        """Flush the tallies into the registry counters (capture exit)."""
        registry = global_registry()
        if self.recorded:
            registry.counter(*MAPPINGS_COUNTER).inc(self.recorded)
        if self.dropped:
            registry.counter(*DROPPED_COUNTER).inc(self.dropped)
        self.recorded = 0
        self.dropped = 0


#: The active capture, or None.  A single global read is the entire
#: disabled-path cost (the tracer's ``enabled`` pattern).
_ACTIVE: _CaptureState | None = None


def active_lineage() -> _CaptureState | None:
    """The active capture state, if any (hot-path check for operators)."""
    return _ACTIVE


def install_from_env() -> bool:
    """Adopt ``REPRO_LINEAGE`` as a process-wide always-on capture."""
    global _ACTIVE
    config = lineage_config_from_env()
    if config is None:
        return False
    set_default_lineage_config(config)
    _ACTIVE = _CaptureState(config)
    return True


@contextmanager
def lineage_capture(config: LineageConfig | bool | None = True):
    """Activate lineage capture for the duration of the block.

    Plans executed inside record per-node mappings; the capture's tallies
    are flushed to the ``lineage.*`` counters at exit.  Yields the capture
    state (or None when the resolved config disables capture).
    """
    global _ACTIVE
    resolved = resolve_lineage_config(config)
    if resolved is None:
        yield None
        return
    state = _CaptureState(resolved)
    previous = _ACTIVE
    _ACTIVE = state
    tracer = current_tracer()
    span = None
    if tracer.enabled:
        span = tracer.span("lineage.capture",
                           max_mappings=resolved.max_mappings)
        span.__enter__()
    try:
        yield state
    finally:
        _ACTIVE = previous
        if span is not None:
            span.set(mappings=state.recorded, dropped=state.dropped)
            span.__exit__(None, None, None)
        state.publish()


class LineageStore:
    """Per-operator backward mappings: output tuple → input tuple(s).

    Keys are output-tuple *identities* (``id``); entries pin the output
    object strongly so an id can never be reused while its mapping lives.
    The store is a FIFO ring of at most ``config.max_mappings`` entries —
    recording past capacity evicts the oldest mapping and counts it in the
    capture's ``dropped`` tally.  ``tag`` carries operator-specific routing
    (Union stores the child index the row streamed from).
    """

    __slots__ = ("state", "_map")

    def __init__(self, state: _CaptureState):
        self.state = state
        # id(out) -> (out, inputs, tag); dicts preserve insertion order,
        # which is all the FIFO ring needs.
        self._map: dict[int, tuple[Any, tuple, Any]] = {}

    def __len__(self) -> int:
        return len(self._map)

    def record(self, out: Any, inputs: tuple, tag: Any = None) -> None:
        """Map one output tuple to the input tuple(s) that produced it."""
        state = self.state
        if len(self._map) >= state.config.max_mappings:
            self._map.pop(next(iter(self._map)))
            state.dropped += 1
        self._map[id(out)] = (out, inputs, tag)
        state.recorded += 1

    def lookup(self, row: Any) -> tuple[tuple, Any] | None:
        """The recorded ``(inputs, tag)`` for ``row``, matched by identity."""
        entry = self._map.get(id(row))
        if entry is None or entry[0] is not row:
            return None
        return entry[1], entry[2]


# ---------------------------------------------------------------------------
# The why-provenance walk
# ---------------------------------------------------------------------------


class _Incomplete(Exception):
    """The walk hit an operator with no recorded mapping for its row."""


def _has_unseeded_sample(node) -> bool:
    from repro.dbms.plan import CacheNode, SampleNode

    if isinstance(node, SampleNode) and node._seed is None:
        return True
    if isinstance(node, CacheNode):
        return _has_unseeded_sample(node._source.plan)
    return any(_has_unseeded_sample(child) for child in node.children)


class _Walker:
    """Walks one picked row backward through a plan's lineage stores."""

    def __init__(self) -> None:
        #: Base-table rows reached, deduplicated by tuple identity.
        self.rows: list[tuple[str | None, Any]] = []
        self._seen: set[int] = set()
        self.named_all = True
        self.replayed = False

    def _add_base(self, table: str | None, row) -> None:
        if id(row) in self._seen:
            return
        self._seen.add(id(row))
        self.rows.append((table, row))
        if table is None:
            self.named_all = False

    def walk_lazy(self, lazy, row) -> dict[str, Any]:
        """Walk a row of a LazyRowSet; replays under capture if needed."""
        try:
            return self.walk(lazy.plan, row)
        except _Incomplete:
            if _has_unseeded_sample(lazy.plan):
                raise
            # Replay: re-execute the same plan nodes under a scoped
            # capture.  Cache leaves stream their stable buffers and every
            # Sample is seeded, so the replay emits the same row sequence;
            # the picked row's position identifies its fresh twin.
            index = None
            for pos, buffered in enumerate(lazy.force()):
                if buffered is row:
                    index = pos
                    break
            if index is None:
                raise
            with lineage_capture(True):
                replayed = list(lazy.plan.rows_iter())
            if index >= len(replayed):
                raise
            self.replayed = True
            return self.walk(lazy.plan, replayed[index])

    def walk(self, node, row) -> dict[str, Any]:
        from repro.dbms import plan as P

        path: dict[str, Any] = {"op": node.label, "detail": node.describe()}

        if isinstance(node, P.ScanNode):
            self._add_base(node._name, row)
            path["table"] = node._name
            return path

        if isinstance(node, P.CacheNode):
            path["children"] = [self.walk_lazy(node._source, row)]
            return path

        # Identity-preserving operators: the output row IS an input row.
        if isinstance(node, (
            P.RestrictNode, P.SampleNode, P.LimitNode, P.OrderByNode,
            P.DistinctNode, P.ToColumnsNode, P.ToRowsNode,
            P.ColumnarRestrictNode, P.ColumnarLimitNode,
            P.ColumnarDistinctNode, P.ColumnarOrderByNode,
        )):
            path["children"] = [self.walk(node.children[0], row)]
            return path

        if isinstance(node, P.UnionNode):
            store = node.lineage
            entry = store.lookup(row) if store is not None else None
            if entry is None:
                raise _Incomplete(node.describe())
            inputs, tag = entry
            path["children"] = [self.walk(node.children[tag], inputs[0])]
            return path

        if isinstance(node, (
            P.ProjectNode, P.RenameNode, P.GroupByNode,
            P.ColumnarProjectNode, P.ColumnarRenameNode,
            P.ColumnarGroupByNode,
        )):
            store = node.lineage
            entry = store.lookup(row) if store is not None else None
            if entry is None:
                raise _Incomplete(node.describe())
            inputs, __ = entry
            path["children"] = [
                self.walk(node.children[0], source) for source in inputs
            ]
            return path

        if isinstance(node, (
            P.HashJoinNode, P.NestedLoopJoinNode, P.ThetaJoinNode,
            P.CrossProductNode, P.ColumnarHashJoinNode,
        )):
            store = node.lineage
            entry = store.lookup(row) if store is not None else None
            if entry is None:
                raise _Incomplete(node.describe())
            (lrow, rrow), __ = entry
            path["children"] = [
                self.walk(node.children[0], lrow),
                self.walk(node.children[1], rrow),
            ]
            return path

        # Unknown operator: no identity guarantee, no recorded mapping.
        raise _Incomplete(node.describe())


def _find_relation(displayable, name: str):
    """Locate a DisplayableRelation by name inside a displayable value."""
    from repro.display.displayable import (
        Composite, DisplayableRelation, Group)

    if isinstance(displayable, DisplayableRelation):
        return displayable if displayable.name == name else None
    if isinstance(displayable, Composite):
        for entry in displayable.entries:
            if entry.relation.name == name:
                return entry.relation
        return None
    if isinstance(displayable, Group):
        for __, member in displayable.members:
            found = _find_relation(member, name)
            if found is not None:
                return found
    return None


def _row_doc(table: str | None, row) -> dict[str, Any]:
    return {
        "table": table,
        "values": dict(zip(row.schema.names, row.values)),
    }


def why(viewer, px: float, py: float) -> dict[str, Any]:
    """Pick the mark at ``(px, py)`` and trace it to base-table rows.

    ``viewer`` is a :class:`~repro.viewer.viewer.Viewer` or anything
    carrying one as a ``.viewer`` attribute (a ``CanvasWindow``).  Returns
    a ``repro.lineage/1`` document; ``picked`` is False when no mark is
    under the pixel, ``complete`` is True when every reached leaf is a
    named base table and every mapping on the path was resolved.
    """
    from repro.dbms.plan import LazyRowSet

    viewer = getattr(viewer, "viewer", viewer)
    global_registry().counter(*WALKS_COUNTER).inc()
    tracer = current_tracer()
    with tracer.span("lineage.walk", canvas=viewer.name, px=px, py=py) as span:
        doc: dict[str, Any] = {
            "schema": LINEAGE_SCHEMA,
            "canvas": viewer.name,
            "pixel": [float(px), float(py)],
            "picked": False,
            "mark": None,
            "path": None,
            "rows": [],
            "complete": False,
            "replayed": False,
        }
        item = viewer.pick(px, py)
        if item is None:
            span.set(picked=False)
            return doc
        doc["picked"] = True
        doc["mark"] = {
            "relation": item.relation_name,
            "source_table": item.source_table,
            "kind": item.drawable_kind,
            "tuple_index": item.tuple_index,
        }
        relation = _find_relation(viewer.displayable(), item.relation_name)
        rows = relation.rows if relation is not None else None

        if not isinstance(rows, LazyRowSet):
            # Materialized relation: the mark's tuple is the base row.
            doc["path"] = {
                "op": "Scan",
                "detail": f"Scan[{item.source_table}]"
                if item.source_table else "Scan",
                "table": item.source_table,
            }
            doc["rows"] = [_row_doc(item.source_table, item.row)]
            doc["complete"] = item.source_table is not None
            span.set(picked=True, rows=1, complete=doc["complete"])
            return doc

        walker = _Walker()
        try:
            doc["path"] = walker.walk_lazy(rows, item.row)
        except _Incomplete as exc:
            doc["incomplete_at"] = str(exc)
            span.set(picked=True, rows=0, complete=False)
            return doc
        doc["rows"] = [_row_doc(table, row) for table, row in walker.rows]
        doc["replayed"] = walker.replayed
        doc["complete"] = walker.named_all and bool(walker.rows)
        span.set(picked=True, rows=len(doc["rows"]),
                 complete=doc["complete"], replayed=walker.replayed)
        return doc


def render_why(doc: dict[str, Any]) -> str:
    """Human-readable tree form of a ``repro.lineage/1`` document."""
    lines: list[str] = []
    px, py = doc.get("pixel", (0, 0))
    if not doc.get("picked"):
        lines.append(f"no mark at ({px:g}, {py:g}) on {doc.get('canvas')}")
        return "\n".join(lines)
    mark = doc.get("mark") or {}
    lines.append(
        f"mark at ({px:g}, {py:g}) on {doc.get('canvas')}: "
        f"{mark.get('kind')} from relation {mark.get('relation')!r} "
        f"(tuple #{mark.get('tuple_index')})"
    )

    def walk(node: dict[str, Any], prefix: str, tail: str) -> None:
        line = tail + node.get("detail", node.get("op", "?"))
        if node.get("table") is not None:
            line += f"  <- table {node['table']!r}"
        lines.append(line)
        kids = node.get("children") or []
        for pos, child in enumerate(kids):
            last = pos == len(kids) - 1
            walk(child,
                 prefix + ("   " if last else "│  "),
                 prefix + ("└─ " if last else "├─ "))

    path = doc.get("path")
    if path is not None:
        walk(path, "", "")
    if doc.get("incomplete_at"):
        lines.append(f"! lineage incomplete at {doc['incomplete_at']}")
    rows = doc.get("rows", [])
    lines.append(f"{len(rows)} base row(s)"
                 + (" [replayed]" if doc.get("replayed") else ""))
    for entry in rows:
        values = ", ".join(
            f"{name}={value!r}" for name, value in entry["values"].items())
        lines.append(f"  {entry['table'] or '<unnamed>'}: {values}")
    if not doc.get("complete"):
        lines.append("(provenance incomplete)")
    return "\n".join(lines)
