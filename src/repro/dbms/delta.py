"""Carry a demanded result across a Section-8 update.

The paper's §8 loop is click, SQL update, re-render.  ``Table.replace_row``
changes one stored row, and the next table snapshot records its
predecessor and the replaced positions (``RowSet.delta``).  Every box
downstream re-fires, because its signature reads the table version, and
emits a new lazy row set whose plan equals the previous one apart from
that successor leaf.  The engine links the two (``LazyRowSet.predecessor``)
and, before running the new plan, calls :func:`carry`: it maps the changed
leaf positions up the plan to output positions and patches the
predecessor's result there.  The frame after an update then costs the
changed rows, not a re-run of the join.

What maps, bottom up:

* a ``Scan`` or ``Cache`` leaf whose source is the old leaf's source, or
  its successor (a ``Cache`` source not yet materialized is carried
  first, from its own predecessor);
* ``Project``, one to one;
* ``Restrict``, a changed row whose new verdict equals its old one: the
  old execution's kept positions (``RestrictNode.positions``) give the
  old verdict and the output position;
* an equi-join the columnar kernel ran, over ``Scan``/``Cache`` children,
  a changed row whose join key is unchanged: the old execution's probe
  and build index arrays (``ColumnarHashJoinNode.positions``) give its
  output positions.

Anything else recomputes, as before: an insert or delete (no delta), a
changed key, a flipped verdict, another operator, or lineage capture on
(its mappings are recorded by executing).  The patched result is exactly
what a re-run would produce: the same rows in the same order, the same
column dtypes, and row identity wherever the re-run keeps it.
"""

from __future__ import annotations

import weakref
from typing import Any, Sequence

import numpy as np

from repro.dbms.columnar import BatchRows
from repro.dbms.plan import (
    CacheNode,
    ColumnarHashJoinNode,
    ColumnarProjectNode,
    ColumnarRestrictNode,
    HashJoinNode,
    LazyRowSet,
    NodeStats,
    PlanNode,
    ProjectNode,
    RestrictNode,
    ScanNode,
    ToColumnsNode,
    ToRowsNode,
)
from repro.dbms.tuples import Tuple
from repro.errors import TiogaError
from repro.obs.lineage import active_lineage

__all__ = ["carry"]

#: Operators a patch maps through, by their backend-independent kind.
_KINDS = {
    ScanNode: "scan",
    CacheNode: "cache",
    RestrictNode: "restrict",
    ColumnarRestrictNode: "restrict",
    ProjectNode: "project",
    ColumnarProjectNode: "project",
    HashJoinNode: "join",
    ColumnarHashJoinNode: "join",
}


class _Recompute(Exception):
    """The new result cannot be patched from the old one."""


# Changed output rows of one plan node: ascending positions, the old rows
# there (None when not known), and the new rows.
_Changes = tuple[list[int], "list[Tuple] | None", list[Tuple]]


def carry(lazy: LazyRowSet) -> int | None:
    """Materialize ``lazy`` by patching its predecessor's result.

    Returns the number of output rows patched (0 when the update reached
    none), or None when ``lazy`` must run its plan: it has no
    materialized predecessor, the plans differ, or a changed row does not
    map (see the module docstring).  On success ``lazy`` holds the
    patched rows, its ``delta`` names the predecessor and the patched
    positions, and its plan nodes carry the old execution's counters and
    index arrays, so EXPLAIN and the next update read as after a re-run.
    """
    previous = lazy.predecessor
    if previous is None:
        return None
    if (lazy.has_started or not previous.is_complete
            or active_lineage() is not None):
        lazy.predecessor = None
        return None
    sources: dict[int, Any] = {}
    try:
        changed, __, rows = _changes(lazy.plan, previous.plan, sources)
        positions = np.array(changed, dtype=np.intp)
        result, batch = _patched(previous, positions, rows, sources)
    except _Recompute:
        lazy.predecessor = None
        return None
    _copy_stats(lazy.plan, previous.plan)
    lazy.adopt(result)
    if batch is not None:
        lazy.column_batch = batch
    lazy.delta = (weakref.ref(previous), positions)
    lazy.cache_status = "patched"
    # The patched set keeps its predecessor (the viewer patches location
    # columns from it); the predecessor lets go of its own.
    previous.predecessor = None
    return len(positions)


def _logical(node: PlanNode) -> PlanNode:
    """The operator under the backend adapters."""
    while type(node) in (ToRowsNode, ToColumnsNode):
        node = node.children[0]
    return node


def _changes(new: PlanNode, old: PlanNode, sources: dict) -> _Changes:
    """The rows where ``new``'s output differs from ``old``'s last one."""
    new, old = _logical(new), _logical(old)
    kind = _KINDS.get(type(new))
    if kind is None or kind != _KINDS.get(type(old)):
        raise _Recompute
    if kind == "scan":
        if new._name != old._name:
            raise _Recompute
        return _source_changes(new._source, old._source)
    if kind == "cache":
        changes = _source_changes(new._source, old._source)
        sources[id(old._source.rows)] = new._source.rows
        return changes
    if kind == "restrict":
        return _restrict_changes(new, old, sources)
    if kind == "project":
        if new._names != old._names:
            raise _Recompute
        positions, olds, news = _changes(new.children[0], old.children[0],
                                         sources)
        names = new._names
        if olds is not None:
            olds = [row.project(names) for row in olds]
        return positions, olds, [row.project(names) for row in news]
    return _join_changes(new, old, sources)


def _source_changes(new: Any, old: Any) -> _Changes:
    """A leaf's changes: none for the same source, the recorded delta for
    its successor."""
    if new is old:
        return [], [], []
    if isinstance(new, LazyRowSet) and not new.is_materialized:
        if new.predecessor is not old or carry(new) is None:
            raise _Recompute
    delta = getattr(new, "delta", None)
    if delta is None or delta[0]() is not old:
        raise _Recompute
    positions = delta[1].tolist()
    return (positions, [old[pos] for pos in positions],
            [new[pos] for pos in positions])


def _restrict_changes(new: PlanNode, old: PlanNode, sources: dict) -> _Changes:
    kept = old.positions
    if kept is None or str(new.predicate) != str(old.predicate):
        raise _Recompute
    positions, olds, news = _changes(new.children[0], old.children[0],
                                     sources)
    out: list[int] = []
    out_old: list[Tuple] | None = [] if olds is not None else None
    out_new: list[Tuple] = []
    predicate = new.predicate
    for index, (position, row) in enumerate(zip(positions, news)):
        rank = int(np.searchsorted(kept, position))
        was = rank < len(kept) and kept[rank] == position
        try:
            now = bool(predicate.evaluate(row))
        except TiogaError:    # the re-run raises it where it belongs
            raise _Recompute from None
        if now != was:
            raise _Recompute
        if now:
            out.append(rank)
            out_new.append(row)
            if out_old is not None:
                out_old.append(olds[index])
    new.positions = kept
    return out, out_old, out_new


def _join_changes(new: PlanNode, old: PlanNode, sources: dict) -> _Changes:
    index = getattr(old, "positions", None)
    keys = (new._left_key, new._right_key)
    if index is None or keys != (old._left_key, old._right_key):
        raise _Recompute
    leaves = [_logical(child) for child in new.children]
    if any(type(leaf) not in (ScanNode, CacheNode) for leaf in leaves):
        raise _Recompute
    probe, build = index
    hits: set[int] = set()
    for side, key in enumerate(keys):
        positions, olds, news = _changes(new.children[side],
                                         old.children[side], sources)
        if not positions:
            continue
        if olds is None or not all(_same_value(before[key], after[key])
                                   for before, after in zip(olds, news)):
            raise _Recompute
        if side == 0:    # probe positions ascend: a range per changed row
            for position in positions:
                hits.update(range(
                    int(np.searchsorted(probe, position, side="left")),
                    int(np.searchsorted(probe, position, side="right"))))
        else:
            hits.update(np.isin(build, positions).nonzero()[0].tolist())
    new.positions = index
    out = sorted(hits)
    left, right = (leaf._source for leaf in leaves)
    schema = new.schema
    # Both halves hold validated values of the joined schema's fields.
    return out, None, [
        Tuple.trusted(schema, (*left[int(probe[j])].values,
                               *right[int(build[j])].values))
        for j in out]


def _same_value(a: Any, b: Any) -> bool:
    return a is b or (type(a) is type(b) and a == b)


def _patched(previous: LazyRowSet, positions: np.ndarray,
             rows: Sequence[Tuple], sources: dict):
    """The predecessor's result with ``rows`` at ``positions``, and the
    column batch to memoize with it (for a row-path result)."""
    result = previous.rows
    if isinstance(result, BatchRows):
        batch = result.batch
        origin = None
        if batch.origin is not None:
            origin = sources.get(id(batch.origin[0]))
            if origin is None:
                raise _Recompute
            if not len(positions) and origin is batch.origin[0]:
                return result, None
        elif not len(positions):
            return result, None
        patched = batch.patched(positions, rows, origin=origin)
        if patched is None:
            raise _Recompute
        return BatchRows(patched), None
    batch = previous.column_batch
    if not len(positions):
        return result, batch
    out = list(result)
    for position, row in zip(positions.tolist(), rows):
        out[position] = row
    if batch is not None and batch.schema == previous.schema:
        batch = batch.patched(positions, rows)
    else:
        batch = None
    return tuple(out), batch


def _copy_stats(new: PlanNode, old: PlanNode) -> None:
    """Give ``new``'s nodes the counters ``old``'s execution left, node
    for node while the two trees have the same shape.  A ``Cache`` node's
    upstream plan belongs to its source and is not entered."""
    if type(new) is not type(old) or len(new.children) != len(old.children):
        return
    new.stats = _stats_copy(old.stats)
    template = getattr(new, "template", None)
    old_template = getattr(old, "template", None)
    if template is not None and old_template is not None:
        template.stats = _stats_copy(old_template.stats)
    if type(new) is CacheNode:
        return
    for new_child, old_child in zip(new.children, old.children):
        _copy_stats(new_child, old_child)


def _stats_copy(stats: NodeStats) -> NodeStats:
    copy = NodeStats()
    for name in NodeStats.__slots__:
        setattr(copy, name, getattr(stats, name))
    copy.notes = list(stats.notes)
    return copy
