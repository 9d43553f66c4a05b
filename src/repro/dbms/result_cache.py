"""A process-wide cache of materialized plan results.

§6's pan/zoom/slider loop re-runs the same queries on every gesture, so
reusing results is what makes repeated viewer renders cheap.
:class:`ResultCache` memoizes materialized plan results process-wide, keyed
by a structural plan fingerprint plus a storage-epoch stamp
(:mod:`repro.dbms.relation`, bumped by every stored-table mutation including
the Section-8 update dialogs).  Slaved viewers and repeated renders of
overlapping extents reuse fragments instead of re-running subplans.  When
the plan's read set is known (:func:`plan_read_set`) the stamp is a
per-table epoch snapshot, so mutating one table only invalidates the
entries that actually read it; otherwise the global epoch invalidates on
any update.

Fingerprints identify leaves by source-object identity.  That is sound
because cache entries *pin* strong references to their sources (no id
reuse while the entry lives), and productive because ``Table.snapshot()``
memoizes per version, so independent plans over the same stored table
share one leaf object.

The cache is off unless enabled — per engine with ``Engine(cache=True)``,
or process-wide with :func:`set_cache_enabled` (the server turns it on for
its lifetime).  :func:`execute_cached` is the one probe → epoch snapshot →
execute → store sequence engine demands run through.  (The renderer's
culls do not use it: they are a mask over location columns memoized on the
row set, see :func:`repro.render.scene.location_columns`.)
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Sequence

from repro.dbms.columnar import BatchRows
from repro.dbms.plan import (
    CacheNode,
    ColumnarDistinctNode,
    ColumnarGroupByNode,
    ColumnarHashJoinNode,
    ColumnarLimitNode,
    ColumnarOrderByNode,
    ColumnarProjectNode,
    ColumnarRenameNode,
    ColumnarRestrictNode,
    CrossProductNode,
    DistinctNode,
    GroupByNode,
    HashJoinNode,
    LimitNode,
    NestedLoopJoinNode,
    OrderByNode,
    PlanNode,
    ProjectNode,
    RenameNode,
    RestrictNode,
    SampleNode,
    ScanNode,
    ThetaJoinNode,
    ToColumnsNode,
    ToRowsNode,
    UnionNode,
)
from repro.dbms.relation import storage_epoch, table_epoch, table_epochs
from repro.dbms.tuples import Tuple
from repro.obs.metrics import global_registry

__all__ = [
    "cache_enabled",
    "set_cache_enabled",
    "plan_fingerprint",
    "plan_read_set",
    "ResultCache",
    "result_cache",
    "execute_cached",
]


_CACHE_ENABLED = False


def cache_enabled() -> bool:
    """The process-wide default for ``Engine(cache=None)`` and cull plans."""
    return _CACHE_ENABLED


def set_cache_enabled(enabled: bool) -> bool:
    """Install the process-wide default; returns the previous value.

    Turning the cache off also empties it: its entries pin the table
    snapshots they were computed from (a stopped server's, say), which
    would otherwise stay alive until newer entries evicted them.
    """
    global _CACHE_ENABLED
    previous = _CACHE_ENABLED
    _CACHE_ENABLED = bool(enabled)
    if previous and not _CACHE_ENABLED:
        result_cache().clear()
    return previous


# ---------------------------------------------------------------------------
# Plan fingerprints
# ---------------------------------------------------------------------------


class _Unfingerprintable(Exception):
    """The plan's result is not a pure function of cacheable state."""


def plan_fingerprint(node: PlanNode) -> tuple[tuple, tuple] | None:
    """A structural key identifying this plan's result, or None.

    Returns ``(key, pins)`` where ``pins`` are the leaf source objects the
    key refers to by identity — a cache entry must hold them strongly so the
    ids cannot be reused while the entry lives.  Returns None for plans
    whose output is not reproducible (an unseeded Sample) or that contain
    operators this module does not know to be pure.
    """
    pins: list[Any] = []
    try:
        key = _fingerprint(node, pins)
    except _Unfingerprintable:
        return None
    return key, tuple(pins)


def _fingerprint(node: PlanNode, pins: list[Any]) -> tuple:
    if isinstance(node, (ToColumnsNode, ToRowsNode)):
        # Adapters change representation, never content.
        return _fingerprint(node.children[0], pins)
    # Columnar kernels produce the same rows as their serial siblings, so
    # they share the serial tags — cache keys are backend-independent and
    # a result computed on either backend serves both.
    if isinstance(node, ColumnarRestrictNode):
        return ("restrict", str(node.predicate),
                _fingerprint(node.children[0], pins))
    if isinstance(node, ColumnarProjectNode):
        return ("project", tuple(node._names),
                _fingerprint(node.children[0], pins))
    if isinstance(node, ColumnarRenameNode):
        return ("rename", node.mapping, _fingerprint(node.children[0], pins))
    if isinstance(node, ColumnarLimitNode):
        return ("limit", node._count, _fingerprint(node.children[0], pins))
    if isinstance(node, ColumnarOrderByNode):
        return ("orderby", tuple(node._names), node._descending,
                _fingerprint(node.children[0], pins))
    if isinstance(node, ColumnarDistinctNode):
        return ("distinct", _fingerprint(node.children[0], pins))
    if isinstance(node, ColumnarGroupByNode):
        return ("groupby", tuple(node._keys), tuple(node._aggregations),
                _fingerprint(node.children[0], pins))
    if isinstance(node, ColumnarHashJoinNode):
        return ("equijoin", node._left_key, node._right_key,
                _fingerprint(node.children[0], pins),
                _fingerprint(node.children[1], pins))
    if isinstance(node, ScanNode):
        pins.append(node._source)
        return ("scan", id(node._source))
    if isinstance(node, CacheNode):
        # A LazyRowSet's value is a pure function of its plan, which bottoms
        # out at immutable snapshot RowSets — so fingerprint *through* the
        # memoization boundary.  Two engines layering identical box pipelines
        # over the same table snapshot then produce the same key, which is
        # what lets slaved viewers share one materialization.
        return ("lazy", _fingerprint(node._source.plan, pins))
    if isinstance(node, RestrictNode):
        return ("restrict", str(node.predicate),
                _fingerprint(node.children[0], pins))
    if isinstance(node, ProjectNode):
        return ("project", tuple(node._names),
                _fingerprint(node.children[0], pins))
    if isinstance(node, RenameNode):
        return ("rename", node.mapping, _fingerprint(node.children[0], pins))
    if isinstance(node, SampleNode):
        if node._seed is None:
            raise _Unfingerprintable("unseeded sample")
        return ("sample", node._probability, node._seed,
                _fingerprint(node.children[0], pins))
    if isinstance(node, LimitNode):
        return ("limit", node._count, _fingerprint(node.children[0], pins))
    if isinstance(node, OrderByNode):
        return ("orderby", tuple(node._names), node._descending,
                _fingerprint(node.children[0], pins))
    if isinstance(node, DistinctNode):
        return ("distinct", _fingerprint(node.children[0], pins))
    if isinstance(node, GroupByNode):
        return ("groupby", tuple(node._keys), tuple(node._aggregations),
                _fingerprint(node.children[0], pins))
    if isinstance(node, UnionNode):
        return ("union", _fingerprint(node.children[0], pins),
                _fingerprint(node.children[1], pins))
    if isinstance(node, CrossProductNode):
        return ("cross", _fingerprint(node.children[0], pins),
                _fingerprint(node.children[1], pins))
    if isinstance(node, (HashJoinNode, NestedLoopJoinNode)):
        # Both equi-join strategies emit the same rows in the same order.
        return ("equijoin", node._left_key, node._right_key,
                _fingerprint(node.children[0], pins),
                _fingerprint(node.children[1], pins))
    if isinstance(node, ThetaJoinNode):
        return ("thetajoin", node._source,
                _fingerprint(node.children[0], pins),
                _fingerprint(node.children[1], pins))
    raise _Unfingerprintable(type(node).__name__)


def plan_read_set(node: PlanNode) -> frozenset[str] | None:
    """The named stored tables this plan reads, or None if unknowable.

    Walks the plan the same way :func:`plan_fingerprint` does: through
    :class:`CacheNode` memoization boundaries down to the scan leaves.
    Every leaf must be a *named* scan for the read set to be known — an
    anonymous leaf (or a custom node with no children) returns None, and
    callers fall back to the global storage epoch.
    """
    names: set[str] = set()
    if _read_set(node, names):
        return frozenset(names)
    return None


def _read_set(node: PlanNode, names: set[str]) -> bool:
    if isinstance(node, ScanNode):
        if node._name is None:
            return False
        names.add(node._name)
        return True
    if isinstance(node, CacheNode):
        return _read_set(node._source.plan, names)
    if not node.children:
        return False
    return all(_read_set(child, names) for child in node.children)


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------


def _epoch_fresh(epoch: int | dict[str, int]) -> bool:
    """Is a cache entry computed at ``epoch`` still current?

    An int is a global-epoch stamp (legacy / unknown read set); a dict maps
    table name -> per-table epoch at computation time and stays fresh as
    long as none of *those* tables mutated.
    """
    if isinstance(epoch, dict):
        return all(table_epoch(name) == value
                   for name, value in epoch.items())
    return epoch == storage_epoch()


class ResultCache:
    """Process-wide LRU of materialized plan results.

    A result is a tuple of rows or, for a late-forced columnar plan, the
    :class:`BatchRows` over its column batch (see ``docs/RESULT_CACHE.md``).

    Keys are ``(plan fingerprint, storage epoch)``-equivalent: the epoch
    stamp a result was computed at is stored with the entry, and a lookup
    only hits while that stamp is fresh (:func:`_epoch_fresh`).  A stamp is
    either the global storage epoch — any mutation anywhere invalidates —
    or, when the caller derived the plan's read set
    (:func:`plan_read_set`), a per-table epoch snapshot, so only mutations
    of the tables the plan actually read invalidate the entry.  Stale
    entries can never be served: a lookup evicts the one it touches, and
    the first store after any mutation sweeps out the rest, so the results
    a mutation obsoleted do not sit in memory until LRU order reaches them.
    Entries pin their leaf source objects (see :func:`plan_fingerprint`)
    and may carry opaque ``meta`` for the caller.
    """

    def __init__(self, max_entries: int = 256, max_rows: int = 500_000):
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        self.max_entries = max_entries
        self.max_rows = max_rows
        #: Storage epoch of the last stale sweep (see :meth:`store`).
        self._swept_epoch = storage_epoch()
        registry = global_registry()
        self._hits = registry.counter(
            "cache.hit", "result-cache lookups served from memory")
        self._misses = registry.counter(
            "cache.miss", "result-cache lookups that ran the plan")
        self._evictions = registry.counter(
            "cache.evict", "result-cache entries dropped (LRU or stale)")

    def lookup(self, key: tuple) -> tuple[Sequence[Tuple], Any] | None:
        """Return ``(rows, meta)`` on a fresh hit, else None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                rows, meta, _pins, epoch = entry
                if _epoch_fresh(epoch):
                    self._entries.move_to_end(key)
                    self._hits.inc()
                    return rows, meta
                del self._entries[key]
                self._evictions.inc()
            self._misses.inc()
            return None

    def store(
        self,
        key: tuple,
        rows: Sequence[Tuple],
        pins: tuple,
        epoch: int | dict[str, int],
        meta: Any = None,
    ) -> bool:
        """Insert a result computed at ``epoch``; refuses stale results.

        ``epoch`` must be the epoch stamp read *before* the plan ran — the
        global epoch, or a :func:`repro.dbms.relation.table_epochs`
        snapshot of the plan's read set.  If a relevant mutation landed
        mid-execution the rows reflect a snapshot no longer current and
        must not be cached.  A :class:`BatchRows` result is stored as it
        is, so every session it serves shares its batch and the tuples it
        has built; any other sequence is stored as a tuple.
        """
        if not _epoch_fresh(epoch):
            return False
        if len(rows) > self.max_rows:
            return False
        with self._lock:
            current = storage_epoch()
            if current != self._swept_epoch:
                self._swept_epoch = current
                stale = [old for old, entry in self._entries.items()
                         if not _epoch_fresh(entry[3])]
                for old in stale:
                    del self._entries[old]
                self._evictions.inc(len(stale))
            if not isinstance(rows, BatchRows):
                rows = tuple(rows)
            self._entries[key] = (rows, meta, pins, epoch)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions.inc()
        return True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, int | float]:
        return {
            "entries": len(self._entries),
            "hits": self._hits.total(),
            "misses": self._misses.total(),
            "evictions": self._evictions.total(),
        }


_RESULT_CACHE: ResultCache | None = None
_RESULT_CACHE_LOCK = threading.Lock()


def result_cache() -> ResultCache:
    """The process-wide result cache (created on first use)."""
    global _RESULT_CACHE
    if _RESULT_CACHE is None:
        with _RESULT_CACHE_LOCK:
            if _RESULT_CACHE is None:
                _RESULT_CACHE = ResultCache()
    return _RESULT_CACHE


def execute_cached(
    plan: PlanNode,
    execute: Callable[[], Sequence[Tuple]],
) -> tuple[Sequence[Tuple], str | None]:
    """Run ``execute`` for ``plan`` through the result cache.

    Returns ``(rows, status)``: status is ``"hit"`` when the rows came from
    the cache (``execute`` never ran), ``"miss"`` when they were computed
    and published, and None when the plan has no fingerprint.  The epoch
    stamp is read *before* ``execute`` runs, so a concurrent update can
    never be masked by a stale entry.
    """
    fingerprint = plan_fingerprint(plan)
    if fingerprint is None:
        return execute(), None
    key, pins = fingerprint
    cache = result_cache()
    cached = cache.lookup(key)
    if cached is not None:
        return cached[0], "hit"
    tables = plan_read_set(plan)
    epoch = table_epochs(tables) if tables is not None else storage_epoch()
    rows = execute()
    cache.store(key, rows, pins, epoch)
    return rows, "miss"
