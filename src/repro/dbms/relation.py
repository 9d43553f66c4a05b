"""Stored tables, materialized row sets, and computed attributes ("methods").

The paper assumes an object-relational DBMS "in which a relation has stored
attributes as well as methods defining additional attributes" (Section 2).
Three classes realize that here:

* :class:`Table` — a named, mutable, versioned stored relation.  The version
  stamp advances on every mutation and drives cache invalidation in the
  dataflow engine and refresh after Section-8 updates.
* :class:`RowSet` — an immutable materialized relation, the currency of the
  relational algebra and of dataflow edges.
* :class:`MethodSet` — an ordered collection of computed attributes, each an
  expression over the base tuple (and earlier methods).  Location and display
  attributes "are computed attributes and are not stored in the database"
  (Section 2); a :class:`VirtualRow` computes them lazily, per tuple, with
  memoization.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Sequence,
)

import numpy as np

from repro.dbms import types as T
from repro.dbms.expr import Expr
from repro.dbms.tuples import Field, Schema, Tuple
from repro.errors import EvaluationError, SchemaError, TypeCheckError

if TYPE_CHECKING:  # pragma: no cover
    from repro.dbms.catalog import TableStats
    from repro.dbms.columnar import ColumnBatch

__all__ = [
    "Table",
    "RowSet",
    "Method",
    "MethodSet",
    "VirtualRow",
    "storage_epoch",
    "bump_storage_epoch",
    "table_epoch",
    "table_epochs",
    "bump_table_epoch",
    "definition_key",
]


# Process-wide storage epochs: monotone counters advanced by every stored-table
# mutation (including the Section-8 update dialogs, which land in
# ``Table.replace_row``).  The *global* epoch advances on any mutation; a
# *per-table* epoch advances only when that table mutates.  Cached plan
# results whose read set is known (every leaf is a named scan — see
# ``plan_read_set``) are keyed against the per-table epochs they read, so
# mutating one table no longer evicts every cached result; plans with
# anonymous leaves fall back to the global epoch.
_EPOCH_LOCK = threading.Lock()
_STORAGE_EPOCH = 0
_TABLE_EPOCHS: dict[str, int] = {}

# Process-unique table serials: a dropped and recreated table of the same
# name restarts its version at 0, so (name, version) alone does not name one
# table's contents.  ``next`` on a count is atomic under the GIL.
_TABLE_SERIALS = itertools.count(1)


def storage_epoch() -> int:
    """The current process-wide storage epoch."""
    return _STORAGE_EPOCH


def bump_storage_epoch() -> int:
    """Advance the storage epoch; returns the new value."""
    global _STORAGE_EPOCH
    with _EPOCH_LOCK:
        _STORAGE_EPOCH += 1
        return _STORAGE_EPOCH


def table_epoch(name: str) -> int:
    """The per-table epoch for ``name`` (0 if the table never mutated)."""
    return _TABLE_EPOCHS.get(name, 0)


def table_epochs(names: Iterable[str]) -> dict[str, int]:
    """A point-in-time epoch snapshot for a plan's read set."""
    epochs = _TABLE_EPOCHS
    return {name: epochs.get(name, 0) for name in names}


def bump_table_epoch(name: str) -> int:
    """Advance both the global epoch and ``name``'s epoch; returns the latter.

    Also publishes the new per-table value as a ``storage.epoch`` gauge so
    the dashboard can chart invalidation churn per table.
    """
    global _STORAGE_EPOCH
    with _EPOCH_LOCK:
        _STORAGE_EPOCH += 1
        epoch = _TABLE_EPOCHS.get(name, 0) + 1
        _TABLE_EPOCHS[name] = epoch
    # Lazy import: the metrics registry sits above the dbms layer in the
    # package graph, and importing it at module top would be circular.
    from repro.obs.metrics import global_registry

    global_registry().gauge(
        "storage.epoch", "per-table storage epoch (mutation count)"
    ).set(epoch, label=name)
    return epoch


class RowSet:
    """An immutable, materialized relation: a schema plus a tuple of rows.

    ``column_batch`` memoizes the rows' columnar conversion (a
    ``ColumnBatch``, set by the columnar backend's ``ToColumns`` adapter;
    None until first converted), so the batch lives exactly as long as the
    row set it was converted from.  A lazy row set forced late holds its
    result batch there from the start.  ``location_memo`` likewise holds the
    viewer's location columns (``repro.render.scene.location_columns``)
    and their sorted-x cull index, keyed by the location definitions; None
    until first rendered.
    ``stats_memo`` holds the rows' column statistics
    (``repro.dbms.catalog.stats_for``); None until first asked for.

    ``delta`` records that this row set is a successor: ``(ref,
    positions)``, a weak reference to the predecessor row set and the
    ascending positions where the two differ.  Both have the same length,
    and every other position holds an equal row (the same Tuple, for a
    table snapshot or a row-identity result).  Set by
    :meth:`Table.snapshot` after ``replace_row`` and by
    :func:`repro.dbms.delta.carry`; None otherwise.
    """

    __slots__ = ("_schema", "_rows", "column_batch", "location_memo",
                 "stats_memo", "delta", "__weakref__")

    def __init__(self, schema: Schema, rows: Iterable[Tuple] = ()):
        self._schema = schema
        materialized = tuple(rows)
        for row in materialized:
            if row.schema != schema:
                raise SchemaError(
                    f"row schema {row.schema!r} does not match row-set schema {schema!r}"
                )
        self._rows = materialized
        self.column_batch: ColumnBatch | None = None
        self.location_memo: dict | None = None
        self.stats_memo: TableStats | None = None
        self.delta: tuple[weakref.ref, np.ndarray] | None = None

    @classmethod
    def trusted(cls, schema: Schema, rows: Iterable[Tuple]) -> "RowSet":
        """A row set over rows already known to carry ``schema``, built
        without the per-row schema check."""
        row_set = cls(schema)
        row_set._rows = tuple(rows)
        return row_set

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def rows(self) -> Sequence[Tuple]:
        """The rows in order: a tuple, or for a lazy row set forced late a
        read-only sequence that builds each row on first access
        (:class:`~repro.dbms.columnar.BatchRows`)."""
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._rows)

    def __getitem__(self, index: int) -> Tuple:
        return self._rows[index]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RowSet)
            and self._schema == other._schema
            and self._rows == other._rows
        )

    def __repr__(self) -> str:
        return f"RowSet({self._schema!r}, {len(self._rows)} rows)"

    @classmethod
    def from_dicts(
        cls, schema: Schema, dicts: Iterable[Mapping[str, Any]]
    ) -> "RowSet":
        return cls(schema, (Tuple(schema, d) for d in dicts))


class Table:
    """A named, mutable stored relation with a monotone version stamp.

    A Section-8 update replaces one row, so the next :meth:`snapshot` need
    not re-convert the whole table to columns: while ``replace_row`` is the
    only mutation since the last snapshot, the table carries that
    snapshot's column batch, a weak reference to the snapshot itself, and
    the replaced positions.  The next snapshot starts from a patched copy
    of the batch that shares every column the replacements left alone,
    and records the predecessor and the positions as its ``delta``, so
    results computed from the old snapshot can be patched rather than
    recomputed (:mod:`repro.dbms.delta`).  The table never keeps an old
    snapshot alive.  Sessions
    on different server threads share tables, so mutations and snapshot
    builds hold one lock: a snapshot never pairs rows with a carried batch
    from another version.

    ``serial`` is unique per table object in the process; with ``version``
    it names one table's contents, even across a drop and re-create under
    the same name.
    """

    def __init__(self, name: str, schema: Schema):
        if not name:
            raise SchemaError("table name must be non-empty")
        self.name = name
        self.serial = next(_TABLE_SERIALS)
        self._schema = schema
        self._rows: list[Tuple] = []
        self._version = 0
        self._snapshot: RowSet | None = None
        # (batch or None, weak ref to the last snapshot, replaced positions)
        self._carry: tuple[ColumnBatch | None, weakref.ref, set[int]] | None
        self._carry = None
        self._lock = threading.RLock()

    def _bump(self, replaced: int | None = None) -> None:
        """Record a mutation; ``replaced`` is the position of the one row
        ``replace_row`` changed, None for any other mutation."""
        if replaced is None:
            self._carry = None
        else:
            if self._snapshot is not None:
                self._carry = (self._snapshot.column_batch,
                               weakref.ref(self._snapshot), set())
            if self._carry is not None:
                self._carry[2].add(replaced)
        self._version += 1
        self._snapshot = None
        bump_table_epoch(self.name)

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def version(self) -> int:
        """Monotone stamp; advances on every mutation."""
        return self._version

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._rows)

    def insert(self, values: Mapping[str, Any] | Sequence[Any]) -> Tuple:
        """Insert one row (dict or positional values); returns the new tuple."""
        row = Tuple(self._schema, values)
        with self._lock:
            self._rows.append(row)
            self._bump()
        return row

    def insert_many(self, rows: Iterable[Mapping[str, Any] | Sequence[Any]]) -> int:
        """Insert many rows in one version step; returns the count inserted."""
        staged = [Tuple(self._schema, values) for values in rows]
        if staged:
            with self._lock:
                self._rows.extend(staged)
                self._bump()
        return len(staged)

    def delete_where(self, predicate: Callable[[Tuple], bool]) -> int:
        """Delete rows matching ``predicate``; returns the count deleted."""
        with self._lock:
            kept = [row for row in self._rows if not predicate(row)]
            deleted = len(self._rows) - len(kept)
            if deleted:
                self._rows = kept
                self._bump()
        return deleted

    def update_where(
        self, predicate: Callable[[Tuple], bool], changes: Mapping[str, Any]
    ) -> int:
        """Replace fields on matching rows; returns the count updated."""
        updated = 0
        new_rows: list[Tuple] = []
        with self._lock:
            for row in self._rows:
                if predicate(row):
                    new_rows.append(row.replace(**changes))
                    updated += 1
                else:
                    new_rows.append(row)
            if updated:
                self._rows = new_rows
                self._bump()
        return updated

    def replace_row(self, old: Tuple, new: Tuple) -> bool:
        """Replace the first row equal to ``old`` with ``new`` (Section 8 update).

        Returns True when a row was replaced.  Every row carries the
        table's schema, so the schema half of ``Tuple.__eq__`` is checked
        once and the scan compares values only.
        """
        if new.schema != self._schema:
            raise SchemaError("replacement row does not match table schema")
        if old.schema != self._schema:
            return False
        values = old.values
        with self._lock:
            for pos, row in enumerate(self._rows):
                if row is old or row.values == values:
                    self._rows[pos] = new
                    self._bump(replaced=pos)
                    return True
        return False

    def clear(self) -> None:
        with self._lock:
            if self._rows:
                self._rows = []
                self._bump()

    def snapshot(self) -> RowSet:
        """An immutable row set of the current contents.

        The row set is memoized until the next mutation: repeated snapshots of
        an unchanged table return the *same* object, which lets plan
        fingerprints (``repro.dbms.result_cache``) recognize scans of the same
        stored data across independently built plans and engines.  Rows are
        not re-checked (each was checked on its way into the table), and a
        carried column batch is patched here, on first demand, rather than
        in ``replace_row``, so an update stays as cheap as the row it writes.
        """
        snapshot = self._snapshot
        if snapshot is not None:
            return snapshot
        with self._lock:
            if self._snapshot is None:
                snapshot = RowSet.trusted(self._schema, self._rows)
                if self._carry is not None:
                    batch, previous, replaced = self._carry
                    positions = np.array(sorted(replaced), dtype=np.intp)
                    if batch is not None:
                        rows = snapshot.rows
                        snapshot.column_batch = batch.patched(
                            positions, [rows[pos] for pos in positions])
                    snapshot.delta = (previous, positions)
                    self._carry = None
                self._snapshot = snapshot
            return self._snapshot

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self._rows)} rows, v{self._version})"


def definition_key(methods: "MethodSet") -> tuple:
    """A hashable key naming a method set's definitions: each method's
    name, type and expression (or Python callable), the expression by
    identity.

    Attribute boxes parse a definition once per box version and reference
    schema (:mod:`repro.dataflow.boxes_attr`), so a box that re-fires
    after a table update hands the same expressions on and the key stays
    equal, although every ``Method`` object is new.  Memos keyed by it
    (location columns, compiled displays) hold the expressions, so an id
    is never reused while its entry lives.
    """
    return tuple(
        (method.name, method.type,
         method.expr if method.expr is not None else method._callable)
        for method in methods
    )


class Method:
    """A computed attribute: a name, a declared type, and a defining expression.

    The expression may reference stored fields and previously defined methods.
    A plain Python callable is also accepted for big-programmer methods that
    outgrow the query language; its referenced fields must then be declared.
    """

    __slots__ = ("name", "type", "expr", "_callable", "_depends")

    def __init__(
        self,
        name: str,
        atomic: T.AtomicType | str,
        definition: Expr | Callable[[Mapping[str, Any]], Any],
        depends: Iterable[str] = (),
    ):
        self.name = name
        self.type = T.type_by_name(atomic) if isinstance(atomic, str) else atomic
        if isinstance(definition, Expr):
            self.expr: Expr | None = definition
            self._callable = None
            self._depends = frozenset(definition.fields_used())
        else:
            self.expr = None
            self._callable = definition
            self._depends = frozenset(depends)

    @property
    def depends(self) -> frozenset[str]:
        return self._depends

    def check(self, schema: Schema) -> None:
        """Type-check the definition against the (extended) schema."""
        if self.expr is not None:
            inferred = self.expr.infer(schema)
            compatible = inferred is self.type or (
                T.numeric(inferred) and T.numeric(self.type)
            )
            if not compatible:
                raise TypeCheckError(
                    f"method {self.name!r} is declared {self.type} but its "
                    f"definition has type {inferred}"
                )
        else:
            for dep in self._depends:
                if dep not in schema:
                    raise SchemaError(
                        f"method {self.name!r} declares dependency on unknown "
                        f"field {dep!r}"
                    )

    def compute(self, row: Mapping[str, Any]) -> Any:
        if self.expr is not None:
            value = self.expr.evaluate(row)
        else:
            assert self._callable is not None
            value = self._callable(row)
        try:
            return self.type.coerce(value)
        except TypeCheckError as exc:
            raise EvaluationError(
                f"method {self.name!r} produced a value of the wrong type: {exc}"
            ) from exc

    def __repr__(self) -> str:
        body = str(self.expr) if self.expr is not None else "<python>"
        return f"Method({self.name!r}: {self.type.name} = {body})"


class MethodSet:
    """An ordered, dependency-checked collection of computed attributes.

    ``ambient`` declares extra fields (name → type) that are not part of any
    tuple but are injected by the runtime when a row view is built — e.g.
    ``tioga_seq``, the tuple sequence number used by the default display's
    y-location (§5.2).  Method definitions may reference ambient fields.
    """

    def __init__(
        self,
        base_schema: Schema,
        methods: Iterable[Method] = (),
        ambient: Mapping[str, T.AtomicType] | None = None,
    ):
        self._base_schema = base_schema
        self._ambient: dict[str, T.AtomicType] = dict(ambient or {})
        self._methods: dict[str, Method] = {}
        self._extended = base_schema
        for method in methods:
            self.add(method)

    @property
    def ambient(self) -> dict[str, T.AtomicType]:
        return dict(self._ambient)

    def _check_schema(self) -> Schema:
        """The schema method definitions are checked against (incl. ambient)."""
        schema = self._extended
        for name, atomic in self._ambient.items():
            if name not in schema:
                schema = schema.extend(Field(name, atomic))
        return schema

    def reference_schema(self) -> Schema:
        """The schema visible to new method definitions: stored fields,
        computed attributes, and ambient fields such as ``tioga_seq``."""
        return self._check_schema()

    @property
    def base_schema(self) -> Schema:
        return self._base_schema

    @property
    def extended_schema(self) -> Schema:
        """Base schema plus one field per method, in definition order."""
        return self._extended

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._methods)

    def __contains__(self, name: object) -> bool:
        return name in self._methods

    def __iter__(self) -> Iterator[Method]:
        return iter(self._methods.values())

    def __len__(self) -> int:
        return len(self._methods)

    def get(self, name: str) -> Method:
        try:
            return self._methods[name]
        except KeyError as exc:
            raise SchemaError(f"no method {name!r}") from exc

    def add(self, method: Method) -> None:
        """Append a method; it may reference stored fields and earlier methods."""
        if method.name in self._extended or method.name in self._ambient:
            raise SchemaError(
                f"attribute {method.name!r} already exists (stored or computed)"
            )
        method.check(self._check_schema())
        self._methods[method.name] = method
        self._extended = self._extended.extend(Field(method.name, method.type))

    def replace(self, method: Method) -> None:
        """Redefine an existing method in place (Set Attribute, §5.3).

        The new definition is checked against the schema visible at the
        method's original position, and all later methods are re-checked so a
        type change cannot silently break downstream definitions.
        """
        if method.name not in self._methods:
            raise SchemaError(f"no method {method.name!r} to replace")
        rebuilt = MethodSet(self._base_schema, ambient=self._ambient)
        for existing in self._methods.values():
            rebuilt.add(method if existing.name == method.name else existing)
        self._methods = rebuilt._methods
        self._extended = rebuilt._extended

    def remove(self, name: str) -> None:
        """Remove a method; fails if a later method depends on it."""
        if name not in self._methods:
            raise SchemaError(f"no method {name!r} to remove")
        rebuilt = MethodSet(self._base_schema, ambient=self._ambient)
        for existing in self._methods.values():
            if existing.name == name:
                continue
            try:
                rebuilt.add(existing)
            except (SchemaError, TypeCheckError) as exc:
                raise SchemaError(
                    f"cannot remove {name!r}: method {existing.name!r} depends on it"
                ) from exc
        self._methods = rebuilt._methods
        self._extended = rebuilt._extended

    def copy(self) -> "MethodSet":
        clone = MethodSet(self._base_schema, ambient=self._ambient)
        clone._methods = dict(self._methods)
        clone._extended = self._extended
        return clone

    def rebase(self, base_schema: Schema) -> "MethodSet":
        """Re-check all methods against a new base schema (used after Project
        or Join change the stored fields flowing into a displayable)."""
        rebuilt = MethodSet(base_schema, ambient=self._ambient)
        for existing in self._methods.values():
            rebuilt.add(existing)
        return rebuilt

    def row_view(
        self, row: Tuple, extra: Mapping[str, Any] | None = None
    ) -> "VirtualRow":
        """A lazy mapping over stored fields and computed attributes of ``row``.

        ``extra`` supplies values for ambient fields (e.g. ``tioga_seq``).
        """
        return VirtualRow(row, self, extra)

    def __repr__(self) -> str:
        return f"MethodSet({', '.join(self._methods)})"


class VirtualRow:
    """Mapping view of one tuple extended with lazily computed methods.

    Actually computing attribute values "should be avoided except where
    necessary" (§5.1) — values are computed on first access and memoized.
    """

    __slots__ = ("_row", "_methods", "_cache", "_computing", "_extra")

    def __init__(
        self, row: Tuple, methods: MethodSet, extra: Mapping[str, Any] | None = None
    ):
        self._row = row
        self._methods = methods
        self._cache: dict[str, Any] = {}
        self._computing: set[str] = set()
        self._extra = dict(extra or {})

    @property
    def base(self) -> Tuple:
        return self._row

    def __getitem__(self, name: str) -> Any:
        if name in self._row.schema:
            return self._row[name]
        if name in self._cache:
            return self._cache[name]
        if name in self._extra:
            return self._extra[name]
        if name not in self._methods:
            raise KeyError(name)
        if name in self._computing:
            raise EvaluationError(
                f"cyclic dependency while computing attribute {name!r}"
            )
        self._computing.add(name)
        try:
            value = self._methods.get(name).compute(self)
        finally:
            self._computing.discard(name)
        self._cache[name] = value
        return value

    def get(self, name: str, default: Any = None) -> Any:
        try:
            return self[name]
        except KeyError:
            return default

    def keys(self) -> tuple[str, ...]:
        return self._methods.extended_schema.names

    def as_dict(self) -> dict[str, Any]:
        """Force all attributes and return a plain dict."""
        return {name: self[name] for name in self.keys()}

    def __contains__(self, name: object) -> bool:
        if not isinstance(name, str):
            return False
        return name in self._methods.extended_schema or name in self._extra

    def __repr__(self) -> str:
        return f"VirtualRow({self._row!r}, +{len(self._methods)} methods)"
