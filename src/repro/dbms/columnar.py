"""Columnar batch representation for the vectorized execution backend.

A :class:`ColumnBatch` holds one numpy array per schema field plus a
validity mask.  Primitive types map to fixed-width dtypes (INT ``int64``,
FLOAT ``float64``, BOOL ``bool_``); TEXT, DATE, and DRAWABLES columns — and
any numeric column whose values overflow the fixed-width dtype — fall back
to ``object`` dtype, where numpy applies the Python operators elementwise,
so semantics never change, only speed.

The type system has no NULL: every :class:`~repro.dbms.tuples.Tuple` value
is coerced and validated at construction, so the validity mask is all-true
in practice.  It is kept (and propagated through every kernel) so the batch
format already carries the slot a nullable type extension would need.

Row identity: a batch built from existing tuples keeps references to the
original :class:`Tuple` objects; selection-only kernels (Restrict, Limit,
Distinct, OrderBy) carry them through, so converting back to rows returns
the *same* objects the serial backend would have produced — not equal
copies.  Schema-changing kernels (Project, Rename, GroupBy, Join) drop the
originals; their rows are built from the columns via
:meth:`Tuple.trusted` — except under lineage capture
(``repro.obs.lineage``), where those kernels materialize their output rows
once, re-attach them to the outgoing batch, and record output-row →
input-row mappings, so backward walks compose by identity across the whole
columnar pipeline.

Late materialization: a demanded columnar result stays one batch, and
:class:`BatchRows` is its row sequence.  Each Tuple is built on first
access and memoized, so the viewer builds tuples only for the rows it
paints, and indexing the same position always returns the same object.

There is no backend knob: the plan optimizer
(:func:`repro.dbms.plan_rewrite.columnarize_plan`) moves each worthwhile
subtree onto the vectorized kernels.  See ``docs/COLUMNAR.md``.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence as SequenceABC
from typing import Iterator, Sequence

import numpy as np

from repro.dbms import types as T
from repro.dbms.tuples import Schema, Tuple

__all__ = [
    "BatchRows",
    "ColumnBatch",
    "DEFAULT_BATCH_ROWS",
    "NUMPY_DTYPES",
    "field_column",
]

#: Fixed-width dtypes for the primitive atomic types; anything absent here
#: (TEXT, DATE, DRAWABLES) is stored at ``object`` dtype.
NUMPY_DTYPES = {T.INT: np.int64, T.FLOAT: np.float64, T.BOOL: np.bool_}


def _object_array(values: Sequence) -> np.ndarray:
    """An object-dtype array holding ``values`` as-is.

    Built by explicit assignment: numpy's sequence sniffing must never get
    a chance to flatten list-valued cells (DRAWABLES) into subarrays.
    """
    arr = np.empty(len(values), dtype=object)
    for index, value in enumerate(values):
        arr[index] = value
    return arr


def field_column(schema: Schema, rows: Sequence[Tuple], name: str) -> np.ndarray:
    """Field ``name`` of ``rows`` as the array :meth:`ColumnBatch.from_rows`
    stores for it (same values, same dtype)."""
    pos = schema.position(name)
    return _column_array([row.values[pos] for row in rows],
                         schema.type_of(name))


def _column_array(values: Sequence, atomic) -> np.ndarray:
    dtype = NUMPY_DTYPES.get(atomic)
    if dtype is not None:
        try:
            return np.array(values, dtype=dtype)
        except (OverflowError, ValueError, TypeError):
            pass    # e.g. an int beyond int64 — keep exact Python objects
    return _object_array(values)


class ColumnBatch:
    """One batch of rows in columnar form: an array per field plus a mask.

    Row identity travels in ``rows``, an object array of the original
    Tuples, or in ``origin``, a :class:`BatchRows` plus one position in it
    per row: the rows of a late-forced result, built only if asked for.
    At most one of the two is set; selections carry either along.
    """

    __slots__ = ("schema", "_columns", "mask", "rows", "origin", "_length")

    def __init__(self, schema: Schema, columns: dict[str, np.ndarray],
                 mask: np.ndarray | None = None,
                 rows: np.ndarray | None = None,
                 origin: tuple[BatchRows, np.ndarray] | None = None):
        self.schema = schema
        self._columns = columns
        if columns:
            self._length = len(next(iter(columns.values())))
        else:    # no columns: the mask, if any, carries the row count
            self._length = len(mask) if mask is not None else 0
        self.mask = (mask if mask is not None
                     else np.ones(self._length, dtype=bool))
        self.rows = rows    # object array of the original Tuples, or None
        self.origin = origin

    def __len__(self) -> int:
        return self._length

    def __repr__(self) -> str:
        return (f"ColumnBatch({self._length} rows x "
                f"{len(self.schema)} columns)")

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rows(cls, schema: Schema, rows: Sequence[Tuple],
                  keep_rows: bool = True) -> "ColumnBatch":
        """Convert materialized tuples to columns.

        ``keep_rows`` pins the original Tuple objects so a later
        :meth:`to_rows` returns them by identity.
        """
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)
        columns = {name: field_column(schema, rows, name)
                   for name in schema.names}
        row_arr = _object_array(rows) if keep_rows else None
        return cls(schema, columns, rows=row_arr)

    def patched(self, positions: np.ndarray, rows: Sequence[Tuple],
                origin: "BatchRows | None" = None) -> "ColumnBatch | None":
        """This batch with the row at each of ``positions`` (ascending,
        distinct) replaced by the matching element of ``rows``.

        Equals ``from_rows`` over the patched rows in values, dtypes and
        row identity, and shares every column whose cells at ``positions``
        already hold the new values (bit for bit, or the same objects),
        so a patch costs the columns it changes.  A batch whose row
        identity travels in ``origin`` keeps its origin positions over the
        ``origin`` sequence given (the successor of its old source, with
        the same length).  Returns None where ``from_rows`` would choose a
        different dtype: a new int beyond int64, or an int column already
        at ``object`` dtype, which a replacement may bring back in range.
        """
        columns: dict[str, np.ndarray] = {}
        for pos, field in enumerate(self.schema.fields):
            column = self._columns[field.name]
            values = [row.values[pos] for row in rows]
            dtype = NUMPY_DTYPES.get(field.type)
            if dtype is not None:
                if column.dtype != dtype:
                    return None
                try:
                    new = np.array(values, dtype=dtype)
                except (OverflowError, ValueError, TypeError):
                    return None
                if column[positions].tobytes() != new.tobytes():
                    column = column.copy()
                    column[positions] = new
            elif any(old is not value for old, value
                     in zip(column[positions].tolist(), values)):
                column = column.copy()
                for index, value in zip(positions.tolist(), values):
                    column[index] = value    # one cell each: no sniffing
            columns[field.name] = column
        identity = self.rows
        if identity is not None and len(positions):
            identity = identity.copy()
            for index, row in zip(positions.tolist(), rows):
                identity[index] = row
        carried = None
        if self.origin is not None:
            if origin is None:
                return None
            carried = (origin, self.origin[1])
        return ColumnBatch(self.schema, columns, mask=self.mask,
                           rows=identity, origin=carried)

    @classmethod
    def concat(cls, batches: Sequence["ColumnBatch"]) -> "ColumnBatch":
        """Concatenate same-schema batches into one (a pipeline breaker)."""
        if len(batches) == 1:
            return batches[0]
        schema = batches[0].schema
        columns = {
            name: np.concatenate([b._columns[name] for b in batches])
            for name in schema.names
        }
        mask = np.concatenate([b.mask for b in batches])
        rows = origin = None
        first = batches[0].origin
        source = first[0] if first is not None else None
        if all(b.rows is not None for b in batches):
            rows = np.concatenate([b.rows for b in batches])
        elif source is not None and all(
                b.origin is not None and b.origin[0] is source
                for b in batches):
            origin = (source, np.concatenate([b.origin[1] for b in batches]))
        return cls(schema, columns, mask=mask, rows=rows, origin=origin)

    # -- access -------------------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        return self._columns[name]

    def arrays(self) -> list[np.ndarray]:
        """The column arrays in schema order."""
        return [self._columns[name] for name in self.schema.names]

    def to_rows(self) -> Sequence[Tuple]:
        """Back to row form.

        Returns the original Tuple objects when the batch still carries
        them, or its origin's tuples; otherwise rebuilds tuples via the
        trusted constructor — every value came out of a validated tuple
        (``.tolist()`` converts numpy scalars back to the native Python
        types the serial backend holds), so re-coercion would only burn
        time.
        """
        if self.rows is not None:
            return self.rows
        if self.origin is not None:
            source, positions = self.origin
            return source.rows_at(positions.tolist())
        return _build_rows(self.schema, self.arrays(), len(self))

    # -- selection (keeps row identity) -------------------------------------

    def _select(self, selector) -> "ColumnBatch":
        columns = {name: arr[selector] for name, arr in self._columns.items()}
        rows = self.rows[selector] if self.rows is not None else None
        origin = self.origin
        if origin is not None:
            origin = (origin[0], origin[1][selector])
        return ColumnBatch(self.schema, columns, mask=self.mask[selector],
                           rows=rows, origin=origin)

    def take(self, indices: np.ndarray) -> "ColumnBatch":
        """Rows at ``indices``, in that order."""
        return self._select(indices)

    def take_mask(self, keep: np.ndarray) -> "ColumnBatch":
        """Rows where ``keep`` is true, in input order."""
        return self._select(keep)

    def slice(self, start: int, stop: int) -> "ColumnBatch":
        return self._select(slice(start, stop))

    # -- schema changes (drop row identity) ----------------------------------

    def project(self, names: Sequence[str]) -> "ColumnBatch":
        schema = self.schema.project(names)
        columns = {name: self._columns[name] for name in names}
        return ColumnBatch(schema, columns, mask=self.mask)

    def rename(self, old: str, new: str) -> "ColumnBatch":
        schema = self.schema.rename(old, new)
        columns = {(new if name == old else name): arr
                   for name, arr in self._columns.items()}
        return ColumnBatch(schema, columns, mask=self.mask)


def _build_rows(schema: Schema, arrays: Sequence[np.ndarray],
                count: int) -> list[Tuple]:
    """Tuples over the values of ``arrays`` (one per field, ``count``
    long), built by the trusted constructor."""
    trusted = Tuple.trusted
    if not arrays:
        return [trusted(schema, ()) for __ in range(count)]
    if len(arrays) == 1:
        return [trusted(schema, (value,)) for value in arrays[0].tolist()]
    lists = [array.tolist() for array in arrays]
    return [trusted(schema, values) for values in zip(*lists)]


class BatchRows(SequenceABC):
    """The rows of one :class:`ColumnBatch` as a read-only sequence.

    A row's Tuple is built on first access and memoized, so indexing a
    position returns the same object every time, from any thread.  A batch
    that still carries its original rows (selection-only kernels, lineage
    capture) hands them back by identity, and one with an ``origin`` hands
    back its origin's tuples.  :meth:`rows_at` builds the missing tuples
    among a set of positions in one pass, as :meth:`ColumnBatch.to_rows`
    would; indexing and iteration go through it.  Compares equal to any
    tuple or list of equal rows.
    """

    __slots__ = ("batch", "_memo", "_missing", "_lock")

    def __init__(self, batch: ColumnBatch):
        self.batch = batch
        if batch.rows is not None:
            self._memo: list[Tuple | None] = batch.rows.tolist()
            self._missing = 0
        else:
            self._memo = [None] * len(batch)
            self._missing = len(batch)
        self._lock = threading.Lock()

    def as_batch(self) -> ColumnBatch:
        """The batch, for a downstream kernel: its selections' rows are
        this sequence's tuples, as they would be on the row path."""
        batch = self.batch
        if batch.rows is not None or batch.origin is not None:
            return batch
        return ColumnBatch(batch.schema, batch._columns, mask=batch.mask,
                           origin=(self, np.arange(len(batch))))

    def __len__(self) -> int:
        return len(self._memo)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self.rows_at(range(*index.indices(len(self._memo)))))
        row = self._memo[index]
        if row is None:
            (row,) = self.rows_at([range(len(self._memo))[index]])
        return row

    def __iter__(self) -> Iterator[Tuple]:
        if self._missing:
            self.rows_at(range(len(self._memo)))
        return iter(self._memo)

    def rows_at(self, positions: Sequence[int]) -> list[Tuple]:
        """The rows at ``positions`` (non-negative), building the missing
        ones in one pass."""
        memo = self._memo
        if self._missing:
            missing = [pos for pos in positions if memo[pos] is None]
            if missing:
                batch = self.batch
                index = np.array(missing, dtype=np.intp)
                if batch.origin is not None:
                    source, origin = batch.origin
                    built = source.rows_at(origin[index].tolist())
                else:
                    built = _build_rows(
                        batch.schema,
                        [array[index] for array in batch.arrays()],
                        len(missing))
                # Publish only where no other thread published first, so
                # every caller sees one object per position.
                with self._lock:
                    for pos, row in zip(missing, built):
                        if memo[pos] is None:
                            memo[pos] = row
                            self._missing -= 1
        return [memo[pos] for pos in positions]

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, (tuple, list, BatchRows)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other))

    def __repr__(self) -> str:
        return f"BatchRows({len(self._memo)} rows)"


DEFAULT_BATCH_ROWS = 65_536
"""Rows per column batch when a ToColumns adapter re-batches a row stream."""
