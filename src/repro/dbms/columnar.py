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
copies.  The scene-graph culling path depends on this (it recovers source
indices by identity).  Schema-changing kernels (Project, Rename, GroupBy,
Join) drop the originals and rebuild rows via :meth:`Tuple.trusted` —
except under lineage capture (``repro.obs.lineage``), where those kernels
materialize their output rows once, re-attach them to the outgoing batch,
and record output-row → input-row mappings, so backward walks compose by
identity across the whole columnar pipeline.

There is no backend knob: the plan optimizer
(:func:`repro.dbms.plan_rewrite.columnarize_plan`) moves each worthwhile
subtree onto the vectorized kernels.  See ``docs/COLUMNAR.md``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.dbms import types as T
from repro.dbms.tuples import Schema, Tuple

__all__ = [
    "ColumnBatch",
    "DEFAULT_BATCH_ROWS",
    "NUMPY_DTYPES",
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


def _column_array(values: Sequence, atomic) -> np.ndarray:
    dtype = NUMPY_DTYPES.get(atomic)
    if dtype is not None:
        try:
            return np.array(values, dtype=dtype)
        except (OverflowError, ValueError, TypeError):
            pass    # e.g. an int beyond int64 — keep exact Python objects
    return _object_array(values)


class ColumnBatch:
    """One batch of rows in columnar form: an array per field plus a mask."""

    __slots__ = ("schema", "_columns", "mask", "rows", "_length")

    def __init__(self, schema: Schema, columns: dict[str, np.ndarray],
                 mask: np.ndarray | None = None,
                 rows: np.ndarray | None = None):
        self.schema = schema
        self._columns = columns
        first = next(iter(columns.values())) if columns else None
        self._length = len(first) if first is not None else 0
        self.mask = (mask if mask is not None
                     else np.ones(self._length, dtype=bool))
        self.rows = rows    # object array of the original Tuples, or None

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
        columns: dict[str, np.ndarray] = {}
        for pos, field in enumerate(schema.fields):
            values = [row.values[pos] for row in rows]
            columns[field.name] = _column_array(values, field.type)
        row_arr = _object_array(rows) if keep_rows else None
        return cls(schema, columns, rows=row_arr)

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
        rows = None
        if all(b.rows is not None for b in batches):
            rows = np.concatenate([b.rows for b in batches])
        return cls(schema, columns, mask=mask, rows=rows)

    # -- access -------------------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        return self._columns[name]

    def arrays(self) -> list[np.ndarray]:
        """The column arrays in schema order."""
        return [self._columns[name] for name in self.schema.names]

    def to_rows(self) -> Sequence[Tuple]:
        """Back to row form.

        Returns the original Tuple objects when the batch still carries
        them; otherwise rebuilds tuples via the trusted constructor —
        every value came out of a validated tuple (``.tolist()`` converts
        numpy scalars back to the native Python types the serial backend
        holds), so re-coercion would only burn time.
        """
        if self.rows is not None:
            return self.rows
        schema = self.schema
        lists = [self._columns[name].tolist() for name in schema.names]
        if len(lists) == 1:
            return [Tuple.trusted(schema, (value,)) for value in lists[0]]
        trusted = Tuple.trusted
        return [trusted(schema, values) for values in zip(*lists)]

    # -- selection (keeps row identity) -------------------------------------

    def take(self, indices: np.ndarray) -> "ColumnBatch":
        """Rows at ``indices``, in that order."""
        columns = {name: arr[indices] for name, arr in self._columns.items()}
        rows = self.rows[indices] if self.rows is not None else None
        return ColumnBatch(self.schema, columns, mask=self.mask[indices],
                           rows=rows)

    def take_mask(self, keep: np.ndarray) -> "ColumnBatch":
        """Rows where ``keep`` is true, in input order."""
        columns = {name: arr[keep] for name, arr in self._columns.items()}
        rows = self.rows[keep] if self.rows is not None else None
        return ColumnBatch(self.schema, columns, mask=self.mask[keep],
                           rows=rows)

    def slice(self, start: int, stop: int) -> "ColumnBatch":
        columns = {name: arr[start:stop]
                   for name, arr in self._columns.items()}
        rows = self.rows[start:stop] if self.rows is not None else None
        return ColumnBatch(self.schema, columns, mask=self.mask[start:stop],
                           rows=rows)

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


DEFAULT_BATCH_ROWS = 65_536
"""Rows per column batch when a ToColumns adapter re-batches a row stream."""
