"""The database catalog: tables, registered boxes, and saved programs.

"For every relation known to the Tioga-2 system there is a box of the same
name" (§4) and programs are saved "in the database" (Fig 2, Save Program).
The catalog is the single namespace behind the menu bar's *tables*, *boxes*,
and program menus (§3).
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable

from repro.dbms import types as T
from repro.dbms.relation import RowSet, Table
from repro.dbms.tuples import Schema
from repro.errors import CatalogError

__all__ = ["ColumnStats", "Database", "TableStats", "stats_for"]

# Catalog versions are drawn from one process-wide count: ``next`` is atomic
# under the GIL, so two sessions editing one catalog at once can never both
# write the same version (a ``+= 1`` could).
_CATALOG_VERSIONS = itertools.count(1)


# ---------------------------------------------------------------------------
# Column statistics: the abstract interpreter's entry facts
# ---------------------------------------------------------------------------


class ColumnStats:
    """Value-range facts about one column of an immutable row set.

    ``minimum``/``maximum`` are populated for numeric columns only (``None``
    elsewhere, and for empty tables); ``has_nan`` records whether any float
    ``NaN`` was seen — a NaN is outside every interval, so range-based
    proofs over columns containing one must widen to unknown.
    """

    __slots__ = ("name", "type", "minimum", "maximum", "has_nan")

    def __init__(
        self,
        name: str,
        type_: T.AtomicType,
        minimum: Any = None,
        maximum: Any = None,
        has_nan: bool = False,
    ):
        self.name = name
        self.type = type_
        self.minimum = minimum
        self.maximum = maximum
        self.has_nan = has_nan

    @property
    def constant(self) -> bool:
        """True when every (non-NaN-free) value equals ``minimum``."""
        return (
            self.minimum is not None
            and self.minimum == self.maximum
            and not self.has_nan
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ColumnStats({self.name!r}, {self.type}, "
            f"[{self.minimum}, {self.maximum}], nan={self.has_nan})"
        )


class TableStats:
    """Row count plus per-column :class:`ColumnStats` for a row set."""

    __slots__ = ("row_count", "columns")

    def __init__(self, row_count: int, columns: dict[str, ColumnStats]):
        self.row_count = row_count
        self.columns = columns

    def column(self, name: str) -> ColumnStats | None:
        return self.columns.get(name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TableStats({self.row_count} rows, {len(self.columns)} cols)"


def _column_minmax(rows: RowSet, name: str) -> tuple[Any, Any, bool]:
    lo = hi = None
    has_nan = False
    for row in rows:
        value = row[name]
        if isinstance(value, float) and value != value:
            has_nan = True
            continue
        if lo is None or value < lo:
            lo = value
        if hi is None or value > hi:
            hi = value
    return lo, hi, has_nan


def stats_for(rows: RowSet) -> TableStats:
    """Column stats for an immutable row set, memoized on the row set.

    Row sets are immutable and :meth:`Table.snapshot` returns the same
    object until the next mutation, so the ``RowSet.stats_memo`` slot
    doubles as per-version memoization for stored tables, and the stats
    are freed with the row set they describe.
    """
    if rows.stats_memo is not None:
        return rows.stats_memo
    columns: dict[str, ColumnStats] = {}
    for field in rows.schema:
        if field.type in (T.INT, T.FLOAT):
            lo, hi, has_nan = _column_minmax(rows, field.name)
            columns[field.name] = ColumnStats(
                field.name, field.type, lo, hi, has_nan
            )
        else:
            columns[field.name] = ColumnStats(field.name, field.type)
    stats = TableStats(len(rows), columns)
    rows.stats_memo = stats
    return stats


class Database:
    """An in-memory object-relational database instance."""

    def __init__(self, name: str = "tioga"):
        self.name = name
        self._tables: dict[str, Table] = {}
        #: Changes whenever the set of tables changes (create, add, drop);
        #: the engine's demand stamp reads it.
        self.catalog_version = next(_CATALOG_VERSIONS)
        self._programs: dict[str, dict[str, Any]] = {}
        self._boxes: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------

    def create_table(self, name: str, schema: Schema) -> Table:
        """Create and register an empty table."""
        if name in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        table = Table(name, schema)
        self._tables[name] = table
        self.catalog_version = next(_CATALOG_VERSIONS)
        return table

    def add_table(self, table: Table) -> Table:
        """Register an existing :class:`Table` under its own name."""
        if table.name in self._tables:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[table.name] = table
        self.catalog_version = next(_CATALOG_VERSIONS)
        return table

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise CatalogError(f"no table {name!r} to drop")
        del self._tables[name]
        self.catalog_version = next(_CATALOG_VERSIONS)

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError as exc:
            known = ", ".join(sorted(self._tables)) or "(none)"
            raise CatalogError(f"unknown table {name!r}; known tables: {known}") from exc

    def table_names(self) -> list[str]:
        """The menu of all tables available (§3)."""
        return sorted(self._tables)

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_stats(self, name: str) -> TableStats:
        """Column stats for a stored table's current contents.

        Memoized per table version: snapshots are shared until the next
        mutation, and :func:`stats_for` memoizes on the snapshot.
        """
        return stats_for(self.table(name).snapshot())

    # ------------------------------------------------------------------
    # Registered boxes (big-programmer functions, §1.2 principle 5)
    # ------------------------------------------------------------------

    def register_box(self, name: str, spec: Any, replace: bool = False) -> None:
        """Register a box specification under ``name``.

        The dataflow layer defines the spec objects; the catalog is only the
        namespace.  Encapsulated boxes (§4.1) are registered here too.
        """
        if name in self._boxes and not replace:
            raise CatalogError(f"box {name!r} already registered")
        self._boxes[name] = spec

    def box(self, name: str) -> Any:
        try:
            return self._boxes[name]
        except KeyError as exc:
            known = ", ".join(sorted(self._boxes)) or "(none)"
            raise CatalogError(f"unknown box {name!r}; known boxes: {known}") from exc

    def box_names(self) -> list[str]:
        """The menu of all boxes available (§3)."""
        return sorted(self._boxes)

    def has_box(self, name: str) -> bool:
        return name in self._boxes

    def unregister_box(self, name: str) -> None:
        if name not in self._boxes:
            raise CatalogError(f"no box {name!r} to unregister")
        del self._boxes[name]

    # ------------------------------------------------------------------
    # Saved programs (Fig 2: Save Program / Add Program / Load Program)
    # ------------------------------------------------------------------

    def save_program(self, name: str, payload: dict[str, Any]) -> None:
        """Store a serialized program (a JSON-compatible dict)."""
        self._programs[name] = payload

    def load_program(self, name: str) -> dict[str, Any]:
        try:
            return self._programs[name]
        except KeyError as exc:
            known = ", ".join(sorted(self._programs)) or "(none)"
            raise CatalogError(
                f"unknown program {name!r}; saved programs: {known}"
            ) from exc

    def program_names(self) -> list[str]:
        return sorted(self._programs)

    def delete_program(self, name: str) -> None:
        if name not in self._programs:
            raise CatalogError(f"no program {name!r} to delete")
        del self._programs[name]

    def has_program(self, name: str) -> bool:
        return name in self._programs

    # ------------------------------------------------------------------

    def tables(self) -> Iterable[Table]:
        return self._tables.values()

    def __repr__(self) -> str:
        return (
            f"Database({self.name!r}: {len(self._tables)} tables, "
            f"{len(self._boxes)} boxes, {len(self._programs)} programs)"
        )
