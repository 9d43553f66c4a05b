"""Schemas and tuples.

A :class:`Schema` is an ordered mapping of field names to atomic types; a
:class:`Tuple` is an immutable row conforming to a schema.  The paper's
notation ``t.l`` ("attribute l of tuple t", Section 2) is supported via
attribute-style access in the expression evaluator and via ``tuple[name]``.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from repro.dbms.types import AtomicType, type_by_name
from repro.errors import SchemaError, TypeCheckError

__all__ = ["Field", "Schema", "Tuple"]

_IDENT_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def _valid_field_name(name: str) -> bool:
    return (
        bool(name)
        and name[0].isalpha()
        and all(ch in _IDENT_OK for ch in name)
    )


class Field:
    """A named, typed column of a schema."""

    __slots__ = ("name", "type")

    def __init__(self, name: str, atomic: AtomicType | str):
        if not _valid_field_name(name):
            raise SchemaError(
                f"illegal field name {name!r}: must start with a letter and "
                "contain only letters, digits, and underscores"
            )
        self.name = name
        self.type = type_by_name(atomic) if isinstance(atomic, str) else atomic

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Field)
            and self.name == other.name
            and self.type is other.type
        )

    def __hash__(self) -> int:
        return hash((self.name, self.type.name))

    def __repr__(self) -> str:
        return f"Field({self.name!r}, {self.type.name})"


class Schema:
    """An ordered collection of uniquely named fields."""

    __slots__ = ("_fields", "_index", "_hash")

    def __init__(self, fields: Iterable[Field | tuple[str, AtomicType | str]]):
        normalized: list[Field] = []
        for field in fields:
            if isinstance(field, Field):
                normalized.append(field)
            else:
                name, atomic = field
                normalized.append(Field(name, atomic))
        self._fields = tuple(normalized)
        self._index = {field.name: pos for pos, field in enumerate(self._fields)}
        self._hash: int | None = None
        if len(self._index) != len(self._fields):
            seen: set[str] = set()
            for field in self._fields:
                if field.name in seen:
                    raise SchemaError(f"duplicate field name {field.name!r} in schema")
                seen.add(field.name)

    @property
    def fields(self) -> tuple[Field, ...]:
        return self._fields

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(field.name for field in self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    def __iter__(self) -> Iterator[Field]:
        return iter(self._fields)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def field(self, name: str) -> Field:
        """Field by name, raising :class:`SchemaError` if absent."""
        try:
            return self._fields[self._index[name]]
        except KeyError as exc:
            raise SchemaError(
                f"no field {name!r} in schema ({', '.join(self.names)})"
            ) from exc

    def type_of(self, name: str) -> AtomicType:
        return self.field(name).type

    def position(self, name: str) -> int:
        """Ordinal position of a field."""
        try:
            return self._index[name]
        except KeyError as exc:
            raise SchemaError(
                f"no field {name!r} in schema ({', '.join(self.names)})"
            ) from exc

    def project(self, names: Iterable[str]) -> "Schema":
        """A new schema with only ``names``, in the order given."""
        return Schema([self.field(name) for name in names])

    def without(self, name: str) -> "Schema":
        """A new schema with ``name`` removed."""
        self.field(name)  # validate presence
        return Schema([field for field in self._fields if field.name != name])

    def extend(self, field: Field) -> "Schema":
        """A new schema with ``field`` appended."""
        if field.name in self._index:
            raise SchemaError(f"field {field.name!r} already exists in schema")
        return Schema([*self._fields, field])

    def rename(self, old: str, new: str) -> "Schema":
        """A new schema with one field renamed."""
        if new in self._index and new != old:
            raise SchemaError(f"cannot rename {old!r} to existing field {new!r}")
        return Schema(
            [
                Field(new, field.type) if field.name == old else field
                for field in self._fields
            ]
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self._fields == other._fields

    def __hash__(self) -> int:
        # Schemas are immutable: hash the fields once, so memos keyed by a
        # schema cost one lookup per frame.
        if self._hash is None:
            self._hash = hash(self._fields)
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{field.name}: {field.type.name}" for field in self._fields)
        return f"Schema({inner})"


class Tuple:
    """An immutable row conforming to a schema.

    Values are validated (with coercion) against the schema's field types at
    construction, so a Tuple in hand is always well typed.
    """

    __slots__ = ("_schema", "_values")

    def __init__(self, schema: Schema, values: Mapping[str, Any] | Iterable[Any]):
        self._schema = schema
        if isinstance(values, Mapping):
            missing = [name for name in schema.names if name not in values]
            if missing:
                raise SchemaError(f"tuple is missing fields: {', '.join(missing)}")
            extra = [name for name in values if name not in schema]
            if extra:
                raise SchemaError(f"tuple has unknown fields: {', '.join(extra)}")
            ordered = [values[name] for name in schema.names]
        else:
            ordered = list(values)
            if len(ordered) != len(schema):
                raise SchemaError(
                    f"tuple has {len(ordered)} values for a {len(schema)}-field schema"
                )
        coerced = []
        for field, value in zip(schema.fields, ordered):
            try:
                coerced.append(field.type.coerce(value))
            except TypeCheckError as exc:
                raise TypeCheckError(f"field {field.name!r}: {exc}") from exc
        self._values = tuple(coerced)

    @classmethod
    def trusted(cls, schema: Schema, values: Iterable[Any]) -> "Tuple":
        """Construct without validation or coercion.

        Only for values that provably already conform to ``schema`` — the
        columnar backend uses this when rebuilding rows from column arrays
        whose every element came out of a previously validated tuple.
        Anywhere the values' provenance is less airtight, use the normal
        constructor.
        """
        row = object.__new__(cls)
        row._schema = schema
        row._values = tuple(values)
        return row

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def values(self) -> tuple[Any, ...]:
        return self._values

    def __getitem__(self, name: str) -> Any:
        return self._values[self._schema.position(name)]

    def get(self, name: str, default: Any = None) -> Any:
        if name in self._schema:
            return self[name]
        return default

    def as_dict(self) -> dict[str, Any]:
        return dict(zip(self._schema.names, self._values))

    def replace(self, **changes: Any) -> "Tuple":
        """A new tuple with some fields changed."""
        data = self.as_dict()
        for name, value in changes.items():
            if name not in self._schema:
                raise SchemaError(f"no field {name!r} to replace")
            data[name] = value
        return Tuple(self._schema, data)

    def project(self, names: Iterable[str]) -> "Tuple":
        """A new tuple over the projected schema."""
        names = list(names)
        return Tuple(self._schema.project(names), [self[name] for name in names])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Tuple)
            and self._schema == other._schema
            and self._values == other._values
        )

    def __hash__(self) -> int:
        hashable = tuple(
            tuple(map(id, value)) if isinstance(value, list) else value
            for value in self._values
        )
        return hash((self._schema, hashable))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._schema.names, self._values)
        )
        return f"Tuple({inner})"
