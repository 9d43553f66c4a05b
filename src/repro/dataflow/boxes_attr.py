"""Location and display attribute boxes (Figure 5).

====================  ========  ==========================================
Operation             Box type  Effect
====================  ========  ==========================================
Add Attribute         R → R'    add an attribute; user gives its definition
Remove Attribute      R → R'    remove one; never x, y, or display
Set Attribute         R → R'    change an attribute's value/definition
Swap Attributes       R → R'    interchange two same-typed attributes
Scale Attribute       R → R'    multiply a numeric attribute by a constant
Translate Attribute   R → R'    add a constant to a numeric attribute
Combine Displays      R → R'    combine two display attributes (§5.3)
====================  ========  ==========================================

Definitions are written in the query language and "may depend only on other
attributes of the relation" (§5.3); they are parsed and type-checked against
the relation's extended schema (stored fields + earlier computed attributes +
the ambient ``tioga_seq``).  Every box here is overloadable per Section 2.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.dataflow.box import Box
from repro.dataflow.overload import apply_to_relation
from repro.dataflow.ports import Port
from repro.dbms import types as T
from repro.dbms.expr import Binary, Literal
from repro.dbms.parser import parse_expression
from repro.dbms.relation import Method, MethodSet, RowSet
from repro.dbms.tuples import Tuple
from repro.display.displayable import DisplayableRelation
from repro.errors import DisplayError, GraphError, TypeCheckError

__all__ = [
    "AddAttributeBox",
    "RemoveAttributeBox",
    "SetAttributeBox",
    "SwapAttributesBox",
    "ScaleAttributeBox",
    "TranslateAttributeBox",
    "CombineDisplaysBox",
]

_PROTECTED = ("x", "y", "display")


class _AttrBox(Box):
    """Shared scaffolding: one R input/output plus overload selection."""

    overloadable = True

    def __init__(self, params: dict[str, Any]):
        super().__init__(params)
        self.inputs = [Port("in", "R")]
        self.outputs = [Port("out", "R")]
        # (version, definition, declared type) -> {reference schema: parse}
        self._parsed: tuple[tuple, dict] = ((), {})

    def _definition(
        self, relation: DisplayableRelation, source: str, declared: str | None
    ) -> tuple[Any, T.AtomicType]:
        """:func:`_parse_definition`, memoized per box version and
        reference schema: a box that re-fires over an unchanged schema
        (after a table update) hands on the same expression, which keeps
        memos keyed by definitions (``definition_key``) hitting."""
        stamp = (self.version, source, declared)
        if self._parsed[0] != stamp:
            self._parsed = (stamp, {})
        parses = self._parsed[1]
        schema = relation.methods.reference_schema()
        parsed = parses.get(schema)
        if parsed is None:
            parsed = parses[schema] = _parse_definition(relation, source,
                                                        declared)
        return parsed

    def _apply(self, value: Any, op: Callable[[DisplayableRelation], DisplayableRelation]):
        return {
            "out": apply_to_relation(
                value, op, self.param("component"), self.param("member")
            )
        }


def _parse_definition(
    relation: DisplayableRelation, source: str, declared: str | None
) -> tuple[Any, T.AtomicType]:
    """Parse an attribute definition and resolve its type."""
    schema = relation.methods.reference_schema()
    expr = parse_expression(source, schema)
    inferred = expr.infer(schema)
    if declared is None:
        return expr, inferred
    atomic = T.type_by_name(declared)
    compatible = atomic is inferred or (T.numeric(atomic) and T.numeric(inferred))
    if not compatible:
        raise TypeCheckError(
            f"definition {source!r} has type {inferred}, declared {atomic}"
        )
    return expr, atomic


class AddAttributeBox(_AttrBox):
    """Add a computed attribute; ``location=True`` also registers it as a
    slider dimension, adding a dimension to the visualization (§5.3)."""

    type_name = "AddAttribute"

    def __init__(
        self,
        name: str | None = None,
        definition: str | None = None,
        declared_type: str | None = None,
        location: bool = False,
        component: str | None = None,
        member: str | None = None,
    ):
        super().__init__(
            {
                "name": name,
                "definition": definition,
                "declared_type": declared_type,
                "location": location,
                "component": component,
                "member": member,
            }
        )

    def fire(self, inputs: dict[str, Any], context) -> dict[str, Any]:
        name = self.require_param("name")
        definition = self.require_param("definition")

        def op(rel: DisplayableRelation) -> DisplayableRelation:
            expr, atomic = self._definition(
                rel, definition, self.param("declared_type")
            )
            result = rel.with_method_added(Method(name, atomic, expr))
            if self.param("location"):
                if not T.numeric(atomic):
                    raise DisplayError(
                        f"location attribute {name!r} must be numeric, got {atomic}"
                    )
                if name not in ("x", "y"):
                    result = result.with_slider_added(name)
            return result

        return self._apply(inputs["in"], op)


class RemoveAttributeBox(_AttrBox):
    """Remove an attribute; "cannot remove attributes x, y, or display"."""

    type_name = "RemoveAttribute"

    def __init__(
        self,
        name: str | None = None,
        component: str | None = None,
        member: str | None = None,
    ):
        super().__init__({"name": name, "component": component, "member": member})

    def fire(self, inputs: dict[str, Any], context) -> dict[str, Any]:
        name = self.require_param("name")
        if name in _PROTECTED:
            raise GraphError(
                f"cannot remove attribute {name!r}: x, y, and display are "
                "required for a valid visualization (Fig 5)"
            )

        def op(rel: DisplayableRelation) -> DisplayableRelation:
            if name in rel.slider_dims:
                rel = rel.with_slider_dims(
                    d for d in rel.slider_dims if d != name
                )
            if name in rel.methods:
                methods = rel.methods.copy()
                methods.remove(name)
                return rel.with_methods(methods)
            if name in rel.rows.schema:
                from repro.dbms.algebra import project

                keep = [f for f in rel.rows.schema.names if f != name]
                return rel.with_rows(project(rel.rows, keep))
            raise GraphError(f"relation {rel.name!r} has no attribute {name!r}")

        return self._apply(inputs["in"], op)


class SetAttributeBox(_AttrBox):
    """Change (or first establish) an attribute's definition (§5.3).

    Setting ``x``/``y``/``display`` for the first time replaces the default
    location/display — this is how Figure 4 maps (longitude, latitude) onto
    the canvas.  Stored fields cannot be redefined (their values live in the
    database; use an update, or Add Attribute under a new name).
    """

    type_name = "SetAttribute"

    def __init__(
        self,
        name: str | None = None,
        definition: str | None = None,
        declared_type: str | None = None,
        component: str | None = None,
        member: str | None = None,
    ):
        super().__init__(
            {
                "name": name,
                "definition": definition,
                "declared_type": declared_type,
                "component": component,
                "member": member,
            }
        )

    def fire(self, inputs: dict[str, Any], context) -> dict[str, Any]:
        name = self.require_param("name")
        definition = self.require_param("definition")

        def op(rel: DisplayableRelation) -> DisplayableRelation:
            if name in rel.rows.schema:
                raise GraphError(
                    f"{name!r} is a stored field; Set Attribute redefines "
                    "computed attributes only"
                )
            expr, atomic = self._definition(
                rel, definition, self.param("declared_type")
            )
            method = Method(name, atomic, expr)
            if name in rel.methods:
                return rel.with_method_replaced(method)
            return rel.with_method_added(method)

        return self._apply(inputs["in"], op)


class SwapAttributesBox(_AttrBox):
    """Interchange two attributes of the same type (§5.3).

    Swapping two location attributes "rotates" the canvas; swapping
    ``display`` with an alternative display changes the visualization — the
    magnifying-glass construction of Figure 9 uses exactly this.
    """

    type_name = "SwapAttributes"

    def __init__(
        self,
        first: str | None = None,
        second: str | None = None,
        component: str | None = None,
        member: str | None = None,
    ):
        super().__init__(
            {"first": first, "second": second, "component": component, "member": member}
        )

    def fire(self, inputs: dict[str, Any], context) -> dict[str, Any]:
        first = self.require_param("first")
        second = self.require_param("second")
        if first == second:
            raise GraphError("Swap Attributes needs two distinct attributes")

        def op(rel: DisplayableRelation) -> DisplayableRelation:
            in_methods = first in rel.methods, second in rel.methods
            in_stored = first in rel.rows.schema, second in rel.rows.schema
            if all(in_methods):
                return rel.with_methods(_swap_methods(rel.methods, first, second))
            if all(in_stored):
                return rel.with_rows(_swap_columns(rel.rows, first, second))
            raise GraphError(
                f"cannot swap {first!r} and {second!r}: both must be computed "
                "attributes or both stored fields"
            )

        return self._apply(inputs["in"], op)


def _swap_methods(methods: MethodSet, first: str, second: str) -> MethodSet:
    a = methods.get(first)
    b = methods.get(second)
    if a.type is not b.type and not (T.numeric(a.type) and T.numeric(b.type)):
        raise TypeCheckError(
            f"cannot swap attributes of different types: {first!r} is "
            f"{a.type}, {second!r} is {b.type}"
        )
    swapped = MethodSet(methods.base_schema, ambient=methods.ambient)
    for method in methods:
        if method.name == first:
            swapped.add(_renamed_method(b, first))
        elif method.name == second:
            swapped.add(_renamed_method(a, second))
        else:
            swapped.add(method)
    return swapped


def _renamed_method(method: Method, new_name: str) -> Method:
    if method.expr is not None:
        return Method(new_name, method.type, method.expr)
    return Method(
        new_name, method.type, method.compute, depends=method.depends
    )


def _swap_columns(rows: RowSet, first: str, second: str) -> RowSet:
    schema = rows.schema
    a = schema.type_of(first)
    b = schema.type_of(second)
    if a is not b:
        raise TypeCheckError(
            f"cannot swap stored fields of different types: {first!r} is "
            f"{a}, {second!r} is {b}"
        )
    swapped = [
        row.replace(**{first: row[second], second: row[first]}) for row in rows
    ]
    return RowSet(schema, swapped)


class _NumericAdjustBox(_AttrBox):
    """Shared logic for Scale/Translate Attribute (numeric only, §5.3)."""

    _operator = "*"

    def __init__(
        self,
        name: str | None = None,
        amount: float | None = None,
        component: str | None = None,
        member: str | None = None,
    ):
        super().__init__(
            {"name": name, "amount": amount, "component": component, "member": member}
        )

    def fire(self, inputs: dict[str, Any], context) -> dict[str, Any]:
        name = self.require_param("name")
        amount = float(self.require_param("amount"))
        operator = self._operator

        def op(rel: DisplayableRelation) -> DisplayableRelation:
            if name in rel.methods:
                old = rel.methods.get(name)
                if not T.numeric(old.type):
                    raise TypeCheckError(
                        f"attribute {name!r} is {old.type}; Scale/Translate "
                        "apply to numeric attributes only"
                    )
                if old.expr is not None:
                    new_expr = Binary(operator, old.expr, Literal(amount))
                    return rel.with_method_replaced(
                        Method(name, T.FLOAT, new_expr)
                    )
                compute = old.compute
                adjusted = (
                    (lambda row: compute(row) * amount)
                    if operator == "*"
                    else (lambda row: compute(row) + amount)
                )
                return rel.with_method_replaced(
                    Method(name, T.FLOAT, adjusted, depends=old.depends)
                )
            if name in rel.rows.schema:
                atomic = rel.rows.schema.type_of(name)
                if not T.numeric(atomic):
                    raise TypeCheckError(
                        f"stored field {name!r} is {atomic}; Scale/Translate "
                        "apply to numeric attributes only"
                    )
                adjust = (
                    (lambda v: v * amount) if operator == "*" else (lambda v: v + amount)
                )
                rows = RowSet(
                    rel.rows.schema,
                    (_adjust_row(row, name, adjust) for row in rel.rows),
                )
                return rel.with_rows(rows)
            raise GraphError(f"relation {rel.name!r} has no attribute {name!r}")

        return self._apply(inputs["in"], op)


def _adjust_row(row: Tuple, name: str, adjust: Callable[[Any], Any]) -> Tuple:
    atomic = row.schema.type_of(name)
    value = adjust(row[name])
    if atomic is T.INT and isinstance(value, float):
        # Stored int columns stay int when the adjustment lands on an integer;
        # otherwise the value genuinely needs a float column, which stored
        # fields cannot change to — surface that clearly.
        if not value.is_integer():
            raise TypeCheckError(
                f"adjusting stored int field {name!r} produced non-integer "
                f"{value}; use Add Attribute to derive a float attribute instead"
            )
        value = int(value)
    return row.replace(**{name: value})


class ScaleAttributeBox(_NumericAdjustBox):
    """Multiply a numerical attribute by a number (Fig 5)."""

    type_name = "ScaleAttribute"
    _operator = "*"


class TranslateAttributeBox(_NumericAdjustBox):
    """Add a number to a numerical attribute (Fig 5)."""

    type_name = "TranslateAttribute"
    _operator = "+"


class CombineDisplaysBox(_AttrBox):
    """Combine two display attributes into a new one (§5.3).

    "The user positions the displays on top of one another graphically to
    establish the relative position; alternatively, an explicit offset of one
    display to the other can be entered.  The combined display becomes a new
    display attribute."  The second display is shifted by ``offset`` and
    painted after (on top of) the first.
    """

    type_name = "CombineDisplays"

    def __init__(
        self,
        first: str | None = None,
        second: str | None = None,
        target: str = "display",
        offset_x: float = 0.0,
        offset_y: float = 0.0,
        component: str | None = None,
        member: str | None = None,
    ):
        super().__init__(
            {
                "first": first,
                "second": second,
                "target": target,
                "offset_x": offset_x,
                "offset_y": offset_y,
                "component": component,
                "member": member,
            }
        )

    def fire(self, inputs: dict[str, Any], context) -> dict[str, Any]:
        first = self.require_param("first")
        second = self.require_param("second")
        target = self.param("target", "display")
        dx = float(self.param("offset_x", 0.0))
        dy = float(self.param("offset_y", 0.0))

        def op(rel: DisplayableRelation) -> DisplayableRelation:
            schema = rel.extended_schema
            for name in (first, second):
                if name not in schema:
                    raise GraphError(
                        f"relation {rel.name!r} has no display attribute {name!r}"
                    )
                if schema.type_of(name) is not T.DRAWABLES:
                    raise TypeCheckError(
                        f"attribute {name!r} is {schema.type_of(name)}; Combine "
                        "Displays requires drawable-list attributes"
                    )

            def combined(row: Mapping[str, Any]) -> list:
                base = list(row[first])
                top = [d.with_offset(dx, dy) for d in row[second]]
                return base + top

            method = Method(
                target, T.DRAWABLES, combined, depends={first, second}
            )
            if target in rel.methods:
                return rel.with_method_replaced(method)
            return rel.with_method_added(method)

        return self._apply(inputs["in"], op)
