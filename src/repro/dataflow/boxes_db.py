"""Database-operation boxes (Figure 3) plus T and Switch.

====================  ===============  =====================================
Operation             Box type         Effect
====================  ===============  =====================================
Add Table             ∅ → R            the tuples of a named relation
Project               R → R'           keep named fields
Restrict              R → R            keep tuples satisfying a predicate
Sample                R → R            Bernoulli sample for interactivity
Join                  R × R' → R''     equi- or theta-join
T                     X → X × X        pass input unchanged to both outputs
Switch                R → R × R        route tuples by predicate (§1.1 (3))
====================  ===============  =====================================

All R-level boxes are *overloadable*: fed a composite or group, the optional
``component``/``member`` parameters select the relation the operation applies
to, and the container is reassembled around the result (Section 2).
"""

from __future__ import annotations

from typing import Any

from repro.dataflow.box import Box
from repro.dataflow.overload import apply_to_relation
from repro.dataflow.ports import Port, PortType
from repro.dbms import plan as P
from repro.dbms.expr import Unary
from repro.dbms.parser import parse_predicate
from repro.dbms.plan import LazyRowSet, source_plan
from repro.dbms.relation import RowSet
from repro.display.defaults import default_displayable
from repro.display.displayable import DisplayableRelation
from repro.errors import EvaluationError, GraphError

__all__ = [
    "AddTableBox",
    "ProjectBox",
    "RestrictBox",
    "SampleBox",
    "JoinBox",
    "TBox",
    "SwitchBox",
]


class AddTableBox(Box):
    """Source box producing a named table with the default display (§4.2).

    "For every relation known to the Tioga-2 system there is a box of the
    same name that takes no inputs and produces as output the tuples of the
    relation."  The cache signature includes the table's serial and version
    stamp, so a Section-8 update refreshes every demanded visualization, and
    a table dropped and re-created under the same name is never mistaken for
    the old one.
    """

    type_name = "AddTable"

    def __init__(self, table: str | None = None):
        super().__init__({"table": table})
        self.outputs = [Port("out", "R")]

    def fire(self, inputs: dict[str, Any], context) -> dict[str, Any]:
        del inputs
        table = context.database.table(self.require_param("table"))
        return {"out": default_displayable(table)}

    def signature(self, database) -> tuple:
        name = self.require_param("table")
        if not database.has_table(name):
            return ("missing",)
        table = database.table(name)
        return ("table", name, table.serial, table.version)


def _lazy(node: P.PlanNode, label: str) -> LazyRowSet:
    """Wrap a plan fragment so downstream boxes extend it instead of
    materializing it; the engine forces only at demanded outputs."""
    return LazyRowSet(node, label=label)


def _filtered(
    relation: DisplayableRelation, predicate_source: str, negate: bool = False
) -> DisplayableRelation:
    """Restrict over stored *or computed* attributes.

    Plain stored-field predicates become a streaming Restrict plan node over
    the upstream fragment; predicates that mention computed attributes are
    evaluated over the extended row views.
    """
    predicate = parse_predicate(predicate_source, relation.extended_schema)
    if predicate.fields_used() <= set(relation.rows.schema.names):
        if negate:
            predicate = Unary("not", predicate)
        node = P.RestrictNode(
            source_plan(relation.rows, relation.name), predicate
        )
        return relation.with_rows(_lazy(node, relation.name))
    keep = (lambda value: not value) if negate else bool
    kept = [
        view.base for view in relation.views() if keep(predicate.evaluate(view))
    ]
    return relation.with_rows(RowSet(relation.rows.schema, kept))


class RestrictBox(Box):
    """Filter a relation to tuples satisfying a predicate (Fig 3)."""

    type_name = "Restrict"
    overloadable = True

    def __init__(
        self,
        predicate: str | None = None,
        component: str | None = None,
        member: str | None = None,
    ):
        super().__init__(
            {"predicate": predicate, "component": component, "member": member}
        )
        self.inputs = [Port("in", "R")]
        self.outputs = [Port("out", "R")]

    def fire(self, inputs: dict[str, Any], context) -> dict[str, Any]:
        predicate = self.require_param("predicate")
        return {
            "out": apply_to_relation(
                inputs["in"],
                lambda rel: _filtered(rel, predicate),
                self.param("component"),
                self.param("member"),
            )
        }


class ProjectBox(Box):
    """Standard database projection; "user is prompted for fields" (Fig 3).

    Computed attributes survive as long as their definitions only reference
    kept fields; a projection that breaks a location/display attribute is a
    type error, keeping the output validly displayable.
    """

    type_name = "Project"
    overloadable = True

    def __init__(
        self,
        fields: list[str] | None = None,
        component: str | None = None,
        member: str | None = None,
    ):
        super().__init__({"fields": fields, "component": component, "member": member})
        self.inputs = [Port("in", "R")]
        self.outputs = [Port("out", "R")]

    def fire(self, inputs: dict[str, Any], context) -> dict[str, Any]:
        fields = self.require_param("fields")

        def op(rel: DisplayableRelation) -> DisplayableRelation:
            node = P.ProjectNode(source_plan(rel.rows, rel.name), fields)
            return rel.with_rows(_lazy(node, rel.name))

        return {
            "out": apply_to_relation(
                inputs["in"], op, self.param("component"), self.param("member")
            )
        }


class SampleBox(Box):
    """Random Bernoulli sample (Fig 3): "useful for improving interactive
    response by reducing the size of data sets to be processed"."""

    type_name = "Sample"
    overloadable = True

    def __init__(
        self,
        probability: float | None = None,
        seed: int | None = None,
        component: str | None = None,
        member: str | None = None,
    ):
        super().__init__(
            {
                "probability": probability,
                "seed": seed,
                "component": component,
                "member": member,
            }
        )
        self.inputs = [Port("in", "R")]
        self.outputs = [Port("out", "R")]

    def fire(self, inputs: dict[str, Any], context) -> dict[str, Any]:
        probability = float(self.require_param("probability"))
        seed = self.param("seed")

        def op(rel: DisplayableRelation) -> DisplayableRelation:
            node = P.SampleNode(source_plan(rel.rows, rel.name), probability, seed)
            return rel.with_rows(_lazy(node, rel.name))

        return {
            "out": apply_to_relation(
                inputs["in"], op, self.param("component"), self.param("member")
            )
        }


class JoinBox(Box):
    """Join of two relations (Fig 3); the user supplies an equi-join key pair
    or a theta predicate over the concatenated schema.

    The joined relation starts from the default display and location (its
    schema is new), per the §5.2 guarantee that every box output is validly
    displayable.
    """

    type_name = "Join"

    def __init__(
        self,
        left_key: str | None = None,
        right_key: str | None = None,
        predicate: str | None = None,
        strategy: str = "hash",
    ):
        super().__init__(
            {
                "left_key": left_key,
                "right_key": right_key,
                "predicate": predicate,
                "strategy": strategy,
            }
        )
        self.inputs = [Port("left", "R"), Port("right", "R")]
        self.outputs = [Port("out", "R")]

    def fire(self, inputs: dict[str, Any], context) -> dict[str, Any]:
        left: DisplayableRelation = _as_relation(inputs["left"], "Join left input")
        right: DisplayableRelation = _as_relation(inputs["right"], "Join right input")
        left_plan = source_plan(left.rows, left.name)
        right_plan = source_plan(right.rows, right.name)
        predicate = self.param("predicate")
        if predicate is not None:
            node: P.PlanNode = P.ThetaJoinNode(left_plan, right_plan, predicate)
        else:
            left_key = self.require_param("left_key")
            right_key = self.require_param("right_key")
            strategy = self.param("strategy", "hash")
            if strategy == "hash":
                node = P.HashJoinNode(left_plan, right_plan, left_key, right_key)
            elif strategy == "nested_loop":
                node = P.NestedLoopJoinNode(
                    left_plan, right_plan, left_key, right_key
                )
            else:
                raise EvaluationError(f"unknown join strategy {strategy!r}")
        name = f"{left.name}_join_{right.name}"
        return {"out": DisplayableRelation(_lazy(node, name), name=name)}


def _as_relation(value: Any, what: str) -> DisplayableRelation:
    if not isinstance(value, DisplayableRelation):
        raise GraphError(
            f"{what} must be a relation (R); got {type(value).__name__}. "
            "Select the component first (operator overloading applies to "
            "single-input boxes)."
        )
    return value


class TBox(Box):
    """T (Fig 2): "simply passes its input unchanged to both outputs, and
    allows another box, for example a viewer, to be connected to the T"."""

    type_name = "T"

    def __init__(self, kind: str = "R"):
        super().__init__({"kind": kind})
        port_type = PortType.parse(kind)
        self.inputs = [Port("in", port_type)]
        self.outputs = [Port("out1", port_type), Port("out2", port_type)]

    def fire(self, inputs: dict[str, Any], context) -> dict[str, Any]:
        return {"out1": inputs["in"], "out2": inputs["in"]}


class SwitchBox(Box):
    """Conditional routing — the paper's motivating multi-output example:

        "if condition then deliver data to box i else deliver data to box j"

    Tuples satisfying the predicate flow out of ``true``; the rest out of
    ``false``.  Boxes with multiple outputs "allow control flow to be
    introduced into a Tioga-2 program" (§1.2 principle 5).
    """

    type_name = "Switch"
    overloadable = True

    def __init__(
        self,
        predicate: str | None = None,
        component: str | None = None,
        member: str | None = None,
    ):
        super().__init__(
            {"predicate": predicate, "component": component, "member": member}
        )
        self.inputs = [Port("in", "R")]
        self.outputs = [Port("true", "R"), Port("false", "R")]

    def fire(self, inputs: dict[str, Any], context) -> dict[str, Any]:
        source = self.require_param("predicate")
        true_out = apply_to_relation(
            inputs["in"],
            lambda rel: _filtered(rel, source),
            self.param("component"),
            self.param("member"),
        )
        false_out = apply_to_relation(
            inputs["in"],
            lambda rel: _inverse_filtered(rel, source),
            self.param("component"),
            self.param("member"),
        )
        return {"true": true_out, "false": false_out}


def _inverse_filtered(
    relation: DisplayableRelation, predicate_source: str
) -> DisplayableRelation:
    return _filtered(relation, predicate_source, negate=True)
