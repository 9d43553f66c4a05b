"""Plan-IR invariant verification.

:func:`verify_plan` walks a physical-plan tree (:mod:`repro.dbms.plan`) and
re-derives every structural invariant the node constructors established,
reporting violations as ``T2-E111`` diagnostics:

- the tree is acyclic and every node's ``schema`` is consistent with its
  children (Project really projects, Rename really renames, joins carry the
  concatenated-and-renamed schema, Union's inputs are identical, …);
- every Restrict/ThetaJoin predicate is *closed over its input schema* and
  infers to boolean;
- operator parameters are in range (sample probability, limit count,
  aggregate names);
- backend regions are well formed: a columnar kernel's inputs are columnar
  (entered only through a ``ToColumns`` adapter), and a columnar region is
  consumed only through a ``ToRows`` adapter — no bare backend crossings.

Constructors check these once; backend selection
(:func:`repro.dbms.plan_rewrite.columnarize_plan`) mutates ``_children`` in
place, so a buggy region swap is exactly what this verifier exists to
catch.  Setting ``REPRO_PLAN_VERIFY=1`` installs :func:`assert_valid_plan`
as the verification hook that runs on every ``PlanNode.open()`` and after
every ``optimize_plan`` call.
"""

from __future__ import annotations

import os

from repro.analyze.diagnostics import Diagnostic, Report
from repro.dbms import plan as P
from repro.dbms import types as T
from repro.errors import SchemaError, StaticAnalysisError, TiogaError

__all__ = ["verify_plan", "assert_valid_plan", "install_from_env"]


def _fail(report: Report, node, message: str, hint: str | None = None) -> None:
    report.add(
        Diagnostic(
            "T2-E111",
            f"{node.describe()}: {message}",
            hint=hint,
        )
    )


def _check_predicate(report: Report, node, predicate, schema, what: str) -> None:
    """A predicate must be closed over ``schema`` and infer to boolean."""
    free = sorted(
        name for name in predicate.fields_used() if name not in schema
    )
    if free:
        _fail(
            report, node,
            f"{what} references {', '.join(repr(n) for n in free)}, not in "
            f"the input schema ({', '.join(schema.names)})",
            hint="a rewrite moved the predicate past an operator that "
            "changes the schema",
        )
        return
    try:
        inferred = predicate.infer(schema)
    except TiogaError as exc:
        _fail(report, node, f"{what} does not typecheck: {exc}")
        return
    if inferred is not T.BOOL:
        _fail(report, node, f"{what} has type {inferred}, want bool")


def _expect_schema(report: Report, node, expected) -> None:
    if node.schema != expected:
        _fail(
            report, node,
            f"schema is {node.schema!r}, expected {expected!r} from its "
            "children",
        )


def _expect_children(report: Report, node, count: int) -> bool:
    if len(node.children) != count:
        _fail(
            report, node,
            f"has {len(node.children)} children, expected {count}",
        )
        return False
    return True


def _check_backend_edges(report: Report, node) -> None:
    """Adapter placement: backend changes only at ToColumns / ToRows.

    ``columnarize_plan`` wraps every columnar region in exactly one
    ``ToColumns`` at the bottom and one ``ToRows`` at the top; a rewrite
    that splices a kernel against a row node (or vice versa) produces a
    plan whose two protocols disagree about who is iterating what.
    """
    if isinstance(node, P.ToColumnsNode):
        for child in node.children:
            if isinstance(child, P.ColumnarNode):
                _fail(
                    report, node,
                    f"child {child.describe()} is already columnar",
                    hint="ToColumns belongs below the columnar region, "
                    "not inside it",
                )
        return
    if isinstance(node, P.ColumnarNode):
        for child in node.children:
            if not isinstance(child, P.ColumnarNode):
                _fail(
                    report, node,
                    f"row-backend child {child.describe()} without a "
                    "ToColumns adapter",
                )
        return
    if isinstance(node, P.ToRowsNode):
        for child in node.children:
            if not isinstance(child, P.ColumnarNode):
                _fail(
                    report, node,
                    f"child {child.describe()} is not columnar",
                    hint="ToRows consumes a columnar region; a row child "
                    "needs no adapter",
                )
        return
    for child in node.children:
        if isinstance(child, P.ColumnarNode):
            _fail(
                report, node,
                f"columnar child {child.describe()} without a ToRows "
                "adapter",
            )


def _verify_node(report: Report, node) -> None:
    """Dispatch on node class; unknown classes get only generic checks."""
    if isinstance(node, P.ScanNode):
        _expect_children(report, node, 0)
        source = node._source
        if hasattr(source, "schema") and source.schema != node.schema:
            _fail(report, node, "schema differs from its source's schema")
        return
    if isinstance(node, P.CacheNode):
        if not _expect_children(report, node, 1):
            return
        if node.schema != node._source.schema:
            _fail(report, node, "schema differs from its lazy source's schema")
        if node.children[0] is not node._source.plan:
            _fail(
                report, node,
                "child is not the lazy source's plan (EXPLAIN continuity "
                "broken)",
            )
        return
    if isinstance(node, P.ProjectNode):
        if not _expect_children(report, node, 1):
            return
        child = node.children[0]
        if not node._names:
            _fail(report, node, "projects zero fields")
            return
        missing = [n for n in node._names if n not in child.schema]
        if missing:
            _fail(
                report, node,
                f"projects {', '.join(repr(n) for n in missing)}, not in the "
                f"child schema ({', '.join(child.schema.names)})",
            )
            return
        _expect_schema(report, node, child.schema.project(node._names))
        return
    if isinstance(node, P.RestrictNode):
        if not _expect_children(report, node, 1):
            return
        child = node.children[0]
        _check_predicate(
            report, node, node.predicate, child.schema, "restrict predicate"
        )
        _expect_schema(report, node, child.schema)
        return
    if isinstance(node, P.SampleNode):
        if not _expect_children(report, node, 1):
            return
        if not 0.0 <= node._probability <= 1.0:
            _fail(
                report, node,
                f"sample probability {node._probability!r} outside [0, 1]",
            )
        _expect_schema(report, node, node.children[0].schema)
        return
    if isinstance(node, P.RenameNode):
        if not _expect_children(report, node, 1):
            return
        child = node.children[0]
        old, new = node.mapping
        if old not in child.schema:
            _fail(
                report, node,
                f"renames {old!r}, not in the child schema "
                f"({', '.join(child.schema.names)})",
            )
            return
        try:
            expected = child.schema.rename(old, new)
        except SchemaError as exc:
            _fail(report, node, f"illegal rename: {exc}")
            return
        _expect_schema(report, node, expected)
        return
    if isinstance(node, P.LimitNode):
        if not _expect_children(report, node, 1):
            return
        if node._count < 0:
            _fail(report, node, f"negative limit {node._count}")
        _expect_schema(report, node, node.children[0].schema)
        return
    if isinstance(node, P.OrderByNode):
        if not _expect_children(report, node, 1):
            return
        child = node.children[0]
        missing = [n for n in node._names if n not in child.schema]
        if missing:
            _fail(
                report, node,
                f"orders by {', '.join(repr(n) for n in missing)}, not in "
                f"the child schema ({', '.join(child.schema.names)})",
            )
        _expect_schema(report, node, child.schema)
        return
    if isinstance(node, P.DistinctNode):
        if not _expect_children(report, node, 1):
            return
        _expect_schema(report, node, node.children[0].schema)
        return
    if isinstance(node, P.GroupByNode):
        if not _expect_children(report, node, 1):
            return
        schema = node.children[0].schema
        out_fields = []
        for key in node._keys:
            if key not in schema:
                _fail(
                    report, node,
                    f"groups by {key!r}, not in the child schema "
                    f"({', '.join(schema.names)})",
                )
                return
            out_fields.append(schema.field(key))
        for spec in node._aggregations:
            agg_name, field, output_name = spec
            if agg_name not in P.AGGREGATES:
                _fail(report, node, f"unknown aggregate {agg_name!r}")
                return
            if field not in schema:
                _fail(
                    report, node,
                    f"aggregates {field!r}, not in the child schema "
                    f"({', '.join(schema.names)})",
                )
                return
            source_type = schema.type_of(field)
            if agg_name in ("sum", "avg") and not T.numeric(source_type):
                _fail(
                    report, node,
                    f"{agg_name} over non-numeric field {field!r} "
                    f"({source_type})",
                )
                return
            result_type = P._AGG_RESULT_TYPE.get(agg_name, source_type)
            out_fields.append(P.Field(output_name, result_type))
        try:
            expected = P.Schema(out_fields)
        except SchemaError as exc:
            _fail(report, node, f"illegal output schema: {exc}")
            return
        _expect_schema(report, node, expected)
        return
    if isinstance(node, P.UnionNode):
        if not _expect_children(report, node, 2):
            return
        left, right = node.children
        if left.schema != right.schema:
            _fail(
                report, node,
                f"input schemas differ: {left.schema!r} vs {right.schema!r}",
            )
            return
        _expect_schema(report, node, left.schema)
        return
    if isinstance(node, P.CrossProductNode):
        if not _expect_children(report, node, 2):
            return
        left, right = node.children
        _expect_schema(report, node, P.joined_schema(left.schema, right.schema)[0])
        return
    if isinstance(node, (P.NestedLoopJoinNode, P.HashJoinNode)):
        if not _expect_children(report, node, 2):
            return
        left, right = node.children
        for key, side, label in (
            (node._left_key, left, "left"),
            (node._right_key, right, "right"),
        ):
            if key not in side.schema:
                _fail(
                    report, node,
                    f"{label} join key {key!r} not in the {label} schema "
                    f"({', '.join(side.schema.names)})",
                )
                return
        left_type = left.schema.type_of(node._left_key)
        right_type = right.schema.type_of(node._right_key)
        if left_type is not right_type and not (
            T.numeric(left_type) and T.numeric(right_type)
        ):
            _fail(
                report, node,
                f"join keys have incompatible types "
                f"({left_type} vs {right_type})",
            )
        _expect_schema(report, node, P.joined_schema(left.schema, right.schema)[0])
        return
    if isinstance(node, P.ThetaJoinNode):
        if not _expect_children(report, node, 2):
            return
        left, right = node.children
        expected = P.joined_schema(left.schema, right.schema)[0]
        _check_predicate(
            report, node, node.predicate, expected, "theta-join predicate"
        )
        _expect_schema(report, node, expected)
        return
    if isinstance(node, P.ToColumnsNode):
        if not _expect_children(report, node, 1):
            return
        if node.batch_rows < 1:
            _fail(report, node, f"batch size {node.batch_rows} below 1")
        _expect_schema(report, node, node.children[0].schema)
        return
    if isinstance(node, P.ToRowsNode):
        if not _expect_children(report, node, 1):
            return
        _expect_schema(report, node, node.children[0].schema)
        return
    if isinstance(node, P.ColumnarRestrictNode):
        if not _expect_children(report, node, 1):
            return
        child = node.children[0]
        _check_predicate(
            report, node, node.predicate, child.schema, "restrict predicate"
        )
        _expect_schema(report, node, child.schema)
        return
    if isinstance(node, P.ColumnarProjectNode):
        if not _expect_children(report, node, 1):
            return
        child = node.children[0]
        if not node._names:
            _fail(report, node, "projects zero fields")
            return
        missing = [n for n in node._names if n not in child.schema]
        if missing:
            _fail(
                report, node,
                f"projects {', '.join(repr(n) for n in missing)}, not in the "
                f"child schema ({', '.join(child.schema.names)})",
            )
            return
        _expect_schema(report, node, child.schema.project(node._names))
        return
    if isinstance(node, P.ColumnarRenameNode):
        if not _expect_children(report, node, 1):
            return
        child = node.children[0]
        old, new = node.mapping
        if old not in child.schema:
            _fail(
                report, node,
                f"renames {old!r}, not in the child schema "
                f"({', '.join(child.schema.names)})",
            )
            return
        try:
            expected = child.schema.rename(old, new)
        except SchemaError as exc:
            _fail(report, node, f"illegal rename: {exc}")
            return
        _expect_schema(report, node, expected)
        return
    if isinstance(node, P.ColumnarLimitNode):
        if not _expect_children(report, node, 1):
            return
        if node._count < 0:
            _fail(report, node, f"negative limit {node._count}")
        _expect_schema(report, node, node.children[0].schema)
        return
    if isinstance(node, P.ColumnarDistinctNode):
        if not _expect_children(report, node, 1):
            return
        _expect_schema(report, node, node.children[0].schema)
        return
    if isinstance(node, P.ColumnarOrderByNode):
        if not _expect_children(report, node, 1):
            return
        child = node.children[0]
        missing = [n for n in node._names if n not in child.schema]
        if missing:
            _fail(
                report, node,
                f"orders by {', '.join(repr(n) for n in missing)}, not in "
                f"the child schema ({', '.join(child.schema.names)})",
            )
        _expect_schema(report, node, child.schema)
        return
    if isinstance(node, P.ColumnarGroupByNode):
        if not _expect_children(report, node, 1):
            return
        # Same typing rules as the serial GroupBy — re-derive the output
        # schema through the shared helper both constructors use.
        try:
            expected = P._groupby_output_schema(
                node.children[0].schema, node._keys, node._aggregations
            )
        except TiogaError as exc:
            _fail(report, node, f"illegal grouping: {exc}")
            return
        _expect_schema(report, node, expected)
        return
    if isinstance(node, P.ColumnarHashJoinNode):
        if not _expect_children(report, node, 2):
            return
        left, right = node.children
        for key, side, label in (
            (node._left_key, left, "left"),
            (node._right_key, right, "right"),
        ):
            if key not in side.schema:
                _fail(
                    report, node,
                    f"{label} join key {key!r} not in the {label} schema "
                    f"({', '.join(side.schema.names)})",
                )
                return
        left_type = left.schema.type_of(node._left_key)
        right_type = right.schema.type_of(node._right_key)
        if left_type is not right_type and not (
            T.numeric(left_type) and T.numeric(right_type)
        ):
            _fail(
                report, node,
                f"join keys have incompatible types "
                f"({left_type} vs {right_type})",
            )
        _expect_schema(report, node, P.joined_schema(left.schema, right.schema)[0])
        return
    # Unknown node class: nothing structural to assert beyond the walk.


def verify_plan(root) -> Report:
    """Verify a plan tree; returns a :class:`Report` of ``T2-E111`` findings.

    Shared subtrees (a memoized :class:`CacheNode` source appearing under
    several consumers) are verified once; a node appearing on its own
    ancestor path is reported as a cycle.
    """
    from repro.obs.trace import current_tracer

    verify_span = current_tracer().span("analyze.verify_plan",
                                        root=type(root).__name__)
    report = Report()
    verified: set[int] = set()

    def walk(node, path: set[int]) -> None:
        ident = id(node)
        if ident in path:
            _fail(report, node, "plan tree contains a cycle")
            return
        if ident in verified:
            return
        if not isinstance(node._children, tuple):
            _fail(report, node, "_children is not a tuple (in-place rewrite bug)")
        on_path = path | {ident}
        for child in node.children:
            walk(child, on_path)
        _check_backend_edges(report, node)
        _verify_node(report, node)
        verified.add(ident)

    with verify_span as span:
        walk(root, set())
        span.set(nodes=len(verified), ok=report.ok)
    return report


def assert_valid_plan(root) -> None:
    """Raise :class:`StaticAnalysisError` if the plan violates an invariant."""
    report = verify_plan(root)
    if not report.ok:
        raise StaticAnalysisError(
            "plan-IR verification failed:\n" + report.render(),
            report=report,
        )


def install_from_env(environ=None) -> bool:
    """Install the verifier as the plan hook when ``REPRO_PLAN_VERIFY=1``."""
    if environ is None:
        environ = os.environ
    if environ.get("REPRO_PLAN_VERIFY") == "1":
        P.set_plan_verifier(assert_valid_plan)
        return True
    return False
