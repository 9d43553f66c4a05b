"""Plan-IR rewrites: restrict merging and pushdown over physical plans.

The graph-level optimizer (:mod:`repro.dataflow.optimize`) restructures
boxes-and-arrows programs; this module applies the same two rewrite families
*inside* a physical plan, where synthesized operators (viewer culling
restricts, box-emitted fragments) live below the granularity of a box:

* **Restrict merging** — adjacent Restrict nodes collapse into one
  conjunction (one pass over the data instead of two).
* **Restrict pushdown** — a Restrict moves below operators that keep row
  values intact and commute with filtering: Rename (with the predicate's
  field references mapped back to the old name), Project, OrderBy, and
  Distinct.

Pushdown is deliberately *blocked* by Union and GroupBy (a predicate over
the output schema is not a predicate over the inputs), by Sample (filtering
first changes the per-row RNG alignment), by Limit (head-N does not commute
with filtering), by joins (the graph-level join rule handles those), and by
Cache/Scan leaves (a cache is a shared memoization boundary — filtering
what gets cached would change what other consumers observe).

Both rewrite families share their expression helpers
(:func:`split_conjuncts`, :func:`conjoin`, :func:`rename_fields`) with the
graph-level optimizer, which imports them from here.
"""

from __future__ import annotations

from typing import Sequence

from repro.dbms.expr import (
    Binary,
    Call,
    Conditional,
    Expr,
    FieldRef,
    Literal,
    Unary,
)
from repro.dbms.columnar import NUMPY_DTYPES
from repro.dbms.expr_compile import compile_predicate
from repro.dbms.plan import (
    CacheNode,
    ColumnarDistinctNode,
    ColumnarGroupByNode,
    ColumnarHashJoinNode,
    ColumnarNode,
    ColumnarOrderByNode,
    ColumnarProjectNode,
    ColumnarRenameNode,
    ColumnarRestrictNode,
    DistinctNode,
    GroupByNode,
    HashJoinNode,
    OrderByNode,
    PlanNode,
    ProjectNode,
    RenameNode,
    RestrictNode,
    ScanNode,
    ToColumnsNode,
    ToRowsNode,
    plan_annotator,
    plan_verifier,
)
from repro.errors import StaticAnalysisError, TiogaError

__all__ = [
    "split_conjuncts",
    "conjoin",
    "rename_fields",
    "optimize_plan",
    "columnarize_plan",
]


def split_conjuncts(expr: Expr) -> list[Expr]:
    """Flatten top-level ``and`` into its conjuncts."""
    if isinstance(expr, Binary) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(parts: Sequence[Expr]) -> Expr:
    """Left-associative conjunction of one or more boolean expressions."""
    if not parts:
        raise TiogaError("cannot conjoin zero predicates")
    result = parts[0]
    for part in parts[1:]:
        result = Binary("and", result, part)
    return result


def rename_fields(expr: Expr, mapping: dict[str, str]) -> Expr:
    """Rebuild an expression with field references renamed."""
    if isinstance(expr, FieldRef):
        return FieldRef(mapping.get(expr.name, expr.name))
    if isinstance(expr, Literal):
        return expr
    if isinstance(expr, Unary):
        return Unary(expr.op, rename_fields(expr.operand, mapping))
    if isinstance(expr, Binary):
        return Binary(
            expr.op,
            rename_fields(expr.left, mapping),
            rename_fields(expr.right, mapping),
        )
    if isinstance(expr, Conditional):
        return Conditional(
            rename_fields(expr.condition, mapping),
            rename_fields(expr.then_branch, mapping),
            rename_fields(expr.else_branch, mapping),
        )
    if isinstance(expr, Call):
        return Call(expr.fn.name, [rename_fields(a, mapping) for a in expr.args])
    raise TiogaError(f"cannot rewrite expression node {type(expr).__name__}")


def optimize_plan(
    root: PlanNode, log: list[str] | None = None
) -> tuple[PlanNode, list[str]]:
    """Apply plan rewrites until fixpoint; returns (new root, rewrite log).

    Rewrites rebuild nodes (constructors re-validate), so only apply this to
    plans that have not started executing — rebuilt nodes carry fresh stats.
    The engine runs it on every demanded plan before first execution.

    :func:`columnarize_plan` always runs last, swapping profitable subtrees
    onto the vectorized backend behind ToColumns/ToRows adapters.  Output
    rows, order, and schemas are unchanged.

    Rewrite safety: the optimized plan must produce the same schema as the
    original (checked unconditionally), and when a plan verifier is
    installed (``REPRO_PLAN_VERIFY=1``) the whole rewritten tree is
    re-verified against the plan-IR invariants.
    """
    if log is None:
        log = []
    original_schema = root.schema
    while True:
        root, changed = _rewrite(root, log)
        if not changed:
            break
    if plan_annotator() is not None:
        # Abstract interpretation is on (REPRO_ABSINT=1): eliminate
        # restricts whose predicates have a constant truth value and prune
        # statically empty subtrees, before backend selection sees them.
        from repro.analyze.absint import absint_rewrite_plan

        root, log = absint_rewrite_plan(root, log)
    root, log = columnarize_plan(root, log)
    if root.schema != original_schema:
        raise StaticAnalysisError(
            f"plan rewrite changed the root schema from {original_schema!r} "
            f"to {root.schema!r}; rewrites must be schema-preserving "
            f"(rewrite log: {log})"
        )
    verifier = plan_verifier()
    if verifier is not None:
        verifier(root)
    return root, log


def _rewrite(node: PlanNode, log: list[str]) -> tuple[PlanNode, bool]:
    # Leaves stop the walk.  A CacheNode's child belongs to another (shared,
    # possibly executing) plan: it is shown by EXPLAIN but never rewritten.
    # Columnar operators also stop it: their kernels were derived from
    # serial templates by columnarize_plan and are not restructured
    # afterwards.
    if (
        isinstance(node, (ScanNode, CacheNode))
        or hasattr(node, "columnar_info")
    ):
        return node, False

    changed = False
    new_children = []
    for child in node.children:
        rewritten, child_changed = _rewrite(child, log)
        new_children.append(rewritten)
        changed = changed or child_changed
    if changed:
        node._children = tuple(new_children)

    if not isinstance(node, RestrictNode):
        return node, changed

    child = node.children[0]
    alias = node.alias

    if isinstance(child, RestrictNode):
        merged = RestrictNode(
            child.children[0],
            Binary("and", child.predicate, node.predicate),
            alias=alias or child.alias,
        )
        log.append(
            f"merged adjacent restricts: ({child.predicate}) and ({node.predicate})"
        )
        return merged, True

    if isinstance(child, RenameNode):
        old, new = child.mapping
        predicate = rename_fields(node.predicate, {new: old})
        pushed = RenameNode(
            RestrictNode(child.children[0], predicate, alias=alias), old, new
        )
        log.append(f"pushed restrict below {child.describe()}")
        return pushed, True

    if isinstance(child, ProjectNode):
        pushed = ProjectNode(
            RestrictNode(child.children[0], node.predicate, alias=alias),
            child._names,
        )
        log.append(f"pushed restrict below {child.describe()}")
        return pushed, True

    if isinstance(child, OrderByNode):
        pushed = OrderByNode(
            RestrictNode(child.children[0], node.predicate, alias=alias),
            child._names,
            child._descending,
        )
        log.append(f"pushed restrict below {child.describe()}")
        return pushed, True

    if isinstance(child, DistinctNode):
        pushed = DistinctNode(
            RestrictNode(child.children[0], node.predicate, alias=alias)
        )
        log.append(f"pushed restrict below {child.describe()}")
        return pushed, True

    # Union, GroupBy, Sample, Limit, joins, leaves: blocked.
    return node, changed


# ---------------------------------------------------------------------------
# Columnar backend selection
# ---------------------------------------------------------------------------


def _columnar_capable(node: PlanNode) -> bool:
    """Can this operator run on the columnar backend with identical
    results?  (Exact-type checks: a subclass may change semantics.)

    Limit is deliberately absent: its batch-granular pull would overcount
    upstream EXPLAIN row counters relative to the serial row-exact early
    exit.  Distinct needs hashable raw values (the serial backend's Tuple
    hash maps drawable lists to identity, the kernel's value-tuple set
    cannot), so DRAWABLES columns keep it on the row backend.
    """
    kind = type(node)
    if kind in (RestrictNode, ProjectNode, RenameNode, OrderByNode,
                GroupByNode, HashJoinNode):
        return True
    if kind is DistinctNode:
        return all(
            field.type in NUMPY_DTYPES or field.type.name in ("text", "date")
            for field in node.schema.fields
        )
    return False


def _columnar_worthwhile(node: PlanNode) -> bool:
    """Is the vectorized kernel expected to beat the row operator?

    Restrict pays off when its predicate compiled to a mask program;
    sort/group/join pay off when their keys live in fixed-width dtypes
    (object columns would route through the same Python comparisons the
    row backend makes, plus conversion overhead).  Project and Rename are
    pure plumbing — they ride along when their input subtree is worthwhile
    but never start a region by themselves.
    """
    kind = type(node)
    if kind is RestrictNode:
        return compile_predicate(
            node.predicate, node.children[0].schema
        ) is not None
    if kind in (ProjectNode, RenameNode):
        return _columnar_worthwhile(node.children[0])
    if kind is DistinctNode:
        return all(field.type in NUMPY_DTYPES for field in node.schema.fields)
    if kind is OrderByNode:
        return all(
            node.schema.type_of(name) in NUMPY_DTYPES for name in node._names
        )
    if kind is GroupByNode:
        return all(
            node.children[0].schema.type_of(key) in NUMPY_DTYPES
            for key in node._keys
        )
    if kind is HashJoinNode:
        return (
            node.children[0].schema.type_of(node._left_key) in NUMPY_DTYPES
            and node.children[1].schema.type_of(node._right_key)
            in NUMPY_DTYPES
        )
    return False


def columnarize_plan(
    root: PlanNode, log: list[str] | None = None
) -> tuple[PlanNode, list[str]]:
    """Select the columnar backend per subtree; returns (new root, log).

    Walks the plan looking for *regions* — maximal subtrees of
    columnar-capable operators rooted at a worthwhile one — and swaps each
    region onto vectorized kernels, bracketed by a :class:`ToRowsNode` on
    top and :class:`ToColumnsNode` adapters at the bottom edges.  Each
    kernel keeps its serial original as a ``template`` so executed row
    counters fold back where external callers look for them.  Leaves,
    Cache boundaries, and columnar operators stop the walk exactly as in
    the rewrite pass; everything outside a region stays on the row backend
    untouched.  Row output, ordering, and schemas are invariant.
    """
    if log is None:
        log = []

    def as_kernel(node: PlanNode) -> ColumnarNode:
        kind = type(node)
        if kind is RestrictNode:
            return ColumnarRestrictNode(
                region_child(node.children[0]),
                node.predicate,
                alias=node.alias,
                template=node,
            )
        if kind is ProjectNode:
            return ColumnarProjectNode(
                region_child(node.children[0]), node._names, template=node
            )
        if kind is RenameNode:
            old, new = node.mapping
            return ColumnarRenameNode(
                region_child(node.children[0]), old, new, template=node
            )
        if kind is DistinctNode:
            return ColumnarDistinctNode(
                region_child(node.children[0]), template=node
            )
        if kind is OrderByNode:
            return ColumnarOrderByNode(
                region_child(node.children[0]),
                node._names,
                node._descending,
                template=node,
            )
        if kind is GroupByNode:
            return ColumnarGroupByNode(
                region_child(node.children[0]),
                node._keys,
                node._aggregations,
                template=node,
            )
        if kind is HashJoinNode:
            return ColumnarHashJoinNode(
                region_child(node.children[0]),
                region_child(node.children[1]),
                node._left_key,
                node._right_key,
                template=node,
            )
        raise TiogaError(
            f"no columnar kernel for {type(node).__name__}"
        )  # pragma: no cover — guarded by _columnar_capable

    def region_child(child: PlanNode) -> ColumnarNode:
        """Extend the region through capable children; adapt the rest."""
        if not _stop(child) and _columnar_capable(child):
            return as_kernel(child)
        return ToColumnsNode(walk(child))

    def _stop(node: PlanNode) -> bool:
        return (
            isinstance(node, (ScanNode, CacheNode))
            or hasattr(node, "columnar_info")
        )

    def walk(node: PlanNode) -> PlanNode:
        if _stop(node):
            return node
        if _columnar_capable(node) and _columnar_worthwhile(node):
            kernel = as_kernel(node)
            log.append(f"columnarized subtree at {node.describe()}")
            return ToRowsNode(kernel)
        node._children = tuple(walk(child) for child in node.children)
        return node

    return walk(root), log
