"""Plan-IR optimization: columnar backend selection, then verification.

The graph-level optimizer (:mod:`repro.dataflow.optimize`) restructures
boxes-and-arrows programs.  Inside a physical plan the engine only picks
the backend: :func:`columnarize_plan` swaps each profitable subtree onto
vectorized kernels, and :func:`optimize_plan` checks the result.  Each
box's plan is one operator over a ``Cache`` node, so there is nothing
below a box boundary to reorder.
"""

from __future__ import annotations

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
    plan_verifier,
)
from repro.errors import StaticAnalysisError, TiogaError

__all__ = ["optimize_plan", "columnarize_plan"]


def optimize_plan(
    root: PlanNode, log: list[str] | None = None
) -> tuple[PlanNode, list[str]]:
    """Columnarize, then verify; returns (new root, log).

    Backend selection rebuilds nodes (constructors re-validate), so only
    apply this to plans that have not started executing — rebuilt nodes
    carry fresh stats.  The engine runs it on every demanded plan before
    first execution.  Output rows, order, and schemas are unchanged: the
    root schema is checked unconditionally, and when a plan verifier is
    installed (``REPRO_PLAN_VERIFY=1``) the whole tree is re-verified
    against the plan-IR invariants.
    """
    original_schema = root.schema
    root, log = columnarize_plan(root, log)
    if root.schema != original_schema:
        raise StaticAnalysisError(
            f"plan optimization changed the root schema from "
            f"{original_schema!r} to {root.schema!r} (log: {log})"
        )
    verifier = plan_verifier()
    if verifier is not None:
        verifier(root)
    return root, log


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
    Cache boundaries, and columnar operators stop the walk; everything
    outside a region stays on the row backend untouched.  Row output, ordering, and schemas are invariant.
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
