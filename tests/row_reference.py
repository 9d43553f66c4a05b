"""The row backend: the semantic reference for every engine demand.

An engine demand runs :func:`repro.dbms.plan_rewrite.optimize_plan` on each
unstarted plan, which moves worthwhile subtrees onto the columnar
kernels.  :func:`row_backend` patches that call
to the identity, so plans execute exactly as the boxes emitted them, one
tuple at a time on the row operators.  The equivalence suites
(tests/test_cache_property.py, tests/test_columnar.py,
tests/test_protocol_equivalence.py) compare the default path against it;
:func:`row_shape` reduces an ``explain_data`` plan tree to what both paths
must agree on.
"""

from __future__ import annotations

from contextlib import contextmanager

import repro.dataflow.engine as engine


def _unoptimized(root):
    return root, []


@contextmanager
def row_backend():
    """Run every engine demand inside the block on the unrewritten plan."""
    original = engine.optimize_plan
    engine.optimize_plan = _unoptimized
    try:
        yield
    finally:
        engine.optimize_plan = original


_ADAPTERS = ("ToRows", "ToColumns")


def row_shape(tree: dict) -> dict:
    """An ``explain_data`` plan tree as the row backend would report it.

    Splices out the ToRows/ToColumns adapters and keeps each remaining
    node's operator, description and row counters.  A columnar kernel
    counts rows in and out exactly as the row operator it replaced, so
    these match node for node; ``batches``, ``backend`` and node ids are
    per-backend details and are dropped.
    """
    while tree["op"] in _ADAPTERS:
        (tree,) = tree["children"]
    stats = tree["stats"]
    return {
        "op": tree["op"],
        "describe": tree["describe"],
        "rows_in": stats["rows_in"],
        "rows_out": stats["rows_out"],
        "opens": stats["opens"],
        "children": [row_shape(child) for child in tree["children"]],
    }
