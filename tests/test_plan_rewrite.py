"""Unit + property tests: plan-IR rewrites (repro.dbms.plan_rewrite)."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.dbms import plan as P
from repro.dbms.parser import parse_predicate
from repro.dbms.plan_rewrite import optimize_plan
from repro.dbms.relation import RowSet
from repro.dbms.tuples import Schema

SCHEMA = Schema([("a", "int"), ("b", "int"), ("tag", "text")])


def rows(count: int = 20, seed: int = 0) -> RowSet:
    rng = random.Random(seed)
    return RowSet.from_dicts(
        SCHEMA,
        [
            {
                "a": rng.randrange(10),
                "b": rng.randrange(10),
                "tag": rng.choice("xyz"),
            }
            for __ in range(count)
        ],
    )


def restrict(child: P.PlanNode, source: str) -> P.RestrictNode:
    return P.RestrictNode(child, parse_predicate(source, child.schema))


def rewrite(plan: P.PlanNode) -> tuple[P.PlanNode, list[str]]:
    """``optimize_plan`` read back as the rewritten row plan.

    The pass ends by moving worthwhile subtrees onto columnar kernels; each
    kernel keeps the row operator it replaced as its ``template``, so the
    row plan the rules produced is the template under the ToRows adapter.
    Backend choices are dropped from the log.
    """
    optimized, log = optimize_plan(plan)
    if isinstance(optimized, P.ToRowsNode):
        optimized = optimized.children[0].template
    return optimized, [line for line in log
                       if not line.startswith("columnarized")]


class TestRewriteRules:
    def test_merges_adjacent_restricts(self):
        plan = restrict(restrict(P.ScanNode(rows()), "a > 2"), "a < 8")
        optimized, log = rewrite(plan)
        assert isinstance(optimized, P.RestrictNode)
        assert isinstance(optimized.children[0], P.ScanNode)
        assert any("merged adjacent restricts" in line for line in log)

    def test_pushes_restrict_below_rename(self):
        renamed = P.RenameNode(P.ScanNode(rows()), "a", "alpha")
        plan = restrict(renamed, "alpha > 4")
        optimized, log = rewrite(plan)
        assert isinstance(optimized, P.RenameNode)
        inner = optimized.children[0]
        assert isinstance(inner, P.RestrictNode)
        assert "(a > 4)" in inner.describe()  # predicate rewritten to old name
        assert any("pushed restrict below Rename" in line for line in log)

    def test_pushes_restrict_below_project_orderby_distinct(self):
        chain = P.DistinctNode(
            P.OrderByNode(P.ProjectNode(P.ScanNode(rows()), ["a", "b"]), ["b"])
        )
        plan = restrict(chain, "a > 4")
        optimized, __ = rewrite(plan)
        # The restrict sank to just above the scan.
        node = optimized
        kinds = []
        while True:
            kinds.append(type(node).__name__)
            if not node.children:
                break
            node = node.children[0]
        assert kinds == [
            "DistinctNode", "OrderByNode", "ProjectNode",
            "RestrictNode", "ScanNode",
        ]

    def test_blocked_by_union(self):
        union = P.UnionNode(P.ScanNode(rows(seed=1)), P.ScanNode(rows(seed=2)))
        plan = restrict(union, "a > 4")
        optimized, log = rewrite(plan)
        assert isinstance(optimized, P.RestrictNode)
        assert isinstance(optimized.children[0], P.UnionNode)
        assert log == []

    def test_blocked_by_group_by(self):
        grouped = P.GroupByNode(
            P.ScanNode(rows()), ["tag"], [("count", "a", "c")]
        )
        plan = restrict(grouped, "c > 1")
        optimized, log = rewrite(plan)
        assert isinstance(optimized, P.RestrictNode)
        assert isinstance(optimized.children[0], P.GroupByNode)
        assert log == []

    def test_blocked_by_sample_limit_and_cache(self):
        for child in (
            P.SampleNode(P.ScanNode(rows()), 0.5, seed=1),
            P.LimitNode(P.ScanNode(rows()), 5),
            P.CacheNode(P.LazyRowSet(P.ScanNode(rows()))),
        ):
            plan = restrict(child, "a > 4")
            optimized, log = rewrite(plan)
            assert type(optimized.children[0]) is type(child)
            assert log == []


def random_plan(rng: random.Random, depth: int = 4) -> P.PlanNode:
    """A random single-branch plan over a random base row set.

    Samples only semantics-stable operators (no Bernoulli sampling without a
    seed; everything here is deterministic), stacking restricts and renames
    so the rewriter has real work to do.
    """
    node: P.PlanNode = P.ScanNode(rows(count=rng.randrange(0, 30), seed=rng.random()))
    renamed = False
    for __ in range(rng.randrange(1, depth + 1)):
        roll = rng.random()
        field = "alpha" if renamed else "a"
        if roll < 0.45:
            node = restrict(
                node, f"{field} {rng.choice(['>', '<', '>='])} {rng.randrange(10)}"
            )
        elif roll < 0.6 and not renamed:
            node = P.RenameNode(node, "a", "alpha")
            renamed = True
        elif roll < 0.7:
            node = P.OrderByNode(node, ["b"])
        elif roll < 0.8:
            node = P.DistinctNode(node)
        elif roll < 0.9:
            node = P.UnionNode(
                node, P.ScanNode(RowSet(node.schema, list(node.execute())))
            )
        else:
            names = list(node.schema.names)
            rng.shuffle(names)
            node = P.ProjectNode(node, names)
    return node


@pytest.mark.parametrize("seed", range(30))
def test_property_optimize_preserves_row_multiset(seed):
    rng = random.Random(seed)
    plan = random_plan(rng)
    baseline = Counter(row.values for row in plan.execute())
    optimized, __ = optimize_plan(random_plan(random.Random(seed)))
    assert Counter(row.values for row in optimized.execute()) == baseline
    assert optimized.schema.names == plan.schema.names
