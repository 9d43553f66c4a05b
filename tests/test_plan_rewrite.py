"""Property tests: plan optimization (repro.dbms.plan_rewrite)."""

from __future__ import annotations

import random

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


def random_plan(rng: random.Random, depth: int = 4) -> P.PlanNode:
    """A random single-branch plan over a random base row set.

    Samples only semantics-stable operators (no Bernoulli sampling without a
    seed; everything here is deterministic), stacking restricts and renames
    so backend selection has regions to find.
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
def test_property_optimize_preserves_rows_in_order(seed):
    rng = random.Random(seed)
    plan = random_plan(rng)
    baseline = [row.values for row in plan.execute()]
    optimized, __ = optimize_plan(random_plan(random.Random(seed)))
    assert [row.values for row in optimized.execute()] == baseline
    assert optimized.schema.names == plan.schema.names
