"""EXPLAIN: plan rendering and the Section 7 cost-estimate story."""

import random

import pytest

from repro.engine import explain_sql
from repro.engine.blocks import CompiledBlock, ExecContext
from repro.engine.explain import estimate_block
from repro.sql.parser import parse_sql
from repro.sql.rewrite import rewrite_certain
from repro.tpch.datafiller import generate_small_instance
from repro.tpch.nullify import inject_nulls
from repro.tpch.queries import Q4_SQL, sample_parameters
from repro.tpch.schema import tpch_schema


@pytest.fixture(scope="module")
def db():
    return inject_nulls(generate_small_instance(scale=0.1, seed=3), 0.03, seed=4)


@pytest.fixture(scope="module")
def params(db):
    return sample_parameters("Q4", db, rng=random.Random(5))


def total_cost(db, query, params):
    ctx = ExecContext(db, params)
    block = CompiledBlock(query.body if hasattr(query, "body") else query, ctx, None)
    return estimate_block(block, correlated=False).total_cost()


class TestRendering:
    def test_mentions_tables_and_costs(self, db, params):
        text = explain_sql(db, Q4_SQL, params)
        assert "orders" in text
        assert "lineitem" in text
        assert "cost" in text

    def test_with_views_reported(self, db, params):
        schema = tpch_schema()
        split = rewrite_certain(parse_sql(Q4_SQL), schema)
        text = explain_sql(db, split, params)
        assert "WITH" in text and "materialised" in text


class TestCostStory:
    def test_unsplit_q4_estimate_is_astronomical(self):
        """Section 7: the naive rewrite's plan cost explodes relative to
        the original, and the gap *grows* with instance size (nested
        loops are quadratic where the original hash-joins)."""
        schema = tpch_schema()
        original = parse_sql(Q4_SQL)
        unsplit = rewrite_certain(original, schema, tune=False)
        ratios = []
        for scale in (0.2, 1.0):
            db = inject_nulls(
                generate_small_instance(scale=scale, seed=3), 0.03, seed=4
            )
            params = sample_parameters("Q4", db, rng=random.Random(5))
            ratios.append(
                total_cost(db, unsplit, params) / total_cost(db, original, params)
            )
        assert ratios[-1] > 5.0
        assert ratios[-1] > 2 * ratios[0]

    def test_unsplit_plan_contains_nested_loops(self, db, params):
        schema = tpch_schema()
        unsplit = rewrite_certain(parse_sql(Q4_SQL), schema, tune=False)
        text = explain_sql(db, unsplit, params)
        assert "nested loop" in text

    def test_split_plan_has_no_nested_loops(self, db, params):
        schema = tpch_schema()
        split = rewrite_certain(parse_sql(Q4_SQL), schema)
        text = explain_sql(db, split, params)
        assert "nested loop" not in text
        assert "hash probe" in text
