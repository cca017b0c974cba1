"""EXPLAIN: plan rendering and the Section 7 cost-estimate story."""

import random
import re

import pytest

from repro.engine import Executor, explain_sql
from repro.engine.blocks import CompiledBlock, ExecContext
from repro.engine.explain import estimate_block
from repro.sql.parser import parse_sql
from repro.sql.rewrite import rewrite_certain
from repro.tpch.datafiller import generate_small_instance
from repro.tpch.dbgen import generate_instance
from repro.tpch.nullify import inject_nulls
from repro.tpch.queries import Q4_SQL, QUERIES, sample_parameters
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


def _estimated_total(text):
    return float(re.search(r"-- total estimated cost: (\d+)", text).group(1))


class TestOnePlanModel:
    def test_estimates_track_work(self):
        """One model, costed in rows: the total estimated cost is the
        rows one run examines, probe-table builds included."""
        db = inject_nulls(generate_instance(scale=1.0, seed=0), 0.03, seed=1)
        for name in ("Q2", "Q3", "Q3+", "Q4", "Q4+"):
            qid = name.rstrip("+")
            sql = QUERIES[qid][1 if name.endswith("+") else 0]
            params = sample_parameters(qid, db, rng=random.Random(3))
            estimate = _estimated_total(explain_sql(db, sql, params))
            executor = Executor(db, params)
            executor.execute(parse_sql(sql))
            actual = executor.ctx.rows_examined + executor.ctx.probe_build_rows
            assert actual / 1.5 <= estimate <= actual * 1.5, (name, estimate, actual)

    def test_set_operation_explains_each_operand(self, db):
        text = explain_sql(
            db, "SELECT o_orderkey FROM orders UNION SELECT l_orderkey FROM lineitem"
        )
        assert text.count("block over") == 2
        assert "block over orders" in text and "block over lineitem" in text
        assert "-- total estimated cost:" in text

    def test_bucket_path_names_the_kept_index(self, db):
        """A single-source subquery reads one bucket per probe: the line
        names the index and the probes, its rows are the average bucket
        (rows per distinct l_orderkey), and nothing is built."""
        params = sample_parameters("Q3", db, rng=random.Random(5))
        text = explain_sql(db, QUERIES["Q3"][1], params)
        probes = len(db["orders"])
        per_bucket = len(db["lineitem"]) / len(set(r[0] for r in db["lineitem"].rows))
        match = re.search(
            rf"  NOT EXISTS \(kept index \[l_orderkey\], ×{probes} probes\)  \(rows≈(\d+), ",
            text,
        )
        assert match, text
        assert abs(int(match.group(1)) - per_bucket) <= 1
        assert "probe table" not in text and "invocations" not in text

    def test_decorrelated_predicate_costs_one_build(self, db, params):
        text = explain_sql(db, Q4_SQL, params)
        assert "NOT EXISTS (probe table, one build)" in text
        assert "invocations" not in text


_COUNTERS = (
    "rows_examined",
    "probe_cache_hits",
    "probe_cache_misses",
    "decorrelated_probes",
    "probe_tables_built",
    "probe_build_rows",
    "degradations",
    "table_bytes",
)


def _statements():
    schema = tpch_schema()
    for qid in ("Q1", "Q2", "Q3", "Q4"):
        original = parse_sql(QUERIES[qid][0])
        yield qid, original
        yield qid, rewrite_certain(original, schema)
        yield qid, rewrite_certain(original, schema, tune=False)


class TestExplainHasNoSideEffects:
    @pytest.mark.parametrize("draw", range(4))
    def test_explain_before_run_changes_nothing(self, db, draw):
        """48 cases: Q1–Q4, tuned and untuned Q+, four parameter draws.
        Explaining first (and between runs) leaves the rows and every
        work counter as a plain run leaves them."""
        for qid, query in _statements():
            params = sample_parameters(qid, db, rng=random.Random(draw))
            plain = Executor(db, params).prepare(query)
            explained = Executor(db, params).prepare(query)
            for _ in range(2):
                explained.explain()
                rows = explained.run().rows
                assert rows == plain.run().rows, qid
                for counter in _COUNTERS:
                    assert getattr(explained.ctx, counter) == getattr(
                        plain.ctx, counter
                    ), (qid, counter)
