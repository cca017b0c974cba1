"""Plan caching and prepared-query reuse in the executor."""

import pytest

from repro.data import Database, Null, Relation
from repro.engine import (
    Executor,
    clear_plan_cache,
    execute_sql,
    plan_cache_stats,
)
from repro.sql.parser import parse_sql


@pytest.fixture
def db():
    n = Null()
    return Database(
        {
            "r": Relation(("a", "b"), [(1, 10), (2, 20), (n, 30)]),
            "s": Relation(("a",), [(1,), (2,)]),
        }
    )


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


class TestPlanCache:
    def test_repeated_sql_hits_cache(self, db):
        sql = "SELECT a FROM r WHERE a IS NOT NULL"
        first = execute_sql(db, sql)
        stats = plan_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 0
        second = execute_sql(db, sql)
        stats = plan_cache_stats()
        assert stats["hits"] == 1
        assert first.attributes == second.attributes
        assert first.rows == second.rows

    def test_null_semantics_share_one_entry(self, db):
        # The parse does not depend on the null semantics, so both runs
        # share one entry; each still answers under its own semantics
        # (the same null joins itself only under marked nulls).
        sql = "SELECT r1.b FROM r r1, r r2 WHERE r1.a = r2.a"
        sql_nulls = execute_sql(db, sql, marked_nulls=False)
        assert plan_cache_stats()["misses"] == 1
        marked = execute_sql(db, sql, marked_nulls=True)
        stats = plan_cache_stats()
        assert (stats["size"], stats["hits"], stats["misses"]) == (1, 1, 1)
        assert sorted(sql_nulls.rows) == [(10,), (20,)]
        assert sorted(marked.rows) == [(10,), (20,), (30,)]

    def test_clear_resets_everything(self, db):
        execute_sql(db, "SELECT a FROM r")
        clear_plan_cache()
        stats = plan_cache_stats()
        assert (stats["size"], stats["hits"], stats["misses"]) == (0, 0, 0)

    def test_cached_plan_is_isolated_across_databases(self, db):
        sql = "SELECT a FROM s"
        assert execute_sql(db, sql).rows == [(1,), (2,)]
        other = Database({"s": Relation(("a",), [(9,)])})
        assert execute_sql(other, sql).rows == [(9,)]
        assert plan_cache_stats()["hits"] == 1

    def test_ast_input_bypasses_cache(self, db):
        query = parse_sql("SELECT a FROM s")
        execute_sql(db, query)
        stats = plan_cache_stats()
        assert (stats["size"], stats["hits"], stats["misses"]) == (0, 0, 0)


class TestPreparedQuery:
    def test_rerun_returns_identical_relation(self, db):
        sql = (
            "SELECT r.a, r.b FROM r WHERE EXISTS "
            "(SELECT * FROM s WHERE s.a = r.a)"
        )
        prepared = Executor(db).prepare(parse_sql(sql))
        first = prepared.run()
        second = prepared.run()
        assert first.attributes == second.attributes
        assert first.rows == second.rows
        assert first.rows == execute_sql(db, sql).rows

    def test_rerun_amortises_probe_work(self, db):
        """The second run reuses indexes, probe tables and memo entries
        built during the first, so it examines no new build rows."""
        sql = (
            "SELECT b FROM r WHERE NOT EXISTS "
            "(SELECT * FROM s WHERE s.a = r.a)"
        )
        prepared = Executor(db).prepare(parse_sql(sql))
        prepared.run()
        built_once = prepared.ctx.probe_tables_built
        prepared.run()
        assert prepared.ctx.probe_tables_built == built_once

    def test_prepared_setop_and_distinct(self, db):
        sql = "SELECT a FROM r UNION SELECT a FROM s"
        prepared = Executor(db).prepare(parse_sql(sql))
        assert prepared.run().rows == prepared.run().rows
