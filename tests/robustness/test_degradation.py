"""Graceful degradation: abandoned probe-table builds bit-match the
undegraded run and agree with stdlib sqlite3."""

import pytest

from repro.data import Database, Null, Relation
from repro.engine import Executor, ResourceLimits
from repro.sql.parser import parse_sql
from repro.testing.faults import InjectedFault, scan_fault

from ..engine.sqlite_ref import engine_bag, sqlite_rows


@pytest.fixture
def probe_db():
    """Outer r probes inner s; s is big enough to trip small budgets."""
    n = Null()
    return Database(
        {
            "r": Relation(("a", "b"), [(i, i % 7) for i in range(40)] + [(99, n)]),
            "s": Relation(("c", "d"), [(i % 7, i) for i in range(300)] + [(n, 0)]),
        }
    )


EXISTS_SQL = "SELECT a FROM r WHERE EXISTS (SELECT c FROM s WHERE s.c = r.b)"
NOT_EXISTS_SQL = "SELECT a FROM r WHERE NOT EXISTS (SELECT c FROM s WHERE s.c = r.b)"
IN_SQL = "SELECT a FROM r WHERE b IN (SELECT c FROM s WHERE s.d < 100)"
CORRELATED_IN_SQL = "SELECT a FROM r WHERE a IN (SELECT d FROM s WHERE s.c = r.b)"


def run(db, sql, **executor_kwargs):
    executor = Executor(db, **executor_kwargs)
    result = executor.execute(parse_sql(sql))
    return result, executor.ctx


@pytest.mark.parametrize(
    "sql", [EXISTS_SQL, NOT_EXISTS_SQL, CORRELATED_IN_SQL], ids=["exists", "not-exists", "in"]
)
class TestDegradationEquivalence:
    def test_degraded_matches_full(self, probe_db, sql):
        full, _ = run(probe_db, sql)
        degraded, ctx = run(
            probe_db, sql, limits=ResourceLimits(max_probe_build_rows=5)
        )
        assert ctx.degradations == 1
        assert ctx.probe_tables_built == 0
        assert degraded.attributes == full.attributes
        assert degraded.rows == full.rows  # bit-match, order included
        assert engine_bag(degraded.rows) == sqlite_rows(probe_db, sql)

    def test_undegraded_run_builds_the_table(self, probe_db, sql):
        full, ctx = run(probe_db, sql, limits=ResourceLimits(max_probe_build_rows=10**6))
        assert ctx.degradations == 0
        assert ctx.probe_tables_built == 1
        assert engine_bag(full.rows) == sqlite_rows(probe_db, sql)


class TestDegradationAccounting:
    def test_wasted_build_rows_are_charged_to_probe_build(self, probe_db):
        _, ctx = run(probe_db, EXISTS_SQL, limits=ResourceLimits(max_probe_build_rows=5))
        assert ctx.degradations == 1
        assert ctx.probe_build_rows > 0  # the abandoned build's work
        # Fallback probing (memoized) actually ran.
        assert ctx.probe_cache_hits + ctx.probe_cache_misses > 0
        assert ctx.decorrelated_probes == 0

    def test_degradation_does_not_disable_other_subqueries(self, probe_db):
        # A second, cheap subquery still decorrelates.
        sql = (
            "SELECT a FROM r WHERE EXISTS (SELECT c FROM s WHERE s.c = r.b) "
            "AND EXISTS (SELECT c FROM s WHERE s.c = r.a)"
        )
        full, _ = run(probe_db, sql)
        degraded, ctx = run(probe_db, sql, limits=ResourceLimits(max_probe_build_rows=5))
        # Both builds trip the budget here, but results stay correct.
        assert ctx.degradations >= 1
        assert degraded.rows == full.rows
        assert engine_bag(degraded.rows) == sqlite_rows(probe_db, sql)

    def test_uncorrelated_subqueries_unaffected(self, probe_db):
        # IN over an uncorrelated subquery never builds a probe table.
        full, ctx = run(probe_db, IN_SQL, limits=ResourceLimits(max_probe_build_rows=1))
        assert ctx.degradations == 0
        assert engine_bag(full.rows) == sqlite_rows(probe_db, IN_SQL)

    def test_degrading_after_a_cut_short_build_keeps_the_correlation(self, probe_db):
        # A fault cuts the first build short, below the cap; the rerun
        # trips the cap and degrades the predicate, which must restore
        # the inner block's correlated probes, not the stripped ones.
        full, _ = run(probe_db, NOT_EXISTS_SQL)
        executor = Executor(probe_db, limits=ResourceLimits(max_probe_build_rows=50))
        prepared = executor.prepare(parse_sql(NOT_EXISTS_SQL))
        with scan_fault("s", nth=3, times=1):
            with pytest.raises(InjectedFault):
                prepared.run()
        degraded = prepared.run()
        assert executor.ctx.degradations == 1
        assert degraded.rows == full.rows
        assert engine_bag(degraded.rows) == sqlite_rows(probe_db, NOT_EXISTS_SQL)
