"""Graceful degradation: abandoned probe-table builds and bucket paths
bit-match the undegraded run and agree with stdlib sqlite3."""

import pytest

from repro.data import Database, Null, Relation
from repro.engine import Executor, ResourceLimits
from repro.sql.parser import parse_sql
from repro.testing.faults import InjectedFault, scan_fault

from ..engine.sqlite_ref import engine_bag, sqlite_rows


@pytest.fixture
def probe_db():
    return make_probe_db()


def make_probe_db():
    """Outer r probes inner s (joined to t in the multi-source blocks);
    s is big enough to trip small budgets."""
    n = Null()
    return Database(
        {
            "r": Relation(("a", "b"), [(i, i % 7) for i in range(40)] + [(99, n)]),
            "s": Relation(("c", "d"), [(i % 7, i) for i in range(300)] + [(n, 0)]),
            "t": Relation(("e",), [(i,) for i in range(0, 300, 2)]),
        }
    )


# Multi-source inner blocks: a probe table, built once.
EXISTS_SQL = "SELECT a FROM r WHERE EXISTS (SELECT c FROM s, t WHERE s.c = r.b AND s.d = t.e)"
NOT_EXISTS_SQL = (
    "SELECT a FROM r WHERE NOT EXISTS (SELECT c FROM s, t WHERE s.c = r.b AND s.d = t.e)"
)
CORRELATED_IN_SQL = "SELECT a FROM r WHERE a IN (SELECT d FROM s, t WHERE s.c = r.b AND s.d = t.e)"
# Single-source inner blocks: the bucket path over the kept index on s.c.
BUCKET_EXISTS_SQL = "SELECT a FROM r WHERE EXISTS (SELECT c FROM s WHERE s.c = r.b)"
BUCKET_NOT_EXISTS_SQL = (
    "SELECT a FROM r WHERE NOT EXISTS (SELECT c FROM s WHERE s.c = r.b AND s.d <> r.a)"
)
BUCKET_IN_SQL = "SELECT a FROM r WHERE a IN (SELECT d FROM s WHERE s.c = r.b)"
IN_SQL = "SELECT a FROM r WHERE b IN (SELECT c FROM s WHERE s.d < 100)"

TABLE_CASES = [EXISTS_SQL, NOT_EXISTS_SQL, CORRELATED_IN_SQL]
BUCKET_CASES = [BUCKET_EXISTS_SQL, BUCKET_NOT_EXISTS_SQL, BUCKET_IN_SQL]
CASE_IDS = ["exists", "not-exists", "in"]


def run(db, sql, **executor_kwargs):
    executor = Executor(db, **executor_kwargs)
    result = executor.execute(parse_sql(sql))
    return result, executor.ctx


@pytest.mark.parametrize(
    "sql",
    TABLE_CASES + BUCKET_CASES,
    ids=CASE_IDS + [f"bucket-{case}" for case in CASE_IDS],
)
class TestDegradationEquivalence:
    def test_degraded_matches_full(self, probe_db, sql):
        full, _ = run(probe_db, sql)
        degraded, ctx = run(
            probe_db, sql, limits=ResourceLimits(max_probe_build_rows=5)
        )
        assert ctx.degradations == 1
        assert ctx.probe_tables_built == 0
        assert ctx.decorrelated_probes == 0
        assert degraded.attributes == full.attributes
        assert degraded.rows == full.rows  # bit-match, order included
        assert engine_bag(degraded.rows) == sqlite_rows(probe_db, sql)


@pytest.mark.parametrize("sql", TABLE_CASES, ids=CASE_IDS)
def test_undegraded_run_builds_the_table(probe_db, sql):
    full, ctx = run(probe_db, sql, limits=ResourceLimits(max_probe_build_rows=10**6))
    assert ctx.degradations == 0
    assert ctx.probe_tables_built == 1
    assert engine_bag(full.rows) == sqlite_rows(probe_db, sql)


@pytest.mark.parametrize("sql", BUCKET_CASES, ids=CASE_IDS)
def test_undegraded_run_reads_buckets(probe_db, sql):
    """s's 301 rows are within the cap: every r row reads its bucket."""
    full, ctx = run(probe_db, sql, limits=ResourceLimits(max_probe_build_rows=301))
    assert ctx.degradations == 0
    assert ctx.probe_tables_built == ctx.probe_build_rows == 0
    assert ctx.decorrelated_probes == 41
    assert ctx.probe_cache_hits + ctx.probe_cache_misses == 0
    assert engine_bag(full.rows) == sqlite_rows(probe_db, sql)


@pytest.mark.parametrize("sql", BUCKET_CASES, ids=CASE_IDS)
def test_bucket_path_degrades_on_reuse_where_it_would_on_build(probe_db, sql):
    """The cap is held against the kept index's row count: a statement
    that reuses the index degrades exactly as one that would build it."""
    run(probe_db, sql)  # keeps s's index
    assert (frozenset(), ("c",), (0,)) in probe_db["s"].indexes
    limits = ResourceLimits(max_probe_build_rows=300)
    reused, ctx_r = run(probe_db, sql, limits=limits)
    built, ctx_b = run(make_probe_db(), sql, limits=limits)
    assert ctx_r.degradations == ctx_b.degradations == 1
    assert reused.rows == built.rows
    assert engine_bag(reused.rows) == sqlite_rows(probe_db, sql)


class TestDegradationAccounting:
    def test_wasted_build_rows_are_charged_to_probe_build(self, probe_db):
        _, ctx = run(probe_db, EXISTS_SQL, limits=ResourceLimits(max_probe_build_rows=5))
        assert ctx.degradations == 1
        assert ctx.probe_build_rows > 0  # the abandoned build's work
        # Fallback probing (memoized) actually ran.
        assert ctx.probe_cache_hits + ctx.probe_cache_misses > 0
        assert ctx.decorrelated_probes == 0

    def test_bucket_path_degrades_before_reading_a_row(self, probe_db):
        # The index's row count is known before any bucket is read.
        _, ctx = run(
            probe_db, BUCKET_EXISTS_SQL, limits=ResourceLimits(max_probe_build_rows=5)
        )
        assert ctx.degradations == 1
        assert ctx.probe_build_rows == 0
        assert ctx.probe_cache_hits + ctx.probe_cache_misses == 41
        assert ctx.decorrelated_probes == 0

    def test_bucket_path_over_the_byte_cap_degrades_to_memo(self, probe_db):
        # The kept index on s.c is over the cap, and so is the memoized
        # fallback's probe index, the same kept entry: two degradations.
        full, _ = run(probe_db, BUCKET_NOT_EXISTS_SQL)
        capped, ctx = run(
            probe_db, BUCKET_NOT_EXISTS_SQL, limits=ResourceLimits(max_probe_table_bytes=1)
        )
        assert ctx.degradations == 2
        assert ctx.table_bytes == 0
        assert ctx.decorrelated_probes == 0
        assert capped.rows == full.rows
        assert engine_bag(capped.rows) == sqlite_rows(probe_db, BUCKET_NOT_EXISTS_SQL)

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


def make_fanout_db():
    """The inner block u ⋈ v ⋈ w runs u (4 rows), then v (each u row
    joins a bucket of 100 rows: a 400-row step), then w, whose 2 rows
    join only the bucket of u's last row, so the block's last step lists
    2 rows, both after the first 300 of v's."""
    return Database(
        {
            "r": Relation(("a", "b"), [(i, i % 6) for i in range(12)] + [(3, Null())]),
            "u": Relation(("c", "x"), [(k, k) for k in range(4)]),
            "v": Relation(("x", "y"), [(i % 4, i) for i in range(400)]),
            "w": Relation(("y",), [(3,), (7,)] + [(10_000 + i,) for i in range(2000)]),
        }
    )


FANOUT_INNER = "FROM u, v, w WHERE u.c = r.b AND u.x = v.x AND v.y = w.y"
FANOUT_CASES = [
    f"SELECT a FROM r WHERE EXISTS (SELECT * {FANOUT_INNER})",
    f"SELECT a FROM r WHERE NOT EXISTS (SELECT * {FANOUT_INNER})",
    f"SELECT a FROM r WHERE a IN (SELECT w.y {FANOUT_INNER})",
]


@pytest.mark.parametrize("sql", FANOUT_CASES, ids=CASE_IDS)
def test_build_cap_stops_an_intermediate_step(sql):
    """A probe-table build stops listing once its rows pass
    ``max_probe_build_rows``, at the end of the bucket that crossed it,
    not at the inner join's first output row: its rows stay within the
    cap plus the largest bucket a step reads (100 of v's rows)."""
    db = make_fanout_db()
    full, full_ctx = run(db, sql)
    assert full_ctx.probe_tables_built == 1
    assert full_ctx.probe_build_rows == 4 + 400 + 2
    cap = 50
    capped, ctx = run(db, sql, limits=ResourceLimits(max_probe_build_rows=cap))
    assert ctx.degradations == 1
    assert ctx.probe_tables_built == 0
    assert capped.rows == full.rows
    assert engine_bag(capped.rows) == sqlite_rows(db, sql)
    largest_bucket = 100
    assert ctx.probe_build_rows <= cap + largest_bucket
