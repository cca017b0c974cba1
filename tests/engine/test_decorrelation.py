"""Correlated-subquery strategies: bucket path, probe tables, memoization.

Regression tests for the engine's three probe-amortisation strategies:

* the bucket path for single-source inner blocks correlated by
  ``local = outer.col`` probes: each outer row reads its bucket of the
  kept index and runs the residuals on it;
* hash semi-/anti-join probe tables for pure equi-correlated
  multi-source blocks;
* memoized probing keyed on the correlated values for everything else
  (e.g. the ``x = outer.y OR x IS NULL`` residual shape).

Results are checked against two references that share no probe code
path with the bucket path or the hash tables: stdlib ``sqlite3`` for
standard SQL nulls, and the engine's own memoized fallback, forced
everywhere by a zero probe-build budget
(``ResourceLimits(max_probe_build_rows=0)``).  The fallback is compared
row for row, order included, which also covers marked nulls with
repeated labels that sqlite cannot express.
"""

import random

import pytest

from repro.data import Database, Null, Relation
from repro.engine import Executor, ResourceLimits, execute_sql
from repro.sql.parser import parse_sql

from .sqlite_ref import engine_bag, sqlite_rows

#: Every probe-table build degrades to memoized probing at its first row,
#: and so does every bucket path whose index has a row.
FORCE_FALLBACK = ResourceLimits(max_probe_build_rows=0)


def run_counted(db, sql, params=None, **kwargs):
    executor = Executor(db, params, **kwargs)
    result = executor.execute(parse_sql(sql))
    return result, executor.ctx


def assert_matches_fallback(db, sql, marked_nulls=False):
    """The default run equals the forced memoized fallback row for row."""
    fast = execute_sql(db, sql, marked_nulls=marked_nulls)
    slow = execute_sql(db, sql, marked_nulls=marked_nulls, limits=FORCE_FALLBACK)
    assert fast.attributes == slow.attributes, sql
    assert fast.rows == slow.rows, sql
    return fast


@pytest.fixture
def skewed_db():
    """200 outer rows over only 5 distinct correlation keys, and an inner
    table whose correlated residual forces a scan per probe."""
    n = Null()
    outer = Relation(("k", "tag"), [(i % 5, i) for i in range(200)])
    inner = Relation(("k", "v"), [(i % 7, i) for i in range(70)] + [(n, -1)])
    return Database({"outer_t": outer, "inner_t": inner})


NOT_EXISTS_PROBE = (
    "SELECT tag FROM outer_t WHERE NOT EXISTS "
    "(SELECT * FROM inner_t WHERE inner_t.k = outer_t.k)"
)
NOT_EXISTS_RESIDUAL = (
    "SELECT tag FROM outer_t WHERE NOT EXISTS "
    "(SELECT * FROM inner_t WHERE inner_t.k = outer_t.k OR inner_t.k IS NULL)"
)


class TestDecorrelation:
    def test_pure_probe_not_exists_reads_one_bucket_row_per_probe(self, skewed_db):
        """A single-source block takes the bucket path: no probe table,
        no memo lookup, and each NOT EXISTS stops at the first row of its
        bucket.  The memoized fallback runs the inner block once per
        distinct key (5), the bucket path reads one row per outer row
        (200)."""
        fast, fast_ctx = run_counted(skewed_db, NOT_EXISTS_PROBE)
        slow, slow_ctx = run_counted(skewed_db, NOT_EXISTS_PROBE, limits=FORCE_FALLBACK)
        assert slow_ctx.degradations == 1
        assert fast.attributes == slow.attributes
        assert fast.rows == slow.rows
        assert engine_bag(fast.rows) == sqlite_rows(skewed_db, NOT_EXISTS_PROBE)
        assert fast_ctx.probe_tables_built == 0
        assert fast_ctx.probe_build_rows == 0
        assert fast_ctx.probe_cache_hits + fast_ctx.probe_cache_misses == 0
        assert fast_ctx.decorrelated_probes == 200
        assert fast_ctx.rows_examined == 200 + 200
        # A memo probe's block lists its whole step, with no stop at the
        # first witness: each of the 5 keys' buckets holds 10 of inner_t's
        # rows (k = i % 7 over 70 rows), so 5 * 10, where the per-row
        # loop that stopped at the first witness read 5 * 1.
        assert slow_ctx.rows_examined == 200 + 5 * 10

    def test_multi_table_inner_block_decorrelates(self):
        """A join inside the subquery used to re-run once per outer row."""
        outer = Relation(("k",), [(i % 4, ) for i in range(100)])
        a = Relation(("k", "x"), [(i % 4, i) for i in range(40)])
        b = Relation(("x",), [(i, ) for i in range(0, 40, 2)])
        db = Database({"outer_t": outer, "a": a, "b": b})
        sql = (
            "SELECT k FROM outer_t WHERE EXISTS "
            "(SELECT * FROM a, b WHERE a.k = outer_t.k AND a.x = b.x)"
        )
        fast, fast_ctx = run_counted(db, sql)
        slow, slow_ctx = run_counted(db, sql, limits=FORCE_FALLBACK)
        assert slow_ctx.degradations == 1
        assert fast.rows == slow.rows
        assert engine_bag(fast.rows) == sqlite_rows(db, sql)
        assert fast_ctx.rows_examined < slow_ctx.rows_examined
        assert fast_ctx.probe_tables_built == 1

    def test_residual_correlation_falls_back_to_memo(self, skewed_db):
        """`OR … IS NULL` correlation cannot hash-decorrelate; the memo
        cache amortises the 200 probes over the 5 distinct keys."""
        fast, fast_ctx = run_counted(skewed_db, NOT_EXISTS_RESIDUAL)
        assert engine_bag(fast.rows) == sqlite_rows(skewed_db, NOT_EXISTS_RESIDUAL)
        assert fast_ctx.probe_tables_built == 0
        assert fast_ctx.probe_cache_misses == 5
        assert fast_ctx.probe_cache_hits == 195

    def test_in_subquery_decorrelates(self, skewed_db):
        sql = (
            "SELECT tag FROM outer_t WHERE tag IN "
            "(SELECT v FROM inner_t WHERE inner_t.k = outer_t.k)"
        )
        fast, fast_ctx = run_counted(skewed_db, sql)
        assert engine_bag(fast.rows) == sqlite_rows(skewed_db, sql)
        assert_matches_fallback(skewed_db, sql)
        assert fast_ctx.probe_tables_built == 0  # one source: the bucket path
        assert fast_ctx.decorrelated_probes == 200
        assert fast_ctx.probe_cache_hits + fast_ctx.probe_cache_misses == 0

    def test_not_in_subquery_memoizes(self, skewed_db):
        sql = (
            "SELECT tag FROM outer_t WHERE tag NOT IN "
            "(SELECT v FROM inner_t WHERE inner_t.k = outer_t.k OR inner_t.v < 0)"
        )
        fast, fast_ctx = run_counted(skewed_db, sql)
        assert engine_bag(fast.rows) == sqlite_rows(skewed_db, sql)
        assert fast_ctx.probe_cache_hits > 0

    def test_deeper_correlation_not_decorrelated_but_correct(self):
        """Two-level correlation (grandparent reference) must take the
        memo path, never the bucket or hash-table path.  The outer EXISTS
        reads r only, so it takes the bucket path (one probe per r row);
        the nested EXISTS reads no column of s, so each probe that finds
        a bucket runs it once, memoized on r.a."""
        db = Database(
            {
                "r": Relation(("a",), [(1,), (2,), (3,)]),
                "s": Relation(("a",), [(2,), (3,)]),
                "t": Relation(("a",), [(3,)]),
            }
        )
        sql = (
            "SELECT a FROM r WHERE EXISTS (SELECT * FROM s "
            "WHERE s.a = r.a AND EXISTS (SELECT * FROM t WHERE t.a = r.a))"
        )
        fast, fast_ctx = run_counted(db, sql)
        assert fast.rows == [(3,)]
        assert fast_ctx.probe_tables_built == 0
        assert fast_ctx.decorrelated_probes == 3  # the outer EXISTS only
        assert fast_ctx.probe_cache_misses == 2  # r.a = 2 and 3 find a bucket
        assert fast.rows == execute_sql(db, sql, limits=FORCE_FALLBACK).rows


class TestNullKeys:
    """NULL correlation keys: `=` is UNKNOWN, so probes never match."""

    @pytest.fixture
    def null_key_db(self):
        n1, n2 = Null(), Null()
        return Database(
            {
                "r": Relation(("a",), [(1,), (n1,), (3,)]),
                "s": Relation(("a",), [(1,), (n1,), (n2,)]),
            }
        )

    QUERIES = [
        "SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.a = r.a)",
        "SELECT a FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE s.a = r.a)",
        "SELECT a FROM r WHERE a IN (SELECT a FROM s WHERE s.a = r.a)",
        "SELECT a FROM r WHERE a NOT IN (SELECT a FROM s WHERE s.a = r.a)",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    @pytest.mark.parametrize("marked", [False, True])
    def test_equivalence_with_null_keys(self, null_key_db, sql, marked):
        result = assert_matches_fallback(null_key_db, sql, marked_nulls=marked)
        if not marked:
            assert engine_bag(result.rows) == sqlite_rows(null_key_db, sql)

    def test_marked_null_probe_matches_same_null(self, null_key_db):
        """Under marked-null semantics ⊥1 = ⊥1 is TRUE, so the shared
        null row must survive the semi-join on both probe paths."""
        result = assert_matches_fallback(null_key_db, self.QUERIES[0], marked_nulls=True)
        assert len(result.rows) == 2  # (1,) and the shared marked null


EQUIVALENCE_CORPUS = [
    "SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.a = r.a)",
    "SELECT a FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE s.a = r.a)",
    "SELECT a FROM r WHERE NOT EXISTS "
    "(SELECT * FROM s WHERE s.a = r.a OR s.a IS NULL)",
    "SELECT a FROM r WHERE a IN (SELECT b FROM s WHERE s.a = r.a)",
    "SELECT a FROM r WHERE a NOT IN (SELECT b FROM s WHERE s.a = r.a)",
    "SELECT r.a, r.b FROM r WHERE EXISTS "
    "(SELECT * FROM s WHERE s.a = r.a AND s.b = r.b)",
    "SELECT a FROM r WHERE EXISTS "
    "(SELECT * FROM s WHERE s.a = r.a AND s.b > 1)",
    "SELECT a FROM r WHERE NOT EXISTS "
    "(SELECT * FROM s WHERE s.a = r.a AND NOT EXISTS "
    "(SELECT * FROM t WHERE t.a = s.b))",
]


class TestRandomisedEquivalence:
    """Decorrelated evaluation is byte-identical to the forced memoized
    fallback on random incomplete databases with repeated null labels,
    in both null semantics.  (These shapes are also checked against
    sqlite3 in ``test_compile_differential.TEMPLATES``.)"""

    def random_db(self, rng):
        def cell():
            if rng.random() < 0.25:
                return Null(rng.choice([100, 101, 102]))  # repeatable marks
            return rng.choice([1, 2, 3])

        def rows(width, count):
            return [tuple(cell() for _ in range(width)) for _ in range(count)]

        return Database(
            {
                "r": Relation(("a", "b"), rows(2, rng.randint(1, 6))),
                "s": Relation(("a", "b"), rows(2, rng.randint(1, 6))),
                "t": Relation(("a",), rows(1, rng.randint(1, 4))),
            }
        )

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("marked", [False, True])
    def test_corpus(self, seed, marked):
        rng = random.Random(seed)
        db = self.random_db(rng)
        for sql in EQUIVALENCE_CORPUS:
            assert_matches_fallback(db, sql, marked_nulls=marked)
