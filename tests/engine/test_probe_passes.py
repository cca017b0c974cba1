"""Probe passes: a statement block's first-step residuals as passes.

A block with no correlated reference runs the residuals attached to its
first join step as passes over that step's row list, in conjunct order.
A grouped ``[NOT] EXISTS`` or ``[NOT] IN`` runs its own pass: one loop
over the rows into its groups, which scans a found group's rows or reads
the answer a multi-source build stored for its key; any other residual
calls its compiled closure per row.  These tests pin that the passes
answer as the memoized fallback does (row for row, both null semantics)
and as sqlite does under SQL nulls, that a multi-source block whose
conditions or output read the outer row is grouped too, that they count
what per-row probing counts, and that a cancel or a row budget stops a
statement inside a pass.

References: the memoized fallback forced by
``ResourceLimits(max_probe_build_rows=0)`` (every predicate then calls
its closure per row inside the pass), stdlib ``sqlite3``, and counts
worked out by hand.
"""

import pytest

from repro.data import Database, Null, Relation
from repro.engine import CancelToken, QueryCancelled, ResourceLimits, RowBudgetExceeded
from repro.engine import blocks
from repro.engine.limits import LimitGovernor

from .probe_instances import random_db, run
from .sqlite_ref import engine_bag, sqlite_rows

#: Every grouped probe whose build has a row degrades to memo probing.
FORCE_FALLBACK = ResourceLimits(max_probe_build_rows=0)

#: One inner source (the kept index): the bare key probe, a filter with a
#: parameter (checked per group row) and a residual reading the outer row.
BUCKET_INNER = [
    "FROM s WHERE s.c = r.a",
    "FROM s WHERE s.c = r.a AND s.y <> $p",
    "FROM s WHERE s.c = r.a AND s.y <> r.x",
]

#: Two inner sources whose conditions and output read no outer column
#: (each key's answer stored), with and without a constant.
TABLE_INNER = [
    "FROM s, t WHERE s.c = r.a AND s.z = t.e",
    "FROM s, t WHERE s.c = r.a AND s.z = t.e AND t.f <> $p",
]


def predicates(inner, out):
    return [
        f"EXISTS (SELECT * {inner})",
        f"NOT EXISTS (SELECT * {inner})",
        f"r.x IN (SELECT {out} {inner})",
        f"r.x NOT IN (SELECT {out} {inner})",
    ]


#: Two inner sources with a residual, a pre-join condition or an output
#: that reads the outer row: the build leaves it out and the scan runs it
#: on the key's group.
OUTER_READING = [
    "EXISTS (SELECT * FROM s, t WHERE s.c = r.a AND t.e = s.y AND t.f <> r.x)",
    "NOT EXISTS (SELECT * FROM s, t WHERE s.c = r.a AND t.e = s.y AND t.f <> r.x)",
    "NOT EXISTS (SELECT * FROM s, t WHERE s.c = r.a AND t.e = s.y "
    "AND (t.f <> r.x OR t.f IS NULL))",
    "r.x IN (SELECT t.f FROM s, t WHERE s.c = r.a AND t.e = s.y AND s.z <> r.x)",
    "r.x NOT IN (SELECT t.f FROM s, t WHERE s.c = r.a AND t.e = s.y AND s.z <> r.x)",
    "EXISTS (SELECT * FROM s, t WHERE s.c = r.a AND t.e = s.y AND r.x <> $p)",
    "r.a NOT IN (SELECT r.x FROM s, t WHERE s.c = r.a AND t.e = s.y)",
]

PREDICATES = (
    [p for inner in BUCKET_INNER for p in predicates(inner, "s.y")]
    + [p for inner in TABLE_INNER for p in predicates(inner, "t.f")]
    + OUTER_READING
)

#: A scalar-subquery residual ahead of the probe: the probe's pass sees
#: only the rows the first pass kept.
SCALAR = "r.x > (SELECT AVG(s.y) FROM s)"


def cases():
    """``(sql, whether every outer row reaches the one probe)``."""
    for predicate in PREDICATES:
        yield f"SELECT r.a, r.x FROM r WHERE {predicate}", True
        yield f"SELECT r.a, r.x FROM r WHERE {SCALAR} AND {predicate}", False
    # the row list of a constant probe's bucket, a second probe after
    # the first, and a join step after the passes
    yield (
        "SELECT r.a, r.x FROM r WHERE r.a = $p AND NOT EXISTS "
        "(SELECT * FROM s WHERE s.c = r.x AND s.y <> r.a)",
        False,
    )
    yield (
        "SELECT r.a, r.x FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE s.c = r.a "
        "AND s.y <> r.x) AND r.x IN (SELECT t.f FROM s, t WHERE s.c = r.a AND s.z = t.e)",
        False,
    )
    yield (
        "SELECT r.a, t.f FROM r, t WHERE r.x = t.e AND r.a <> $p "
        "AND EXISTS (SELECT * FROM s WHERE s.c = r.a AND s.y <> t.f)",
        False,
    )


CASES = list(cases())


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("repeat_labels", [False, True], ids=["distinct-labels", "repeated-labels"])
@pytest.mark.parametrize("marked", [False, True], ids=["sql-nulls", "marked-nulls"])
def test_passes_match_the_fallback_and_sqlite(seed, repeat_labels, marked):
    db = random_db(seed, repeat_labels)
    for sql, every_row_probes in CASES:
        fast, ctx = run(db, sql, marked)
        slow, _ = run(db, sql, marked, FORCE_FALLBACK)
        assert fast.rows == slow.rows, sql  # row for row, order included
        assert ctx.probe_cache_hits + ctx.probe_cache_misses == 0, sql  # no memo
        assert ctx.degradations == 0, sql
        if every_row_probes:
            assert ctx.decorrelated_probes == len(db["r"]), sql  # one per outer row
        if not marked or not repeat_labels:
            expected = sqlite_rows(db, sql.replace("$p", "2"))
            assert engine_bag(fast.rows) == expected, sql


# ---------------------------------------------------------------------------
# Counts
# ---------------------------------------------------------------------------


def count_db():
    return Database(
        {
            "r": Relation(("a", "x"), [(1, 10), (1, 1), (2, 10), (3, 10), (Null(), 10)]),
            "s": Relation(("c", "y", "z"), [(1, 5, 0), (1, 10, 0), (2, 10, 0), (4, 1, 0)]),
        }
    )


COUNT_SQL = (
    "SELECT r.a FROM r WHERE r.x > (SELECT AVG(s.y) FROM s) "
    "AND NOT EXISTS (SELECT * FROM s WHERE s.c = r.a AND s.y <> r.x)"
)


def test_counts_are_those_of_per_row_probing(monkeypatch):
    """AVG(s.y) = 26 / 4 = 6.5, so r's row (1, 1) fails the scalar pass
    and 4 rows reach the NOT EXISTS pass.  Their buckets on s.c:
    (1, 10) reads [(1, 5, 0), (1, 10, 0)] and stops at its first row
    (5 <> 10 is a witness: dropped); (2, 10) reads [(2, 10, 0)], no
    witness (kept); (3, 10) has no bucket and (⊥, 10) a null key, both
    kept without reading a row.

    rows_examined: 4 (the scalar subquery's scan of s) + 5 (r's step)
    + 1 + 1 (the two bucket rows read) = 11.
    decorrelated_probes: 4, one per row reaching the probe.
    checks: 4 (the scalar subquery's per-row scan of s) + 5 (r's step:
    under a governor a step checks every row it lists) + 1 + 1 (one
    before each of the two passes) + 4 (the kept index's build over s)
    + 1 + 1 (the two bucket rows read) = 17."""
    calls = []
    check = LimitGovernor.check
    monkeypatch.setattr(
        LimitGovernor, "check", lambda self, rows: calls.append(rows) or check(self, rows)
    )
    db = count_db()
    result, ctx = run(db, COUNT_SQL, limits=ResourceLimits(deadline_seconds=600))
    assert [row[0] for row in result.rows[:2]] == [2, 3]
    assert len(result.rows) == 3 and isinstance(result.rows[2][0], Null)
    assert ctx.rows_examined == 11
    assert ctx.decorrelated_probes == 4
    assert len(calls) == 17
    assert engine_bag(result.rows) == sqlite_rows(db, COUNT_SQL)


def test_multi_source_scan_counts():
    """s ⋈ t on s.y = t.e has 3 rows, whichever source comes first (3
    rows, then 3 matches): the build counts 6 ``probe_build_rows`` and
    groups them by s.c as 1 → [t.f 10, t.f 11] and 2 → [t.f 10].  The
    scan runs t.f <> r.x on a group's rows: (1, 10) reads 2 (11 is a
    witness: dropped), (2, 10) reads 1 (none: kept), (3, 10) has no
    group and (⊥, 10) a null key, both kept without reading a row.

    rows_examined: 4 (r's step) + 2 + 1 = 7."""
    db = Database(
        {
            "r": Relation(("a", "x"), [(1, 10), (2, 10), (3, 10), (Null(), 10)]),
            "s": Relation(("c", "y", "z"), [(1, 5, 0), (1, 6, 0), (2, 5, 0)]),
            "t": Relation(("e", "f"), [(5, 10), (6, 11), (7, 10)]),
        }
    )
    sql = (
        "SELECT r.a FROM r WHERE NOT EXISTS "
        "(SELECT * FROM s, t WHERE s.c = r.a AND t.e = s.y AND t.f <> r.x)"
    )
    result, ctx = run(db, sql)
    assert [row[0] for row in result.rows[:2]] == [2, 3]
    assert len(result.rows) == 3 and isinstance(result.rows[2][0], Null)
    assert ctx.probe_build_rows == 6
    assert ctx.probe_tables_built == 1
    assert ctx.rows_examined == 7
    assert ctx.decorrelated_probes == 4
    assert engine_bag(result.rows) == sqlite_rows(db, sql)


@pytest.mark.parametrize("inner", ["FROM s WHERE s.c = r.a", TABLE_INNER[0]])
def test_a_probe_no_row_reaches_builds_nothing(inner):
    """No r.x exceeds MAX(s.y), so the probe's pass gets no row and, as
    with per-row probing, neither builds nor reuses a table."""
    db = Database({**count_db().relations, "t": Relation(("e", "f"), [(0, 1)])})
    sql = f"SELECT r.a FROM r WHERE r.x > (SELECT MAX(s.y) FROM s) AND EXISTS (SELECT * {inner})"
    result, ctx = run(db, sql)
    assert result.rows == []
    assert ctx.decorrelated_probes == ctx.probe_tables_built == ctx.table_bytes == 0


# ---------------------------------------------------------------------------
# Limits
# ---------------------------------------------------------------------------


def big_bucket_db():
    """Three outer rows, two of them with a bucket of 500 rows that all
    fail the residual."""
    return Database(
        {
            "r": Relation(("a", "x"), [(1, 0), (2, 0), (3, 0)]),
            "s": Relation(("c", "y", "z"), [(1 + i % 2, i, i) for i in range(1000)]),
        }
    )


BIG_SQL = "SELECT r.a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.c = r.a AND s.y < r.x)"


def test_cancel_fires_inside_a_pass(monkeypatch):
    token = CancelToken()
    keep_rows = blocks._CorrelatedSubquery.keep_rows

    def cancelling_keep_rows(self, *args):
        token.cancel("probe pass")
        return keep_rows(self, *args)

    db = big_bucket_db()
    run(db, BIG_SQL)  # keeps the index on s.c: the pass builds nothing
    monkeypatch.setattr(blocks._CorrelatedSubquery, "keep_rows", cancelling_keep_rows)
    with pytest.raises(QueryCancelled, match="probe pass") as info:
        run(db, BIG_SQL, limits=ResourceLimits(cancel=token))
    names = [entry.name for entry in info.traceback]
    assert names[-3:] == ["_scan", "check", "check"]  # a bucket row's check
    assert "keep_rows" in names


@pytest.mark.parametrize(
    "budget, where, examined",
    [
        # under a governor r's step counts and checks its rows one by
        # one: over the budget at its 3rd row, before the pass
        (2, "run", 3),
        # 3 + the first bucket's rows: over the budget at its 8th row
        (10, "_scan", 11),
    ],
)
def test_row_budget_fires_inside_a_pass(budget, where, examined):
    with pytest.raises(RowBudgetExceeded) as info:
        run(big_bucket_db(), BIG_SQL, limits=ResourceLimits(max_rows_examined=budget))
    assert [entry.name for entry in info.traceback][-3:] == [where, "check", "check"]
    assert info.value.examined == examined
