"""The bucket path of correlated subqueries.

An ``[NOT] EXISTS`` or ``[NOT] IN`` whose inner block has one source and
is correlated by ``local = outer.col`` probes on the immediate parent
reads, per outer row, the bucket of the kept index over the source's
constant-free-filtered rows, and runs the source's filters with a
constant and the residuals on the bucket's rows.  These tests pin that
it answers as the memoized fallback does (row for row, both null
semantics) and as sqlite does under SQL nulls, that a second statement
reuses the kept index, that a cancel inside a bucket loop stops the
statement, and that the byte cap degrades it on reuse exactly where a
build would.

References: the memoized fallback forced by
``ResourceLimits(max_probe_build_rows=0)``, stdlib ``sqlite3``, and the
same statement on a fresh database.
"""

import random

import pytest

from repro.data import Database, Null, Relation
from repro.engine import CancelToken, Executor, QueryCancelled, ResourceLimits
from repro.engine import blocks
from repro.sql.parser import parse_sql

from .sqlite_ref import engine_bag, sqlite_rows
from .test_hash_build import entry_bytes

#: Every bucket path whose index has a row degrades to memoized probing.
FORCE_FALLBACK = ResourceLimits(max_probe_build_rows=0)

PARAMS = {"p": 2}

#: the residual or filter beside ``s.c = r.a``: one reading the outer
#: row, one with a parameter (a filter checked per bucket row), the
#: ``Q+`` disjunction, and a constant-free filter (the kept rows)
EXTRAS = [
    "s.y <> r.x",
    "s.y <> $p",
    "(s.y <> r.x OR s.y IS NULL)",
    "s.y > s.z",
]

SHAPES = [
    "SELECT r.a, r.x FROM r WHERE EXISTS (SELECT * FROM s WHERE s.c = r.a AND {})",
    "SELECT r.a, r.x FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE s.c = r.a AND {})",
    "SELECT r.a, r.x FROM r WHERE r.x IN (SELECT s.y FROM s WHERE s.c = r.a AND {})",
    "SELECT r.a, r.x FROM r WHERE r.x NOT IN (SELECT s.y FROM s WHERE s.c = r.a AND {})",
]

CASES = [shape.format(extra) for shape in SHAPES for extra in EXTRAS]


def run(db, sql, marked=False, limits=None):
    executor = Executor(db, PARAMS, marked_nulls=marked, limits=limits)
    result = executor.execute(parse_sql(sql))
    return result, executor.ctx


def random_db(seed, repeat_labels):
    """r(a, x) and s(c, y, z) over small domains, a quarter of their cells
    null; labels repeat (equal under marked nulls) or are all distinct."""
    rng = random.Random(seed)
    labels = iter(range(10**6))

    def cell():
        if rng.random() < 0.25:
            return Null(rng.choice("pq")) if repeat_labels else Null(f"u{next(labels)}")
        return rng.randint(1, 4)

    def rows(width, count):
        return [tuple(cell() for _ in range(width)) for _ in range(count)]

    return Database(
        {
            "r": Relation(("a", "x"), rows(2, rng.randint(1, 12))),
            "s": Relation(("c", "y", "z"), rows(3, rng.randint(1, 20))),
        }
    )


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("repeat_labels", [False, True], ids=["distinct-labels", "repeated-labels"])
@pytest.mark.parametrize("marked", [False, True], ids=["sql-nulls", "marked-nulls"])
def test_bucket_path_matches_the_fallback_and_sqlite(seed, repeat_labels, marked):
    db = random_db(seed, repeat_labels)
    for sql in CASES:
        fast, ctx = run(db, sql, marked)
        slow, _ = run(db, sql, marked, FORCE_FALLBACK)
        assert fast.rows == slow.rows, sql  # row for row, order included
        assert ctx.decorrelated_probes == len(db["r"]), sql  # one per outer row
        assert ctx.probe_tables_built == ctx.probe_build_rows == 0, sql
        assert ctx.probe_cache_hits + ctx.probe_cache_misses == 0, sql
        if not marked or not repeat_labels:
            assert engine_bag(fast.rows) == sqlite_rows(db, sql.replace("$p", "2")), sql


def test_second_statement_reuses_the_index(monkeypatch):
    builds = []
    hash_group = blocks._hash_group
    monkeypatch.setattr(
        blocks, "_hash_group", lambda *args, **kwargs: builds.append(1) or hash_group(*args, **kwargs)
    )
    db = random_db(0, repeat_labels=False)
    sql = CASES[0]
    first, ctx1 = run(db, sql)
    assert len(builds) == 1  # the index on s.c
    second, ctx2 = run(db, sql)
    assert len(builds) == 1
    assert second.rows == first.rows
    assert ctx2.rows_examined == ctx1.rows_examined
    assert ctx2.table_bytes == ctx1.table_bytes > 0  # charged on reuse


def bucket_db():
    """Two outer rows, each with a bucket of 500 rows that all fail."""
    return Database(
        {
            "r": Relation(("a", "x"), [(1, 0), (2, 0)]),
            "s": Relation(("c", "y", "z"), [(1 + i % 2, i, i) for i in range(1000)]),
        }
    )


def test_cancel_inside_a_bucket_loop_raises(monkeypatch):
    """A statement's probes run as one pass over its rows, which scans
    each found bucket with the same loop a per-row probe uses."""
    token = CancelToken()
    scan = blocks._Buckets._scan

    def cancelling_scan(self, bucket, env):
        token.cancel("bucket loop")
        return scan(self, bucket, env)

    monkeypatch.setattr(blocks._Buckets, "_scan", cancelling_scan)
    sql = "SELECT r.a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.c = r.a AND s.y < r.x)"
    with pytest.raises(QueryCancelled, match="bucket loop") as info:
        run(bucket_db(), sql, limits=ResourceLimits(cancel=token))
    # raised by the governor's check of a bucket row
    assert [entry.name for entry in info.traceback[-3:]] == ["_scan", "check", "check"]


@pytest.mark.parametrize(
    "cap, degradations",
    [
        (lambda entry: entry - 1, 2),  # over the cap at the first key
        # under it at the first key, the index's one byte check point
        # with two keys, so no build would stop: over it only at the end
        (lambda entry: entry + 1, 0),
        (lambda entry: None, 0),
    ],
    ids=["below-first-key", "between-keys", "uncapped"],
)
def test_byte_cap_degrades_on_reuse_where_a_build_would(cap, degradations):
    """The kept index on s.c has 2 keys.  Where the cap stops its build,
    the bucket path degrades to memoized probing, whose probe index is
    the same kept entry and degrades too, to linear probing; a database
    that kept the index and a fresh one agree on every counter."""
    sql = "SELECT r.a FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE s.c = r.a AND s.y < r.x)"
    limits = ResourceLimits(max_probe_table_bytes=cap(entry_bytes()))
    warm = bucket_db()
    run(warm, sql)  # keeps s's index
    reused, ctx_r = run(warm, sql, limits=limits)
    built, ctx_b = run(bucket_db(), sql, limits=limits)
    assert reused.rows == built.rows == [(1,), (2,)]
    assert ctx_r.degradations == ctx_b.degradations == degradations
    assert ctx_r.table_bytes == ctx_b.table_bytes
    assert ctx_r.rows_examined == ctx_b.rows_examined
    assert ctx_r.decorrelated_probes == ctx_b.decorrelated_probes == (0 if degradations else 2)
