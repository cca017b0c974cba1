"""The index store: unfiltered equi-join and probe indexes kept on the
:class:`~repro.data.Relation` and reused by every later statement.

An index over a whole table depends only on the rows, its key columns
and the positions whose null keys it skips, so the first statement that
needs it keeps it in ``Relation.indexes`` and later statements reuse it.
The statistics of a whole table are kept beside it, under the empty
source key.  Reuse must be invisible in every counter but the build's
own checks: a statement charges the same ``table_bytes`` and degrades
exactly where a build would have.  These tests pin that, the
invalidation by ``Relation.add``, and that indexes over rows filtered
with a constant, and cut-short builds, are not kept.  Sources under
constant-free filters have their own tests in ``test_filter_store.py``.

References: the same statement on a fresh database (which builds), and
stdlib ``sqlite3``.
"""

import pytest

from repro.data import Database, Null, Relation
from repro.engine import QueryTimeout, ResourceLimits
from repro.engine.limits import LimitGovernor

from .sqlite_ref import engine_bag, sqlite_rows
from .test_hash_build import JOIN, KEYS, entry_bytes, make_budget_db, run


def stored(relation):
    """The engine's entries of *relation*'s store (``hash_index`` keys
    entries by attribute name; the engine keys a source's statistics by
    its source key, an index by ``(source key, columns, null slots)``)."""
    return {key: value for key, value in relation.indexes.items() if not isinstance(key, str)}


#: the source key of a source with no pushed filter, under which the
#: store keeps the whole table's statistics
WHOLE = frozenset()


#: JOIN's one table is an equi index on s.c; this bucket-path probe's is
#: the kept index on s.c, which its memoized fallback probes too
PROBE = "SELECT r.x FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE s.c = r.a AND s.y > r.x)"


# ---------------------------------------------------------------------------
# Reuse across statements
# ---------------------------------------------------------------------------


def test_second_statement_reuses_without_build_checks(monkeypatch):
    db = make_budget_db()
    calls = []
    check = LimitGovernor.check
    monkeypatch.setattr(
        LimitGovernor, "check", lambda self, rows: calls.append(rows) or check(self, rows)
    )
    limits = ResourceLimits(deadline_seconds=600)
    first, ctx1 = run(db, JOIN, limits=limits)
    assert len(calls) == KEYS + 40 + 40  # index build rows, r's scan, joined rows
    kept = {name: stored(db[name]) for name in ("r", "s")}
    assert list(kept["r"]) == [WHOLE]
    assert list(kept["s"]) == [WHOLE, (WHOLE, ("c",), ())]
    calls.clear()
    second, ctx2 = run(db, JOIN, limits=limits)
    assert len(calls) == 40 + 40  # no build
    assert {name: stored(db[name]) for name in ("r", "s")} == kept  # the same objects
    assert second.rows == first.rows
    assert ctx2.table_bytes == ctx1.table_bytes == KEYS * entry_bytes()
    assert ctx2.degradations == ctx1.degradations == 0
    assert ctx2.rows_examined == ctx1.rows_examined


@pytest.mark.parametrize("sql", [JOIN, PROBE])
@pytest.mark.parametrize("cap_entries", [1, 200, 255, 256, 384, 512, 560, KEYS, None])
def test_reuse_degrades_where_a_build_would(sql, cap_entries):
    """Capped on a database whose index an uncapped statement kept, and
    capped on a fresh one: same degradations, bytes and rows, for caps
    between, on and past the meter's check points (1, 256, 512)."""
    cap = None if cap_entries is None else cap_entries * entry_bytes()
    limits = ResourceLimits(max_probe_table_bytes=cap)
    warm = make_budget_db()
    run(warm, sql)  # keeps s's index
    assert stored(warm["s"])
    reused, ctx_r = run(warm, sql, limits=limits)
    built, ctx_b = run(make_budget_db(), sql, limits=limits)
    assert reused.rows == built.rows
    assert ctx_r.degradations == ctx_b.degradations
    assert ctx_r.table_bytes == ctx_b.table_bytes
    assert ctx_r.rows_examined == ctx_b.rows_examined
    # the one index degrades unless it is under the cap at entry 512,
    # its last check point; PROBE's grouped probe then falls back to
    # memoized probing, whose probe index is the same kept entry and
    # degrades again, to linear probing
    per_index = 0 if cap_entries is None or cap_entries >= 512 else 1
    assert ctx_r.degradations == per_index * (1 if sql == JOIN else 2)


def test_two_blocks_of_one_statement_each_charge():
    """Two blocks of one statement index the same table: the second
    reuses what the first kept, and each charges it, as two builds did."""
    db = make_budget_db()
    sql = f"{JOIN} UNION ALL {JOIN}"
    for _ in range(2):  # the first statement builds once, the second not at all
        result, ctx = run(db, sql)
        assert ctx.table_bytes == 2 * KEYS * entry_bytes()
        assert engine_bag(result.rows) == sqlite_rows(db, sql)


# ---------------------------------------------------------------------------
# Null semantics share one database
# ---------------------------------------------------------------------------


def null_key_db(repeat_labels):
    """r and s with nulls in the join columns; labels repeat (so equal
    labels join under marked nulls) or are all distinct."""
    labels = iter(range(10**6))

    def null(i):
        return Null(f"n{i % 2}") if repeat_labels else Null(f"u{next(labels)}")

    r = [(null(i) if i % 4 == 0 else i % 5, i % 3 if i % 5 else null(i), i) for i in range(12)]
    s = [(null(i) if i % 3 == 0 else i % 5, i % 3 if i % 4 else null(i), -i) for i in range(15)]
    return Database({"r": Relation(("a", "b", "x"), r), "s": Relation(("c", "d", "y"), s)})


NULL_QUERIES = [
    JOIN,
    "SELECT r.x, s.y FROM r, s WHERE r.a = s.c AND r.b = s.d",
    PROBE,
    "SELECT r.x FROM r WHERE EXISTS "
    "(SELECT * FROM s WHERE s.c = r.a AND s.d = r.b AND s.y <> r.x)",
]


@pytest.mark.parametrize("repeat_labels", [False, True], ids=["distinct-labels", "repeated-labels"])
def test_sql_and_marked_nulls_share_one_database(repeat_labels):
    """Statements under SQL nulls and under marked nulls alternate on one
    database: each returns and charges what it does on a fresh database,
    SQL nulls agree with sqlite, and with distinct labels (where a null
    equals nothing, itself included, across rows) the two semantics agree."""
    db = null_key_db(repeat_labels)
    for _round in range(2):
        for sql in NULL_QUERIES:
            results = {}
            for marked in (False, True):
                result, ctx = run(db, sql, marked=marked)
                fresh, ctx_f = run(null_key_db(repeat_labels), sql, marked=marked)
                assert result.rows == fresh.rows
                assert ctx.table_bytes == ctx_f.table_bytes
                results[marked] = engine_bag(result.rows)
            assert results[False] == sqlite_rows(db, sql)
            if not repeat_labels:
                assert results[True] == results[False]
    # the marked build keeps null keys, the SQL-null one skips them
    assert (WHOLE, ("c",), ()) in stored(db["s"]) and (WHOLE, ("c",), (0,)) in stored(db["s"])


# ---------------------------------------------------------------------------
# What is not kept, and invalidation
# ---------------------------------------------------------------------------


def test_add_invalidates_the_store():
    db = make_budget_db()
    first, _ = run(db, JOIN)
    assert stored(db["s"])
    db["s"].add((0, 12345))  # r's first row has a = 0
    assert not db["s"].indexes
    second, _ = run(db, JOIN)
    assert (0, 12345) in second.rows
    assert len(second.rows) == len(first.rows) + 1
    assert engine_bag(second.rows) == sqlite_rows(db, JOIN)


def test_extend_clears_engine_and_hash_index_entries():
    db = make_budget_db()
    run(db, JOIN)
    db["s"].hash_index("y")
    assert set(db["s"].indexes) == {WHOLE, (WHOLE, ("c",), ()), "y"}
    db["s"].extend([(KEYS, 0)])
    assert not db["s"].indexes


def test_source_with_a_pushed_filter_is_never_stored():
    """A source whose pushed filter holds a literal keeps neither its
    rows, its statistics nor its index; the unfiltered r keeps its
    statistics only (it is scanned, not indexed)."""
    db = make_budget_db()
    sql = "SELECT r.x, s.y FROM r, s WHERE r.a = s.c AND s.y < 0"
    first, ctx1 = run(db, sql)
    assert not db["s"].indexes and list(db["r"].indexes) == [WHOLE]
    second, ctx2 = run(db, sql)
    assert second.rows == first.rows
    assert ctx2.table_bytes == ctx1.table_bytes > 0
    assert not db["s"].indexes and list(db["r"].indexes) == [WHOLE]


def test_abandoned_build_is_not_stored():
    db = make_budget_db()
    _, ctx = run(db, JOIN, limits=ResourceLimits(max_probe_table_bytes=1))
    assert ctx.degradations == 1
    assert list(db["s"].indexes) == [WHOLE]  # the statistics, not the index


def test_cut_short_build_is_not_stored(monkeypatch):
    """A deadline that fires inside the build leaves no index behind
    (the statistics the planner read before it stay); the next statement
    builds the whole index."""
    db = make_budget_db()
    check = LimitGovernor.check
    calls = []

    def timeout_inside_build(self, rows):
        calls.append(rows)
        if len(calls) == 10:  # r's first row, then nine rows of s's build
            raise QueryTimeout(600, 0.0)
        return check(self, rows)

    monkeypatch.setattr(LimitGovernor, "check", timeout_inside_build)
    with pytest.raises(QueryTimeout):
        run(db, JOIN, limits=ResourceLimits(deadline_seconds=600))
    assert list(db["s"].indexes) == [WHOLE]
    monkeypatch.setattr(LimitGovernor, "check", check)
    result, ctx = run(db, JOIN)
    assert ctx.table_bytes == KEYS * entry_bytes()
    assert engine_bag(result.rows) == sqlite_rows(db, JOIN)
