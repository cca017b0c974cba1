"""The filter store: rows under constant-free pushed filters, their
statistics and their indexes kept on the :class:`~repro.data.Relation`.

A pushed filter that mentions no constant, parameter, subquery or outer
column selects rows that depend on nothing but the relation's rows, so
the first statement that filters a source keeps the filtered rows in
``Relation.indexes`` under the source key (the set of its filters'
binding-free shapes), and every later statement reuses them, with their
statistics and the indexes built over them, without running a filter
pass.  These tests pin that reuse changes no answer and no counter but
the passes' own checks, what is shared and what is never kept, the
invalidation by ``Relation.add``, and that cut-short passes keep nothing.

References: stdlib ``sqlite3``, the same statement on a fresh database,
and a relation without a store, whose filters run once per statement and
are not kept.
"""

import pytest

from repro.data import Database, Null, Relation
from repro.engine import QueryTimeout, ResourceLimits
from repro.engine.blocks import CompiledBlock
from repro.engine.executor import Executor
from repro.engine.limits import LimitGovernor
from repro.sql.parser import parse_sql
from repro.testing import faults

from .sqlite_ref import engine_bag, sqlite_rows


def make_db(repeat_labels=False):
    """r(a, x) and s(c, d, y); c, d and r.a hold nulls, whose labels
    repeat (so equal labels compare TRUE under marked nulls) or are all
    distinct."""
    labels = iter(range(10**6))

    def null(i):
        return Null(f"n{i % 2}") if repeat_labels else Null(f"u{next(labels)}")

    r = [(null(i) if i % 6 == 0 else i % 7, i) for i in range(20)]
    s = [
        (null(i) if i % 5 == 0 else i % 7, null(i) if i % 7 == 0 else i % 5, i)
        for i in range(60)
    ]
    return Database({"r": Relation(("a", "x"), r), "s": Relation(("c", "d", "y"), s)})


def run(db, sql, params=None, limits=None, marked=False):
    executor = Executor(db, params, marked_nulls=marked, limits=limits)
    result = executor.execute(parse_sql(sql))
    return result, executor.ctx


def filter_entries(relation):
    """The kept sources of *relation* under at least one filter (the
    store also keeps a whole table's statistics under the empty key)."""
    return [key for key in relation.indexes if isinstance(key, frozenset) and key]


def filtered_indexes(relation):
    """The kept indexes over filtered rows: ``(source key, columns, null
    slots)`` with a non-empty source key (an index over the whole table
    has the empty one)."""
    return [key for key in relation.indexes if isinstance(key, tuple) and key[0]]


@pytest.fixture
def pass_runs(monkeypatch):
    """Counts filter passes: one per pushed conjunct per filter run."""
    runs = []
    filtered_rows = CompiledBlock._filtered_rows

    def counting(self, source):
        runs.extend([source.table] * len(source.filters))
        return filtered_rows(self, source)

    monkeypatch.setattr(CompiledBlock, "_filtered_rows", counting)
    return runs


#: constant-free filters on s in every block shape: a join (s kept and
#: indexed), a single-table scan, an uncorrelated EXISTS, and two
#: bucket-path subqueries over an index on the kept rows: an EXISTS whose
#: residual reads the outer row and a NOT EXISTS whose filter is an OR
KEPT_QUERIES = [
    "SELECT r.x, s.y FROM r, s WHERE r.a = s.c AND s.y > s.d",
    "SELECT s.y FROM s WHERE s.c <> s.d",
    "SELECT r.x FROM r WHERE EXISTS (SELECT * FROM s WHERE s.c > s.d)",
    "SELECT r.x FROM r WHERE EXISTS "
    "(SELECT * FROM s WHERE s.c = r.a AND s.y > s.d AND s.y <> r.x)",
    "SELECT r.x FROM r WHERE NOT EXISTS "
    "(SELECT * FROM s WHERE s.c = r.a AND (s.d < s.c OR s.d IS NULL))",
]


# ---------------------------------------------------------------------------
# Reuse across statements
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sql", KEPT_QUERIES)
def test_second_statement_runs_no_pass(sql, pass_runs):
    db = make_db()
    first, ctx1 = run(db, sql)
    assert pass_runs and len(filter_entries(db["s"])) == 1
    pass_runs.clear()
    second, ctx2 = run(db, sql)
    assert pass_runs == []
    assert second.rows == first.rows
    assert ctx2.rows_examined == ctx1.rows_examined
    assert ctx2.table_bytes == ctx1.table_bytes
    assert ctx2.degradations == ctx1.degradations
    assert engine_bag(second.rows) == sqlite_rows(db, sql)


def test_second_statement_makes_no_pass_checks(monkeypatch):
    """Reuse skips the check before each pass, as a reused index skips
    its build's checks; the scanned rows' checks stay."""
    db = make_db()
    calls = []
    check = LimitGovernor.check
    monkeypatch.setattr(
        LimitGovernor, "check", lambda self, rows: calls.append(rows) or check(self, rows)
    )
    sql = "SELECT s.y FROM s WHERE s.y > s.d AND s.c IS NOT NULL"
    limits = ResourceLimits(deadline_seconds=600)
    first, _ = run(db, sql, limits=limits)
    assert len(calls) == 2 + len(first.rows)  # one per pass, one per row
    calls.clear()
    second, _ = run(db, sql, limits=limits)
    assert len(calls) == len(second.rows)
    assert second.rows == first.rows


def test_two_aliases_share_one_entry(pass_runs):
    """Shapes name columns, not bindings, and a conjunction's shapes form
    a set: s1 and s2 filter once between them, and s3's subquery with
    the same conjuncts in the other order reuses their rows."""
    db = make_db()
    sql = (
        "SELECT s1.y, s2.y FROM s s1, s s2 WHERE s1.c = s2.d "
        "AND s1.y > s1.d AND s1.c IS NOT NULL AND s2.c IS NOT NULL AND s2.y > s2.d "
        "AND NOT EXISTS (SELECT * FROM s s3 WHERE s3.c IS NOT NULL AND s3.y > s3.d "
        "AND s3.d = s1.c AND s3.y < s2.y)"
    )
    result, _ = run(db, sql)
    assert pass_runs == ["s", "s"]  # one filter run of two conjuncts
    assert len(filter_entries(db["s"])) == 1
    assert engine_bag(result.rows) == sqlite_rows(db, sql)


@pytest.mark.parametrize(
    "sql, params",
    [
        ("SELECT s.y FROM s WHERE s.y > 3", {}),
        ("SELECT s.y FROM s WHERE s.y > $p", {"p": 3}),
        ("SELECT s.y FROM s WHERE s.y > $p", {"p": 40}),
        # one conjunct with a literal keeps the whole source out
        ("SELECT r.x, s.y FROM r, s WHERE r.a = s.c AND s.y > s.d AND s.d < 1", {}),
        # a probe table's build runs the filter
        (
            "SELECT r.x FROM r WHERE EXISTS (SELECT * FROM s, r r2 "
            "WHERE s.c = r.a AND r2.a = s.d AND s.c IN (1, 2))",
            {},
        ),
    ],
)
def test_filters_with_a_literal_or_a_parameter_are_never_kept(sql, params, pass_runs):
    """Their rows depend on the constant, which SQL text may inline as a
    fresh literal in every statement, so the store would only grow."""
    db = make_db()
    for _ in range(2):
        pass_runs.clear()
        result, _ = run(db, sql, params)
        assert pass_runs
        assert filter_entries(db["s"]) == [] and filtered_indexes(db["s"]) == []
    if not params:
        assert engine_bag(result.rows) == sqlite_rows(db, sql)


@pytest.mark.parametrize(
    "sql, params",
    [
        ("SELECT r.x FROM r WHERE EXISTS (SELECT * FROM s WHERE s.c = r.a AND s.c IN (1, 2))", {}),
        ("SELECT r.x FROM r WHERE NOT EXISTS "
         "(SELECT * FROM s WHERE s.c = r.a AND s.y > s.d AND s.y < $p)", {"p": 40}),
    ],
)
def test_bucket_path_checks_a_constant_filter_per_bucket_row(sql, params, pass_runs):
    """The bucket path keeps the index over the source's constant-free
    rows (the whole table, or s.y > s.d) and runs a filter with a
    constant on the rows of each bucket it reads: no pass runs for it,
    and nothing under it is kept."""
    db = make_db()
    for _ in range(2):
        pass_runs.clear()
        result, ctx = run(db, sql, params)
        assert ctx.decorrelated_probes == 20 and ctx.probe_tables_built == 0
        # s.y > s.d alone, if any; one index over its rows or the table
        assert all(len(key) == 1 for key in filter_entries(db["s"]))
        assert len([key for key in db["s"].indexes if isinstance(key, tuple)]) == 1
    assert pass_runs == []  # the second statement reuses the kept rows
    expected = sqlite_rows(db, sql.replace("$p", "40"))
    assert engine_bag(result.rows) == expected


# ---------------------------------------------------------------------------
# Null semantics share one database
# ---------------------------------------------------------------------------

NULL_QUERIES = [
    "SELECT s.y FROM s WHERE s.c = s.d",
    "SELECT s.y FROM s WHERE s.c <> s.d",
    "SELECT r.x, s.y FROM r, s WHERE r.a = s.c AND s.c = s.d",
    "SELECT r.x FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE s.c = r.a AND s.c <> s.d)",
]


@pytest.mark.parametrize("repeat_labels", [False, True], ids=["distinct-labels", "repeated-labels"])
def test_sql_and_marked_nulls_share_one_database(repeat_labels):
    """``=`` and ``<>`` differ under the two semantics where a null label
    repeats, so their shapes carry the semantics and the two statements
    keep two entries.  Each returns what it returns on a fresh database;
    SQL nulls agree with sqlite, and with distinct labels so do marked
    nulls."""
    db = make_db(repeat_labels)
    for _round in range(2):
        for sql in NULL_QUERIES:
            results = {}
            for marked in (False, True):
                result, ctx = run(db, sql, marked=marked)
                fresh, ctx_f = run(make_db(repeat_labels), sql, marked=marked)
                assert result.rows == fresh.rows
                assert ctx.rows_examined == ctx_f.rows_examined
                assert ctx.table_bytes == ctx_f.table_bytes
                results[marked] = engine_bag(result.rows)
            assert results[False] == sqlite_rows(db, sql)
            if not repeat_labels:
                assert results[True] == results[False]
    assert len(filter_entries(db["s"])) == 4  # = and <>, each under both semantics
    if repeat_labels:  # the n0 = n0 rows are found under marked nulls only
        assert len(run(db, NULL_QUERIES[0], marked=True)[0].rows) > len(
            run(db, NULL_QUERIES[0])[0].rows
        )


# ---------------------------------------------------------------------------
# Invalidation, single-table EXISTS, cut-short passes, scan faults
# ---------------------------------------------------------------------------


def test_add_invalidates_the_store():
    db = make_db()
    sql = KEPT_QUERIES[1]
    first, _ = run(db, sql)
    assert filter_entries(db["s"])
    db["s"].add((9, 1, 1000))  # 9 <> 1
    assert not db["s"].indexes
    second, _ = run(db, sql)
    assert (1000,) in second.rows
    assert len(second.rows) == len(first.rows) + 1
    assert engine_bag(second.rows) == sqlite_rows(db, sql)


def unkept_filter_db():
    """A database whose s has no store: its filters run once per
    statement and are not kept."""
    db = make_db()
    db["s"].indexes = None
    return db


@pytest.mark.parametrize("sql", KEPT_QUERIES[2:4] + [
    "SELECT r.x FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE s.y > s.d AND s.y < r.x)",
])
def test_single_table_exists_over_a_kept_filter(sql):
    """An EXISTS over kept rows filters the whole source once per
    database, but the block still stops iterating at the first match:
    answers and ``rows_examined`` are those of a fresh database and of a
    filter run per statement and not kept."""
    warm = make_db()
    run(warm, sql)
    reused, ctx_r = run(warm, sql)
    fresh, ctx_f = run(make_db(), sql)
    unkept, ctx_u = run(unkept_filter_db(), sql)
    assert reused.rows == fresh.rows == unkept.rows
    assert ctx_r.rows_examined == ctx_f.rows_examined == ctx_u.rows_examined
    assert engine_bag(reused.rows) == sqlite_rows(warm, sql)


def test_deadline_inside_the_passes_keeps_nothing(monkeypatch):
    db = make_db()
    sql = "SELECT s.y FROM s WHERE s.y > s.d AND s.c IS NOT NULL"
    check = LimitGovernor.check
    calls = []

    def timeout_before_second_pass(self, rows):
        calls.append(rows)
        if len(calls) == 2:
            raise QueryTimeout(600, 0.0)
        return check(self, rows)

    monkeypatch.setattr(LimitGovernor, "check", timeout_before_second_pass)
    with pytest.raises(QueryTimeout):
        run(db, sql, limits=ResourceLimits(deadline_seconds=600))
    assert not db["s"].indexes
    monkeypatch.setattr(LimitGovernor, "check", check)
    result, _ = run(db, sql)
    assert filter_entries(db["s"])
    assert engine_bag(result.rows) == sqlite_rows(db, sql)


def test_scan_fault_fires_on_every_statement():
    """A statement that scans s fires s's fault although an earlier
    statement kept s's filtered rows, statistics and index: the fault
    proxy has no store, so nothing is read from the kept entries or
    written to them."""
    db = make_db()
    sql = "SELECT s1.y, s2.y FROM s s1, s s2 WHERE s1.y > s1.d AND s1.c = s2.y"
    expected, _ = run(db, sql)
    kept = dict(db["s"].indexes)
    # s1's filtered rows, s2's whole-table statistics and its index on y
    assert len(filter_entries(db["s"])) == 1
    assert set(kept) - set(filter_entries(db["s"])) == {frozenset(), (frozenset(), ("y",), ())}
    with faults.scan_fault("s", nth=5) as fault:
        for _ in range(2):
            with pytest.raises(faults.InjectedFault):
                run(db, sql)
        assert fault.fired == 2
    assert db["s"].indexes == kept
    assert run(db, sql)[0].rows == expected.rows
