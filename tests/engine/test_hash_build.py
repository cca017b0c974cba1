"""Hash builds: byte-budget check points and null keys.

Every engine hash table (equi-join and probe indexes, the kept indexes
and multi-source groups of grouped probes) is built by one loop.  These
tests pin what that loop must keep:

* the byte meter is consulted on the first new key and then every 256th,
  so a ``max_probe_table_bytes`` cap degrades exactly the tables whose
  estimate is over the cap at one of those check points;
* under a governor, every row a build consumes is one ``check``;
* under SQL nulls a key with a null is never indexed (it cannot compare
  TRUE), under marked nulls it is indexed by label — whether or not the
  statistics prove the key columns null-free.

References: the uncapped run of the same query, the linear path forced by
``ResourceLimits(max_probe_table_bytes=1)``, and stdlib ``sqlite3``.
"""

import pytest

from repro.data import Database, Null, Relation
from repro.engine import ResourceLimits
from repro.engine.executor import Executor
from repro.engine.limits import LimitGovernor
from repro.engine.stats import TableBytesMeter
from repro.sql.parser import parse_sql

from .sqlite_ref import engine_bag, sqlite_rows


def run(db, sql, limits=None, marked=False):
    executor = Executor(db, marked_nulls=marked, limits=limits)
    result = executor.execute(parse_sql(sql))
    return result, executor.ctx


# ---------------------------------------------------------------------------
# Byte-budget check points
# ---------------------------------------------------------------------------

#: distinct keys of the one hash table each query builds: past the check
#: points at entries 1, 256 and 512, short of the next one (768)
KEYS = 600


def entry_bytes(width=1):
    """The meter's estimate per entry of a table with *width*-column keys."""
    meter = TableBytesMeter()
    meter.add((0,) * width)
    return meter.approx_bytes()


def make_budget_db():
    # r is scanned first (it is smaller); s.c is the indexed side.
    return Database(
        {
            "r": Relation(("a", "x"), [(i * 7 % KEYS, i) for i in range(40)]),
            "s": Relation(("c", "y"), [(i, -i) for i in range(KEYS)]),
        }
    )


@pytest.fixture(scope="module")
def budget_db():
    """Shared by the cap tests.  In the JOIN cases their capped run
    reuses the index the uncapped run kept on s, so it degrades on reuse
    rather than during a build."""
    return make_budget_db()


JOIN = "SELECT r.x, s.y FROM r, s WHERE r.a = s.c"
EXISTS = "SELECT r.x FROM r WHERE EXISTS (SELECT * FROM s WHERE s.c = r.a)"


@pytest.mark.parametrize(
    "sql, degradations",
    [
        (JOIN, 1),  # the equi index falls back to linear probing
        # the grouped probe's kept index falls back to memoized probing, whose
        # probe index (the same kept entry) crosses the same cap and
        # falls back to linear probing
        (EXISTS, 2),
    ],
)
def test_cap_crossed_between_check_points_degrades(budget_db, sql, degradations):
    per_entry = entry_bytes()
    unlimited, ctx_u = run(budget_db, sql)
    assert ctx_u.table_bytes == KEYS * per_entry
    # Under the cap at entry 256, over it at entry 512.
    cap = 384 * per_entry
    capped, ctx = run(budget_db, sql, limits=ResourceLimits(max_probe_table_bytes=cap))
    assert ctx.degradations == degradations
    assert ctx.table_bytes == 0  # an abandoned table is never counted
    assert capped.rows == unlimited.rows
    assert len(capped.rows) == 40


@pytest.mark.parametrize("sql", [JOIN, EXISTS])
def test_cap_crossed_after_last_check_point_does_not_degrade(budget_db, sql):
    per_entry = entry_bytes()
    unlimited, _ = run(budget_db, sql)
    # Under the cap at entry 512, the last check point; over it at the end.
    cap = 560 * per_entry
    capped, ctx = run(budget_db, sql, limits=ResourceLimits(max_probe_table_bytes=cap))
    assert ctx.degradations == 0
    assert ctx.table_bytes == KEYS * per_entry > cap
    assert capped.rows == unlimited.rows


@pytest.mark.parametrize(
    "sql, cap, checks",
    [
        # index build rows, r's scan, joined rows
        (JOIN, None, KEYS + 40 + 40),
        # the index is abandoned at its first key; each of r's rows then
        # scans s linearly
        (JOIN, 1, 1 + 40 + 40 * KEYS + 40),
        # the grouped probe's index build rows, r's 40 rows (under a
        # governor a step checks every row it lists, the first step
        # included), one check before the EXISTS pass over them, the
        # one row of each probe's bucket
        (EXISTS, None, KEYS + 40 + 1 + 40),
    ],
)
def test_governor_checks_once_per_row(sql, cap, checks, monkeypatch):
    """Under a governor every row a build consumes is one check, so
    deadlines and cancellation fire at the same rows.  Each case gets a
    fresh database: an index an earlier statement kept on s would be
    reused, with no build and so no build checks."""
    calls = []
    check = LimitGovernor.check
    monkeypatch.setattr(
        LimitGovernor, "check", lambda self, rows: calls.append(rows) or check(self, rows)
    )
    limits = ResourceLimits(deadline_seconds=600, max_probe_table_bytes=cap)
    run(make_budget_db(), sql, limits=limits)
    assert len(calls) == checks


# ---------------------------------------------------------------------------
# Null keys
# ---------------------------------------------------------------------------

QUERIES = {
    # equi index, one and two key columns (multi-table block: statistics)
    "join1": "SELECT r.x, s.y FROM r, s WHERE r.a = s.c",
    "join2": "SELECT r.x, s.y FROM r, s WHERE r.a = s.c AND r.b = s.d",
    # kept index of a grouped probe, whose residual reads the outer row
    # (single-table block)
    "probe1": "SELECT r.x FROM r WHERE NOT EXISTS "
    "(SELECT * FROM s WHERE s.c = r.a AND s.y > r.x)",
    "probe2": "SELECT r.x FROM r WHERE EXISTS "
    "(SELECT * FROM s WHERE s.c = r.a AND s.d = r.b AND s.y <> r.x)",
    # kept index of a grouped probe, single-table inner block
    "exists1": "SELECT r.x FROM r WHERE EXISTS (SELECT * FROM s WHERE s.c = r.a)",
    "exists2": "SELECT r.x FROM r WHERE NOT EXISTS "
    "(SELECT * FROM s WHERE s.c = r.a AND s.d = r.b)",
    "in1": "SELECT r.x FROM r WHERE r.x IN (SELECT s.y FROM s WHERE s.c = r.a)",
    # decorrelated probe tables, multi-table inner block (statistics)
    "exists_join1": "SELECT r.x FROM r WHERE EXISTS "
    "(SELECT * FROM s, t WHERE s.c = r.a AND s.y = t.e)",
    "exists_join2": "SELECT r.x FROM r WHERE NOT EXISTS "
    "(SELECT * FROM s, t WHERE s.c = r.a AND s.d = r.b AND s.y = t.e)",
}


def null_db(key_nulls, marked):
    """r, s, t with nulls in their non-key columns and, per *key_nulls*,
    in no key column, the first ones (r.a, s.c) or the second ones (r.b,
    s.d).  Under *marked*, null labels repeat (so equal labels join),
    otherwise every null is fresh (a Codd null)."""
    labels = iter(range(10**6))

    def null(i):
        return Null(f"n{i % 3}") if marked else Null(next(labels))

    def key(i, m, column):
        return null(i) if key_nulls == column and i % 5 == 0 else i % m

    r = [(key(i, 4, "first"), key(i + 1, 3, "second"), i % 6) for i in range(14)]
    s = [
        (key(i + 2, 4, "first"), key(i, 3, "second"), i % 5 if i % 7 else null(i))
        for i in range(16)
    ]
    t = [(i % 5 if i % 4 else null(i), i) for i in range(8)]
    return Database(
        {
            "r": Relation(("a", "b", "x"), r),
            "s": Relation(("c", "d", "y"), s),
            "t": Relation(("e", "f"), t),
        }
    )


@pytest.mark.parametrize("key_nulls", ["none", "first", "second"])
@pytest.mark.parametrize("marked", [False, True], ids=["sql-nulls", "marked-nulls"])
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_null_keys_match_linear_path(name, marked, key_nulls):
    sql = QUERIES[name]
    db = null_db(key_nulls, marked)
    hashed, ctx = run(db, sql, marked=marked)
    assert ctx.degradations == 0
    linear, ctx_l = run(
        db, sql, limits=ResourceLimits(max_probe_table_bytes=1), marked=marked
    )
    assert ctx_l.degradations > 0
    assert hashed.rows == linear.rows
    if not marked:
        assert engine_bag(hashed.rows) == sqlite_rows(db, sql)


@pytest.mark.parametrize("marked", [False, True], ids=["sql-nulls", "marked-nulls"])
@pytest.mark.parametrize(
    "sql, width",
    [
        ("SELECT r.x, s.y FROM r, s WHERE r.a = s.c", 1),
        ("SELECT r.x, s.y FROM r, s WHERE r.a = s.c AND r.b = s.d", 2),
        ("SELECT r.x FROM r WHERE EXISTS (SELECT * FROM s WHERE s.c = r.a)", 1),
        (
            "SELECT r.x FROM r WHERE EXISTS "
            "(SELECT * FROM s WHERE s.c = r.a AND s.d = r.b)",
            2,
        ),
    ],
)
@pytest.mark.parametrize("c_nulls", [True, False], ids=["c-nullable", "c-null-free"])
def test_table_holds_exactly_the_indexable_keys(sql, width, marked, c_nulls):
    """The one table each query builds (an index on s) holds every distinct key of s under marked nulls, and only
    the null-free ones under SQL nulls: ``table_bytes`` counts them.
    s.d holds nulls, s.c per *c_nulls*, s.y none."""
    n1, n2, n3 = Null("n1"), Null("n2"), Null("n3")
    c_null = n2 if c_nulls else 9
    s_rows = [
        (0, 0, 1), (1, n1, 2), (c_null, 1, 3), (2, 2, 4),
        (n3 if c_nulls else 5, n3, 5), (0, 0, 6), (3, n1, 7), (c_null, 1, 8),
    ]
    db = Database(
        {
            "r": Relation(("a", "b", "x"), [(0, 0, 10), (2, 2, 20)]),
            "s": Relation(("c", "d", "y"), s_rows),
        }
    )
    keys = {row[:width] for row in s_rows}
    if not marked:
        keys = {key for key in keys if not any(isinstance(v, Null) for v in key)}
    hashed, ctx = run(db, sql, marked=marked)
    assert ctx.table_bytes == len(keys) * entry_bytes(width)
    linear, _ = run(db, sql, ResourceLimits(max_probe_table_bytes=1), marked)
    assert hashed.rows == linear.rows

