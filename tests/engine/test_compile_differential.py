"""Closure-compiled engine: answers, degradation and planning pinned
against independent references.

The compiled closures are the engine's only evaluator.  Each test
checks the engine against a reference that does not share its
mechanism: SQLite's interpreter (stdlib ``sqlite3``) running the same
statement on the same data, a capped run against the uncapped run of
the same query (graceful degradation must not change the answer), or a
fixed expectation worked out by hand.  Query semantics at large is also
checked against the algebra evaluator in ``test_vs_algebra_property.py``.
The one comparison inside the package is of the pushed filters' row
tests: each shape that reads its cells directly must keep exactly the
rows on which the generic compiled condition is TRUE.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra.threevl import TRUE, UNKNOWN
from repro.data import Database, Null, Relation
from repro.engine import ResourceLimits
from repro.engine import blocks as B
from repro.engine.blocks import CompiledBlock, ExecContext
from repro.engine.compile import _binary_test, _or_test, _unary_test, compile_cond, row_tests
from repro.engine.executor import Executor
from repro.sql.parser import parse_sql

from .sqlite_ref import engine_bag, sqlite_rows

TEMPLATES = [
    "SELECT a FROM r WHERE a = {c}",
    "SELECT a, b FROM r WHERE a <> {c} AND b >= {c}",
    "SELECT a FROM r WHERE a IS NULL OR b = {c}",
    "SELECT a FROM r WHERE a IN ({c}, {d})",
    "SELECT a FROM r WHERE a NOT IN ({c}, {d})",
    "SELECT a FROM r WHERE a IN (SELECT c FROM s)",
    "SELECT a FROM r WHERE b NOT IN (SELECT d FROM s WHERE s.c = r.a)",
    "SELECT a FROM r WHERE a IN (SELECT c FROM s WHERE d = r.b)",
    "SELECT r.a FROM r, s WHERE r.a = s.c",
    "SELECT r.a FROM r, s WHERE r.b = s.d AND s.c > {c}",
    "SELECT r.a, t.f FROM r, s, t WHERE r.a = s.c AND s.d = t.e AND t.f = {c}",
    "SELECT r.a FROM r, s, t WHERE r.a = s.c AND s.d <> t.e",
    "SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.c = r.a)",
    "SELECT a FROM r WHERE NOT EXISTS "
    "(SELECT * FROM s WHERE s.c = r.a AND s.d <> {c})",
    "SELECT a FROM r WHERE EXISTS "
    "(SELECT * FROM s WHERE s.c = r.a AND (s.d = {c} OR s.d IS NULL))",
    "SELECT a FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE s.c = r.a) "
    "AND NOT EXISTS (SELECT * FROM s WHERE s.d IS NULL)",
    "SELECT a || 'x' FROM r WHERE a IS NOT NULL",
    # Correlated-probe shapes: single- and two-key decorrelation, the
    # memoized `OR … IS NULL` residual, and a nested anti-join.
    "SELECT a FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE s.c = r.a)",
    "SELECT a FROM r WHERE NOT EXISTS "
    "(SELECT * FROM s WHERE s.c = r.a OR s.c IS NULL)",
    "SELECT a FROM r WHERE a IN (SELECT d FROM s WHERE s.c = r.a)",
    "SELECT a FROM r WHERE a NOT IN (SELECT d FROM s WHERE s.c = r.a)",
    "SELECT r.a, r.b FROM r WHERE EXISTS "
    "(SELECT * FROM s WHERE s.c = r.a AND s.d = r.b)",
    "SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.c = r.a AND s.d > 1)",
    "SELECT a FROM r WHERE NOT EXISTS "
    "(SELECT * FROM s WHERE s.c = r.a AND NOT EXISTS "
    "(SELECT * FROM t WHERE t.e = s.d))",
]


def random_db(rng: random.Random) -> Database:
    def cell():
        if rng.random() < 0.25:
            return Null()
        return rng.choice([1, 2, 3])

    def rows(n):
        return [(cell(), cell()) for _ in range(n)]

    return Database(
        {
            "r": Relation(("a", "b"), rows(rng.randint(1, 6))),
            "s": Relation(("c", "d"), rows(rng.randint(1, 6))),
            "t": Relation(("e", "f"), rows(rng.randint(1, 6))),
        }
    )


def run(db, sql, limits=None, marked=False):
    executor = Executor(db, marked_nulls=marked, limits=limits)
    result = executor.execute(parse_sql(sql))
    return result, executor.ctx


@pytest.mark.parametrize("template_index", range(len(TEMPLATES)))
@given(seed=st.integers(0, 10_000), c=st.integers(1, 3), d=st.integers(1, 3))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_compiled_matches_interpreted(template_index, seed, c, d):
    """The compiled engine returns the bag of rows SQLite's interpreter
    returns for the same statement on the same data (standard 3VL)."""
    sql = TEMPLATES[template_index].format(c=c, d=d)
    db = random_db(random.Random(seed))
    result, _ = run(db, sql)
    assert engine_bag(result.rows) == sqlite_rows(db, sql), sql


def assert_capped_matches_uncapped(db, sql, limits):
    uncapped, _ = run(db, sql)
    capped, _ = run(db, sql, limits=limits)
    assert capped.attributes == uncapped.attributes, sql
    assert capped.rows == uncapped.rows, sql  # includes row order


@given(seed=st.integers(0, 3_000))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_capped_matches_uncapped_under_build_row_cap(seed):
    """A tiny probe-build budget degrades decorrelation, not the answer."""
    db = random_db(random.Random(seed))
    sql = "SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.c = r.a)"
    limits = ResourceLimits(max_probe_build_rows=1)
    assert_capped_matches_uncapped(db, sql, limits)


@given(seed=st.integers(0, 3_000))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_capped_matches_uncapped_under_byte_cap(seed):
    """A tiny table-byte budget degrades hash tables, not the answer."""
    db = random_db(random.Random(seed))
    sql = (
        "SELECT r.a FROM r, s WHERE r.a = s.c "
        "AND EXISTS (SELECT * FROM t WHERE t.e = r.b)"
    )
    limits = ResourceLimits(max_probe_table_bytes=1)
    assert_capped_matches_uncapped(db, sql, limits)


class TestInListPartition:
    """``_InValues`` pre-partitions constants into a hash set + residual."""

    @pytest.fixture()
    def db(self):
        return Database(
            {"r": Relation(("a", "b"), [(1, 2), (Null(), 3), (2, Null()), (4, 4)])}
        )

    @pytest.mark.parametrize("marked", [True, False])
    def test_membership_basics(self, db, marked):
        result, _ = run(db, "SELECT a FROM r WHERE a IN (1, 2)", marked=marked)
        assert result.rows == [(1,), (2,)]

    @pytest.mark.parametrize("marked", [True, False])
    def test_null_in_list_makes_misses_unknown(self, db, marked):
        # a NOT IN (1, NULL): misses compare UNKNOWN against the null
        # constant, so nothing survives the negation.
        executor = Executor(db, {"p": Null()}, marked_nulls=marked)
        result = executor.execute(
            parse_sql("SELECT a FROM r WHERE a NOT IN (1, $p)")
        )
        assert result.rows == []

    @pytest.mark.parametrize("marked", [True, False])
    def test_null_probe_is_unknown(self, db, marked):
        result, _ = run(db, "SELECT a FROM r WHERE a NOT IN (5, 6)", marked=marked)
        # The null probe row is UNKNOWN (not TRUE), others pass.
        assert result.rows == [(1,), (2,), (4,)]

    @pytest.mark.parametrize("marked", [True, False])
    def test_list_valued_params_flatten(self, db, marked):
        executor = Executor(db, {"lst": [1, 4]}, marked_nulls=marked)
        result = executor.execute(parse_sql("SELECT a FROM r WHERE a IN ($lst)"))
        assert result.rows == [(1,), (4,)]

    def test_marked_null_const_matches_by_label(self, db):
        n = Null("m")
        db2 = Database({"r": Relation(("a",), [(n,), (Null("k"),), (1,)])})
        executor = Executor(db2, {"p": n}, marked_nulls=True)
        result = executor.execute(parse_sql("SELECT a FROM r WHERE a IN ($p)"))
        assert result.rows == [(n,)]


class TestByteBudgetDegradation:
    def _db(self):
        rows_r = [(i % 50, i % 7) for i in range(300)]
        rows_s = [(i % 50, i % 11) for i in range(300)]
        return Database(
            {
                "r": Relation(("a", "b"), rows_r),
                "s": Relation(("c", "d"), rows_s),
            }
        )

    def test_equi_index_degrades_to_linear_probing(self):
        db = self._db()
        sql = "SELECT r.a FROM r, s WHERE r.a = s.c AND r.b = 1"
        unlimited, _ = run(db, sql)
        capped, ctx = run(db, sql, limits=ResourceLimits(max_probe_table_bytes=1))
        assert ctx.degradations > 0
        assert ctx.table_bytes == 0  # nothing was allowed to materialise
        assert capped.rows == unlimited.rows

    def test_probe_table_degrades_to_memoized_probing(self):
        db = self._db()
        sql = "SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.c = r.a)"
        unlimited, ctx_u = run(db, sql)
        assert ctx_u.decorrelated_probes > 0  # the fast path was in play
        capped, ctx = run(db, sql, limits=ResourceLimits(max_probe_table_bytes=1))
        assert ctx.degradations > 0
        assert ctx.decorrelated_probes == 0
        assert capped.rows == unlimited.rows

    def test_generous_budget_does_not_degrade(self):
        db = self._db()
        sql = "SELECT r.a FROM r, s WHERE r.a = s.c AND r.b = 1"
        _, ctx = run(db, sql, limits=ResourceLimits(max_probe_table_bytes=1 << 30))
        assert ctx.degradations == 0
        assert ctx.table_bytes > 0


class TestJoinOrderAndExplain:
    def test_small_filtered_side_drives_first(self):
        rows_r = [(i, i % 3) for i in range(100)]
        rows_s = [(i, i % 5) for i in range(4)]
        db = Database(
            {
                "r": Relation(("a", "b"), rows_r),
                "s": Relation(("c", "d"), rows_s),
            }
        )
        executor = Executor(db)
        prepared = executor.prepare(
            parse_sql("SELECT r.a FROM r, s WHERE r.a = s.c")
        )
        prepared.run()
        plan = prepared.explain()
        scan_pos = plan.find("scan s")
        probe_pos = plan.find("hash probe r")
        assert scan_pos != -1 and probe_pos != -1, plan
        assert scan_pos < probe_pos, plan

    def test_explain_reports_estimates_and_actuals(self):
        db = Database(
            {
                "r": Relation(("a", "b"), [(1, 1), (2, 2)]),
                "s": Relation(("c", "d"), [(1, 1)]),
            }
        )
        executor = Executor(db)
        prepared = executor.prepare(
            parse_sql("SELECT r.a FROM r, s WHERE r.a = s.c")
        )
        before = prepared.explain()
        assert "[order est≈" in before
        prepared.run()
        after = prepared.explain()
        assert "actual" in after

    def test_explain_before_run_keeps_decorrelation(self):
        # explain() prepares inner blocks; that must not silently disable
        # hash decorrelation for the subsequent run.
        rows_r = [(i % 20, i % 7) for i in range(100)]
        rows_s = [(i % 20, i % 11) for i in range(100)]
        db = Database(
            {
                "r": Relation(("a", "b"), rows_r),
                "s": Relation(("c", "d"), rows_s),
            }
        )
        executor = Executor(db)
        prepared = executor.prepare(
            parse_sql(
                "SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.c = r.a)"
            )
        )
        prepared.explain()
        prepared.run()
        assert executor.ctx.decorrelated_probes > 0

    def test_single_table_keeps_streaming_order(self):
        db = Database({"r": Relation(("a", "b"), [(3, 1), (1, 2), (2, 3)])})
        result, _ = run(db, "SELECT a FROM r WHERE a >= 1")
        assert result.rows == [(3,), (1,), (2,)]  # source order preserved


# ---------------------------------------------------------------------------
# Row tests of pushed filters against the generic compiled condition
# ---------------------------------------------------------------------------

_ORDER_OPS = ["=", "<>", "<", "<=", ">", ">="]

#: (WHERE condition on u, the builder expected to take it: "unary",
#: "binary", "or", or "generic"; marked ``=``/``<>`` between columns
#: fall back under marked nulls only); ``$n`` is a null parameter
ROW_TEST_CASES = (
    [(f"a {op} 2", "unary") for op in _ORDER_OPS]
    + [(f"2 {op} a", "unary") for op in _ORDER_OPS]
    + [(f"a {op} $n", "unary") for op in _ORDER_OPS]
    + [
        ("s LIKE 'x%'", "unary"),
        ("s NOT LIKE '%y'", "unary"),
        ("s LIKE '%' || $c || '%'", "unary"),
        ("s LIKE $n", "unary"),
        ("s NOT LIKE $n", "unary"),
        ("'xy' LIKE s", "generic"),
        ("a IS NULL", "unary"),
        ("a IS NOT NULL", "unary"),
        ("a IN (1, 2)", "unary"),
        ("a NOT IN (1, 2)", "unary"),
        ("a IN (1, $n)", "unary"),
        ("a NOT IN (1, $n)", "unary"),
        ("a IN ($n)", "unary"),
        ("a NOT IN ($n)", "unary"),
    ]
    + [(f"a {op} b", "binary") for op in _ORDER_OPS]
    + [
        ("s LIKE t", "generic"),
        ("a = 1 OR b IS NULL", "or"),
        ("s NOT LIKE 'y%' OR a >= $n", "or"),
        ("a < 2 OR a > 2 OR b IS NULL", "generic"),
        ("a = 1 OR b = a", "generic"),
    ]
)

_LABELS = ("n0", "n1")


def _nullable_rows(rng: random.Random, count: int):
    """u(a, b, s, t): int and string columns whose nulls reuse the labels
    of the null parameter, so marked-null equality has matches."""

    def cell(values):
        return Null(rng.choice(_LABELS)) if rng.random() < 0.3 else rng.choice(values)

    ints, strings = (1, 2, 3), ("x", "xy", "yx", "y", "z")
    return [(cell(ints), cell(ints), cell(strings), cell(strings)) for _ in range(count)]


def _compiled_filter(where: str, rows, marked: bool):
    """The IR of condition *where* over u, and u's source.  It is
    compiled directly, so ``a = 2``, which a WHERE clause would turn into
    a probe, is tested too (it is pushed as an arm of an ``OR``)."""
    db = Database({"u": Relation(("a", "b", "s", "t"), rows)})
    ctx = ExecContext(db, {"n": Null("n0"), "c": "y"}, marked_nulls=marked)
    select = parse_sql(f"SELECT * FROM u WHERE {where}").body
    block = CompiledBlock(parse_sql("SELECT * FROM u").body, ctx, None)
    return block.sources["u"], block._cond(select.where)


def _shape(cond, source) -> str:
    for name, builder in (("unary", _unary_test), ("binary", _binary_test), ("or", _or_test)):
        if builder(cond, source) is not None:
            return name
    return "generic"


@pytest.mark.parametrize("marked", [False, True], ids=["sql-nulls", "marked-nulls"])
@pytest.mark.parametrize("where, shape", ROW_TEST_CASES, ids=[c for c, _ in ROW_TEST_CASES])
def test_row_test_matches_the_generic_closure(where, shape, marked):
    """The condition takes the expected builder, and its row test keeps a
    random nullable row exactly when the generic closure is TRUE on it."""
    rows = _nullable_rows(random.Random(where), 300)
    source, cond = _compiled_filter(where, rows, marked)
    marked_cmp = marked and shape == "binary" and cond.op in ("=", "<>")
    assert _shape(cond, source) == ("generic" if marked_cmp else shape)
    (test,) = row_tests(source, [cond])
    generic = compile_cond(cond)
    slotmap = {("u", col): i for i, col in enumerate(source.columns)}
    for row in rows:
        assert bool(test(row)) == (generic((slotmap, row), {}) is TRUE), (where, row)


@pytest.mark.parametrize("marked", [False, True], ids=["sql-nulls", "marked-nulls"])
@pytest.mark.parametrize("where", ["s LIKE '%' || $c || '%'", "s = 'x' || $c"])
def test_concat_over_constants_is_folded(where, marked):
    """``||`` over constants compiles to one constant, the value the
    per-row concatenation would give: with a null parameter, a fresh
    null, so the filter is UNKNOWN on every row under both null
    semantics, as in sqlite."""
    rows = [("x",), ("xy",), ("yx",), (Null("r0"),), ("y",)]
    db = Database({"u": Relation(("s",), rows)})
    null = Null("p0")
    for value, sqlite_value in ((null, "NULL"), ("y", "'y'")):
        ctx = ExecContext(db, {"c": value}, marked_nulls=marked)
        sql = f"SELECT s FROM u WHERE {where}"
        block = CompiledBlock(parse_sql("SELECT s FROM u").body, ctx, None)
        cond = block._cond(parse_sql(sql).body.where)
        assert isinstance(cond.right, B._Const)
        assert B._cond_key(cond) is None  # a folded constant is never kept
        if value is null:
            assert isinstance(cond.right.value, Null) and cond.right.value != null
            fn = compile_cond(cond)
            assert all(fn(({("u", "s"): 0}, row), {}) is UNKNOWN for row in rows)
        for query in (sql, f"SELECT s FROM u WHERE NOT ({where})"):
            result = Executor(db, {"c": value}, marked_nulls=marked).execute(parse_sql(query))
            expected = sqlite_rows(db, query.replace("$c", sqlite_value))
            assert engine_bag(result.rows) == expected, query


@pytest.mark.parametrize("where", ["s = 'x' || $c", "s IN ('x' || $c)"])
def test_concat_with_a_null_part_is_a_fresh_null(where):
    """``'x' || ⊥p0`` is a null of its own: under marked nulls it does
    not equal ``⊥p0``, since ``'x' || v = v`` is false in every
    valuation.  The constant fold calls the per-row closure, so both
    statements take the same rule."""
    db = Database({"u": Relation(("s",), [(Null("p0"),), ("x",)])})
    sql = f"SELECT s FROM u WHERE {where}"
    for marked in (False, True):
        result = Executor(db, {"c": Null("p0")}, marked_nulls=marked).execute(parse_sql(sql))
        assert result.rows == [], (sql, marked)
    expected = sqlite_rows(db, sql.replace("$c", "NULL"))
    assert engine_bag(Executor(db, {"c": Null("p0")}).execute(parse_sql(sql)).rows) == expected


def test_per_row_concat_over_a_null_column_is_a_fresh_null():
    """``t || 'x'`` over a null cell gives a fresh null per row: under
    marked nulls it equals neither the cell's null nor another row's."""
    rows = [(Null("p0"), Null("p0")), (Null("p0"), "x"), ("a", "ax")]
    db = Database({"u": Relation(("t", "s"), rows)})
    for where in ("s = t || 'x'", "t || 'x' = t || 'x'", "t || 'x' IS NULL"):
        sql = f"SELECT t, s FROM u WHERE {where}"
        marked = Executor(db, marked_nulls=True).execute(parse_sql(sql))
        plain = Executor(db).execute(parse_sql(sql))
        assert marked.rows == plain.rows, sql
        assert engine_bag(plain.rows) == sqlite_rows(db, sql), sql
    projected = Executor(db, marked_nulls=True).execute(parse_sql("SELECT t || 'x' FROM u"))
    first, second, third = (value for (value,) in projected.rows)
    assert isinstance(first, Null) and isinstance(second, Null) and third == "ax"
    assert len({first, second, Null("p0")}) == 3
