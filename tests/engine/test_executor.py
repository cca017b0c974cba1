"""Engine basics: selects, projections, set ops, CTEs, parameters."""

import gc

import pytest

from repro.data import Database, Null, Relation
from repro.engine import execute_sql
from repro.engine.limits import EngineError

from .sqlite_ref import engine_bag, sqlite_rows


@pytest.fixture
def db():
    n = Null()
    return Database(
        {
            "t": Relation(("a", "b"), [(1, "x"), (2, "y"), (3, n)]),
            "u": Relation(("a", "c"), [(1, 10), (2, 20)]),
        }
    )


class TestProjection:
    def test_columns(self, db):
        out = execute_sql(db, "SELECT a FROM t")
        assert out.attributes == ("a",)
        assert set(out.rows) == {(1,), (2,), (3,)}

    def test_star(self, db):
        out = execute_sql(db, "SELECT * FROM u")
        assert out.attributes == ("a", "c")

    def test_star_over_join_dedupes_names(self, db):
        out = execute_sql(db, "SELECT * FROM t, u WHERE t.a = u.a")
        assert len(out.attributes) == 4
        assert len(set(out.attributes)) == 4  # a vs a_1

    def test_repeated_names_skip_taken_ones(self, db):
        sql = "SELECT t1.a, t2.a, t1.b AS a_1 FROM t t1, t t2"
        out = execute_sql(db, sql)
        assert out.attributes == ("a", "a_2", "a_1")
        assert engine_bag(out.rows) == sqlite_rows(db, sql)

    def test_aliases(self, db):
        out = execute_sql(db, "SELECT a AS k, b v FROM t")
        assert out.attributes == ("k", "v")

    def test_distinct(self, db):
        out = execute_sql(db, "SELECT DISTINCT b FROM t WHERE a < 3 "
                              "UNION ALL SELECT b FROM t WHERE a = 1")
        assert len(out) == 3  # UNION ALL keeps the duplicate across operands

    def test_bag_semantics_without_distinct(self):
        db = Database({"t": Relation(("a", "b"), [(1, 1), (1, 2)])})
        out = execute_sql(db, "SELECT a FROM t")
        assert out.rows == [(1,), (1,)]
        out = execute_sql(db, "SELECT DISTINCT a FROM t")
        assert out.rows == [(1,)]


class TestWhere:
    def test_filters(self, db):
        out = execute_sql(db, "SELECT a FROM t WHERE a >= 2")
        assert set(out.rows) == {(2,), (3,)}

    def test_null_comparison_filters_row(self, db):
        out = execute_sql(db, "SELECT a FROM t WHERE b = 'x' OR b = 'y'")
        assert set(out.rows) == {(1,), (2,)}  # the null-b row is unknown

    def test_is_null(self, db):
        out = execute_sql(db, "SELECT a FROM t WHERE b IS NULL")
        assert out.rows == [(3,)]

    def test_like(self, db):
        out = execute_sql(db, "SELECT a FROM t WHERE b LIKE 'x%'")
        assert out.rows == [(1,)]

    def test_equi_join(self, db):
        out = execute_sql(db, "SELECT t.a, c FROM t, u WHERE t.a = u.a")
        assert set(out.rows) == {(1, 10), (2, 20)}

    def test_cartesian(self, db):
        out = execute_sql(db, "SELECT t.a FROM t, u")
        assert len(out) == 6


class TestParameters:
    def test_scalar_param(self, db):
        out = execute_sql(db, "SELECT a FROM t WHERE b = $v", {"v": "y"})
        assert out.rows == [(2,)]

    def test_list_param_in(self, db):
        out = execute_sql(db, "SELECT a FROM t WHERE a IN ($ids)", {"ids": [1, 3]})
        assert set(out.rows) == {(1,), (3,)}

    def test_concat_param(self, db):
        out = execute_sql(
            db, "SELECT a FROM t WHERE b LIKE '%' || $p || '%'", {"p": "x"}
        )
        assert out.rows == [(1,)]

    def test_unbound_param_rejected(self, db):
        with pytest.raises(EngineError, match="unbound parameter"):
            execute_sql(db, "SELECT a FROM t WHERE b = $nope")


class TestSetOps:
    def test_union_dedupes(self, db):
        out = execute_sql(db, "SELECT a FROM t UNION SELECT a FROM u")
        assert sorted(out.rows) == [(1,), (2,), (3,)]

    def test_union_all(self, db):
        out = execute_sql(db, "SELECT a FROM t UNION ALL SELECT a FROM u")
        assert len(out) == 5

    def test_intersect(self, db):
        out = execute_sql(db, "SELECT a FROM t INTERSECT SELECT a FROM u")
        assert sorted(out.rows) == [(1,), (2,)]

    def test_except(self, db):
        out = execute_sql(db, "SELECT a FROM t EXCEPT SELECT a FROM u")
        assert out.rows == [(3,)]

    def test_arity_mismatch_rejected(self, db):
        with pytest.raises(EngineError, match="arity"):
            execute_sql(db, "SELECT a, b FROM t UNION SELECT a FROM u")


class TestCtes:
    def test_view_materialised(self, db):
        out = execute_sql(
            db,
            "WITH big AS (SELECT a FROM t WHERE a > 1) "
            "SELECT a FROM big WHERE a < 3",
        )
        assert out.rows == [(2,)]

    def test_view_joinable(self, db):
        out = execute_sql(
            db,
            "WITH keys AS (SELECT a FROM u) "
            "SELECT t.b FROM t, keys WHERE t.a = keys.a",
        )
        assert set(out.rows) == {("x",), ("y",)}

    def test_duplicate_view_rejected(self, db):
        with pytest.raises(EngineError, match="duplicate WITH"):
            execute_sql(
                db,
                "WITH v AS (SELECT a FROM t), v AS (SELECT a FROM u) "
                "SELECT * FROM v",
            )

    def test_prepare_is_reentrant(self, db):
        # Regression: preparing the same CTE query twice on one Executor
        # used to raise a spurious "duplicate WITH view" error because
        # the view survived in ctx.ctes from the first prepare.
        from repro.engine import Executor
        from repro.sql.parser import parse_sql

        query = parse_sql(
            "WITH big AS (SELECT a FROM t WHERE a > 1) "
            "SELECT a FROM big WHERE a < 3"
        )
        executor = Executor(db)
        first = executor.prepare(query).run()
        second = executor.prepare(query).run()
        assert first.rows == second.rows == [(2,)]

    def test_prepare_reentry_still_rejects_intra_statement_duplicates(self, db):
        from repro.engine import Executor
        from repro.sql.parser import parse_sql

        query = parse_sql(
            "WITH v AS (SELECT a FROM t), v AS (SELECT a FROM u) SELECT * FROM v"
        )
        executor = Executor(db)
        with pytest.raises(EngineError, match="duplicate WITH"):
            executor.prepare(query)


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT t.b FROM t, u WHERE t.a = u.a AND u.c > 5",
        "SELECT a FROM t WHERE EXISTS (SELECT * FROM u WHERE u.a = t.a)",
        "SELECT a FROM t WHERE NOT EXISTS (SELECT * FROM u WHERE u.a = t.a AND u.c > t.a)",
        "SELECT a FROM t WHERE a IN (SELECT a FROM u WHERE u.c > 5)",
        "SELECT a FROM t WHERE a < (SELECT MAX(a) FROM u)",
        "WITH v AS (SELECT a FROM u) SELECT t.b FROM t, v WHERE t.a = v.a "
        "UNION SELECT b FROM t WHERE a = 3",
    ],
)
def test_statement_leaves_no_reference_cycles(db, sql):
    """A finished statement's blocks and run state (filtered rows, hash
    tables, probe tables) are freed by reference counting, not left for
    the cyclic GC."""
    execute_sql(db, sql)  # parse once through the plan cache
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        execute_sql(db, sql)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


class TestErrors:
    def test_unknown_table(self, db):
        with pytest.raises(EngineError, match="unknown table"):
            execute_sql(db, "SELECT a FROM missing")

    def test_unknown_column(self, db):
        with pytest.raises(EngineError):
            execute_sql(db, "SELECT zzz FROM t")

    def test_ambiguous_column(self, db):
        with pytest.raises(EngineError, match="ambiguous"):
            execute_sql(db, "SELECT a FROM t, u")

    def test_aggregate_outside_scalar_subquery_rejected(self, db):
        with pytest.raises(EngineError, match="aggregate"):
            execute_sql(db, "SELECT a FROM t WHERE a > AVG(a)")
