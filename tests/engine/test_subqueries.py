"""Subquery semantics: EXISTS, IN, NOT IN, scalar aggregates — with nulls."""

import pytest

from repro.data import Database, Null, Relation, is_null
from repro.engine import Executor, execute_sql
from repro.engine.limits import EngineError
from repro.sql.parser import parse_sql

from .sqlite_ref import engine_bag, sqlite_rows


@pytest.fixture
def db():
    n = Null()
    return Database(
        {
            "r": Relation(("a",), [(1,), (2,), (3,)]),
            "s": Relation(("a",), [(2,), (n,)]),
            "empty": Relation(("a",), []),
            "orders": Relation(
                ("okey", "cust"), [(100, 1), (101, 1), (102, Null())]
            ),
        }
    )


class TestExists:
    def test_correlated_exists(self, db):
        out = execute_sql(
            db, "SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.a = r.a)"
        )
        assert out.rows == [(2,)]

    def test_correlated_not_exists_shows_false_positives(self, db):
        """The intro phenomenon: 1 and 3 survive although the null in s
        could be either of them."""
        out = execute_sql(
            db, "SELECT a FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE s.a = r.a)"
        )
        assert set(out.rows) == {(1,), (3,)}

    def test_uncorrelated_exists(self, db):
        out = execute_sql(db, "SELECT a FROM r WHERE EXISTS (SELECT * FROM empty)")
        assert out.rows == []
        out = execute_sql(db, "SELECT a FROM r WHERE EXISTS (SELECT * FROM s)")
        assert len(out) == 3

    def test_uncorrelated_not_exists_short_circuit(self, db):
        out = execute_sql(
            db,
            "SELECT a FROM r WHERE NOT EXISTS "
            "(SELECT * FROM orders WHERE cust IS NULL)",
        )
        assert out.rows == []

    def test_nested_correlation_two_levels(self, db):
        out = execute_sql(
            db,
            "SELECT a FROM r WHERE EXISTS (SELECT * FROM s "
            "WHERE s.a = r.a AND EXISTS (SELECT * FROM orders WHERE cust = r.a))",
        )
        assert out.rows == []  # s.a = 2 matches r.a = 2 but no order has cust 2


class TestIn:
    def test_in_subquery(self, db):
        out = execute_sql(db, "SELECT a FROM r WHERE a IN (SELECT a FROM s)")
        assert out.rows == [(2,)]

    def test_not_in_subquery_with_null_excludes_everything(self, db):
        """SQL's infamous NOT IN + NULL behaviour."""
        out = execute_sql(db, "SELECT a FROM r WHERE a NOT IN (SELECT a FROM s)")
        assert out.rows == []

    def test_not_in_subquery_without_nulls(self, db):
        out = execute_sql(
            db, "SELECT a FROM r WHERE a NOT IN (SELECT a FROM s WHERE a IS NOT NULL)"
        )
        assert set(out.rows) == {(1,), (3,)}

    def test_not_in_empty_is_true(self, db):
        out = execute_sql(db, "SELECT a FROM r WHERE a NOT IN (SELECT a FROM empty)")
        assert len(out) == 3

    def test_in_value_list_with_null_expr(self, db):
        out = execute_sql(db, "SELECT a FROM s WHERE a IN (2, 3)")
        assert out.rows == [(2,)]  # the null row is unknown → filtered

    def test_not_in_value_list_null_expr_unknown(self, db):
        out = execute_sql(db, "SELECT a FROM s WHERE a NOT IN (3, 4)")
        assert out.rows == [(2,)]

    def test_correlated_in(self, db):
        out = execute_sql(
            db,
            "SELECT a FROM r WHERE a IN (SELECT cust FROM orders WHERE okey < 102)",
        )
        assert out.rows == [(1,)]

    @pytest.mark.parametrize("marked", [False, True])
    def test_correlated_not_in_matches_sqlite(self, marked):
        """Correlated NOT IN with nulls on both sides; expected rows from
        sqlite3.  Every null has its own label, so marked-null mode has
        no label to match and must agree with standard SQL."""
        r_rows = [(1, 1), (1, 2), (2, None), (None, 3), (3, 3), (2, 1)]
        s_rows = [(1, 1), (1, None), (2, 2), (3, None), (None, 3)]
        sql = "SELECT a, b FROM r WHERE b NOT IN (SELECT d FROM s WHERE s.c = r.a)"

        def nullify(rows):
            return [tuple(Null() if v is None else v for v in row) for row in rows]

        db = Database(
            {
                "r": Relation(("a", "b"), nullify(r_rows)),
                "s": Relation(("c", "d"), nullify(s_rows)),
            }
        )
        rows = execute_sql(db, sql, marked_nulls=marked).rows
        assert engine_bag(rows) == sqlite_rows(db, sql)


class TestScalarAggregates:
    def test_avg_ignores_nulls(self):
        n = Null()
        db = Database({"t": Relation(("v",), [(1,), (3,), (n,)])})
        out = execute_sql(db, "SELECT v FROM t WHERE v > (SELECT AVG(v) FROM t)")
        assert out.rows == [(3,)]  # avg of {1,3} = 2

    def test_aggregate_over_empty_is_null(self, db):
        out = execute_sql(
            db, "SELECT a FROM r WHERE a > (SELECT MAX(a) FROM empty)"
        )
        assert out.rows == []  # comparison with NULL is unknown

    def test_count_star_vs_count_column(self):
        n = Null()
        db = Database({"t": Relation(("v",), [(1,), (n,)])})
        out = execute_sql(db, "SELECT v FROM t WHERE 2 = (SELECT COUNT(*) FROM t)")
        assert len(out) == 2
        out = execute_sql(db, "SELECT v FROM t WHERE 1 = (SELECT COUNT(v) FROM t)")
        assert len(out) == 2

    def test_sum_min_max(self):
        db = Database({"t": Relation(("v",), [(1,), (2,), (3,)])})
        assert len(execute_sql(db, "SELECT v FROM t WHERE 6 = (SELECT SUM(v) FROM t)")) == 3
        assert len(execute_sql(db, "SELECT v FROM t WHERE 1 = (SELECT MIN(v) FROM t)")) == 3
        assert len(execute_sql(db, "SELECT v FROM t WHERE 3 = (SELECT MAX(v) FROM t)")) == 3

    def test_correlated_scalar_rejected(self, db):
        with pytest.raises(EngineError, match="correlated scalar"):
            execute_sql(
                db,
                "SELECT a FROM r WHERE a > (SELECT AVG(okey) FROM orders "
                "WHERE cust = r.a)",
            )

    def test_q2_shape(self, db):
        """Customers above average balance without orders (simplified)."""
        out = execute_sql(
            db,
            "SELECT a FROM r WHERE a > (SELECT AVG(a) FROM r) "
            "AND NOT EXISTS (SELECT * FROM orders WHERE cust = r.a)",
        )
        assert out.rows == [(3,)]


class TestScalarSubqueryPositions:
    """A scalar subquery outside a comparison: its inner block runs once
    per statement, so ``rows_examined`` is the 3 rows of ``s`` plus the
    outer rows the statement produces."""

    @pytest.fixture
    def db(self):
        return Database(
            {
                "r": Relation(("a",), [(1,), (3,), (Null(),), (4,)]),
                "s": Relation(("c",), [(1,), (3,), (Null(),)]),
            }
        )

    @staticmethod
    def run(db, sql):
        executor = Executor(db)
        rows = executor.execute(parse_sql(sql)).rows
        return rows, executor.ctx.rows_examined

    def test_is_null(self, db):
        rows, examined = self.run(
            db, "SELECT a FROM r WHERE (SELECT MAX(c) FROM s) IS NULL"
        )
        assert (rows, examined) == ([], 3)  # FALSE before r is scanned
        rows, examined = self.run(
            db, "SELECT a FROM r WHERE (SELECT MAX(c) FROM s) IS NOT NULL"
        )
        assert len(rows) == 4 and examined == 7

    def test_in_value_list(self, db):
        rows, examined = self.run(
            db, "SELECT a FROM r WHERE a IN ((SELECT MAX(c) FROM s), 1)"
        )
        assert (rows, examined) == ([(1,), (3,)], 5)
        rows, examined = self.run(
            db, "SELECT a FROM r WHERE a NOT IN ((SELECT MAX(c) FROM s), 1)"
        )
        assert (rows, examined) == ([(4,)], 4)  # the null a is UNKNOWN

    def test_select_list(self, db):
        rows, examined = self.run(db, "SELECT (SELECT max(c) FROM s) FROM r")
        assert (rows, examined) == ([(3,)] * 4, 7)

    def test_concat_operand(self, db):
        rows, examined = self.run(db, "SELECT 'x' || (SELECT MIN(c) FROM s) FROM r")
        assert (rows, examined) == ([("x1",)] * 4, 7)

    def test_null_aggregate_propagates_through_concat(self, db):
        db = Database({"r": db["r"], "s": Relation(("c",), [(Null(),)])})
        rows, _ = self.run(db, "SELECT 'x' || (SELECT MIN(c) FROM s) FROM r")
        assert len(rows) == 4 and all(is_null(v) for (v,) in rows)

    def test_prepared_reruns_reuse_the_value(self, db):
        executor = Executor(db)
        prepared = executor.prepare(parse_sql("SELECT (SELECT max(c) FROM s) FROM r"))
        assert prepared.run().rows == [(3,)] * 4
        assert prepared.run().rows == [(3,)] * 4
        assert executor.ctx.rows_examined == 3 + 4 + 4
