"""Value domains the TPC-H queries rely on: dates, floats, strings."""

import datetime

import pytest

from repro.data import Database, Null, Relation, is_null
from repro.engine import execute_sql

from .sqlite_ref import engine_bag, sqlite_rows

D = datetime.date


@pytest.fixture
def db():
    return Database(
        {
            "shipments": Relation(
                ("sid", "commit_d", "receipt_d", "price"),
                [
                    (1, D(1995, 3, 1), D(1995, 2, 20), 100.0),   # early
                    (2, D(1995, 3, 1), D(1995, 3, 10), 250.50),  # late
                    (3, D(1995, 3, 1), Null(), 99.99),           # unknown
                ],
            ),
        }
    )


class TestDates:
    def test_date_comparison(self, db):
        out = execute_sql(
            db, "SELECT sid FROM shipments WHERE receipt_d > commit_d"
        )
        assert out.rows == [(2,)]  # the null row is unknown, not selected

    def test_date_ordering_in_filters(self, db):
        out = execute_sql(
            db, "SELECT sid FROM shipments WHERE commit_d >= receipt_d"
        )
        assert out.rows == [(1,)]

    def test_dates_as_join_keys(self, db):
        out = execute_sql(
            db,
            "SELECT a.sid FROM shipments a, shipments b "
            "WHERE a.receipt_d = b.commit_d AND a.sid <> b.sid",
        )
        # receipt of nobody equals commit of anybody except... commit
        # dates are all 1995-03-01; no receipt date equals it.
        assert out.rows == []


class TestNumbers:
    def test_float_comparison(self, db):
        out = execute_sql(db, "SELECT sid FROM shipments WHERE price > 100")
        assert out.rows == [(2,)]

    def test_float_literal_precision(self, db):
        out = execute_sql(db, "SELECT sid FROM shipments WHERE price = 250.5")
        assert out.rows == [(2,)]

    def test_int_float_mixing(self, db):
        out = execute_sql(db, "SELECT sid FROM shipments WHERE price = 100")
        assert out.rows == [(1,)]  # 100.0 == 100


class TestStrings:
    def test_case_sensitive_comparison(self):
        db = Database({"t": Relation(("s",), [("Abc",), ("abc",)])})
        out = execute_sql(db, "SELECT s FROM t WHERE s = 'abc'")
        assert out.rows == [("abc",)]

    def test_like_on_multiword_strings(self):
        db = Database(
            {"t": Relation(("s",), [("forest green lace",), ("navy blue",)])}
        )
        out = execute_sql(db, "SELECT s FROM t WHERE s LIKE '%green%'")
        assert out.rows == [("forest green lace",)]

    def test_concat_comparison(self):
        db = Database({"t": Relation(("a", "b"), [("fo", "o"), ("ba", "r")])})
        out = execute_sql(db, "SELECT a FROM t WHERE a || b = 'foo'")
        assert out.rows == [("fo",)]

    def test_concat_null_propagates(self):
        db = Database({"t": Relation(("a", "b"), [("fo", Null())])})
        out = execute_sql(db, "SELECT a FROM t WHERE a || b = 'foo'")
        assert out.rows == []
        out = execute_sql(db, "SELECT a FROM t WHERE a || b IS NULL")
        assert out.rows == [("fo",)]

    def test_concat_in_select_list(self):
        db = Database({"t": Relation(("a",), [(1,), (Null(),), ("b",)])})
        out = execute_sql(db, "SELECT a || 'x' FROM t WHERE a IS NOT NULL")
        assert out.rows == [("1x",), ("bx",)]
        out = execute_sql(db, "SELECT a || 'x' FROM t")
        assert out.rows[0] == ("1x",) and is_null(out.rows[1][0])


#: Integer rows with nulls for LIKE over non-text operands.
LIKE_ROWS = [(1, 1), (12, 1), (1, 12), (2, 12), (None, 1), (1, None), (12, 12)]


@pytest.mark.parametrize(
    "where",
    [
        "1 LIKE a",
        "a LIKE 1",
        "a LIKE '1%'",
        "a NOT LIKE 1",
        "b NOT LIKE a",
        "a LIKE b",
    ],
)
def test_like_on_integers_matches_sqlite(where):
    """LIKE with a non-text operand matches the operands' text; the
    expected rows come from sqlite3 on the same data."""
    sql = f"SELECT a, b FROM r WHERE {where}"
    db = Database(
        {
            "r": Relation(
                ("a", "b"),
                [tuple(Null() if v is None else v for v in row) for row in LIKE_ROWS],
            )
        }
    )
    assert engine_bag(execute_sql(db, sql).rows) == sqlite_rows(db, sql)
