"""SQL → relational algebra: agreement with the engine, scoping rules."""

import pytest

from repro.algebra import evaluate
from repro.data import Database, Null, Relation
from repro.engine import execute_sql
from repro.sql.parser import parse_sql
from repro.sql.to_algebra import AlgebraTranslationError, sql_to_algebra


@pytest.fixture
def db():
    n = Null()
    return Database(
        {
            "emp": Relation(
                ("eid", "dept", "boss"),
                [(1, "db", 2), (2, "db", n), (3, "os", 1)],
            ),
            "dep": Relation(("dname", "head"), [("db", 2), ("os", 3)]),
        }
    )


CASES = [
    "SELECT eid FROM emp",
    "SELECT eid, dept FROM emp WHERE eid > 1",
    "SELECT e.eid FROM emp e, dep d WHERE e.dept = d.dname",
    "SELECT eid FROM emp WHERE dept = 'db' AND eid <> 2",
    "SELECT eid FROM emp WHERE EXISTS "
    "(SELECT * FROM dep WHERE head = emp.eid)",
    "SELECT eid FROM emp WHERE NOT EXISTS "
    "(SELECT * FROM dep WHERE head = emp.eid)",
    "SELECT eid FROM emp WHERE eid IN (SELECT head FROM dep)",
    "SELECT eid FROM emp WHERE dept IN ('db', 'os') AND eid >= 2",
    "SELECT dname FROM dep UNION SELECT dept FROM emp",
    "SELECT dept FROM emp EXCEPT SELECT dname FROM dep WHERE head = 2",
    "SELECT e1.eid FROM emp e1, emp e2 WHERE e1.boss = e2.eid",
    "WITH heads AS (SELECT head FROM dep) "
    "SELECT eid FROM emp WHERE eid IN (SELECT head FROM heads)",
]


@pytest.mark.parametrize("sql", CASES)
def test_engine_and_algebra_agree_under_3vl(sql, db):
    """The engine and the reference algebra evaluator must compute the
    same answers for the EXISTS/IN fragment under SQL semantics."""
    query = parse_sql(sql)
    expr = sql_to_algebra(query, db)
    algebra_result = evaluate(expr, db, semantics="sql")
    engine_result = execute_sql(db, query)
    assert set(engine_result.rows) == set(algebra_result.rows)


def test_parameters_are_folded(db):
    expr = sql_to_algebra(
        parse_sql("SELECT eid FROM emp WHERE dept = $d"), db, params={"d": "os"}
    )
    out = evaluate(expr, db, semantics="sql")
    assert out.rows == [(3,)]


def test_list_parameter_expansion(db):
    expr = sql_to_algebra(
        parse_sql("SELECT eid FROM emp WHERE eid IN ($ids)"),
        db,
        params={"ids": [1, 3]},
    )
    out = evaluate(expr, db, semantics="sql")
    assert set(out.rows) == {(1,), (3,)}


def test_unbound_parameter_rejected(db):
    with pytest.raises(AlgebraTranslationError, match="unbound parameter"):
        sql_to_algebra(parse_sql("SELECT eid FROM emp WHERE dept = $d"), db)


def test_scalar_subquery_requires_resolver(db):
    sql = "SELECT eid FROM emp WHERE eid > (SELECT AVG(eid) FROM emp)"
    with pytest.raises(AlgebraTranslationError, match="scalar"):
        sql_to_algebra(parse_sql(sql), db)


def test_scalar_subquery_with_resolver(db):
    sql = "SELECT eid FROM emp WHERE eid > (SELECT AVG(eid) FROM emp)"
    expr = sql_to_algebra(parse_sql(sql), db, scalar_resolver=lambda q: 2)
    out = evaluate(expr, db, semantics="sql")
    assert out.rows == [(3,)]


def test_ambiguous_column_rejected(db):
    # 'head' exists in dep only — but eid in both emp aliases.
    sql = "SELECT eid FROM emp e1, emp e2 WHERE boss = 1"
    with pytest.raises(AlgebraTranslationError, match="ambiguous"):
        sql_to_algebra(parse_sql(sql), db)


def test_in_subquery_must_select_single_column(db):
    sql = "SELECT eid FROM emp WHERE eid IN (SELECT * FROM dep)"
    with pytest.raises(AlgebraTranslationError):
        sql_to_algebra(parse_sql(sql), db)


def test_select_star_takes_output_names(db):
    expr = sql_to_algebra(parse_sql("SELECT * FROM dep"), db)
    out = evaluate(expr, db, semantics="sql")
    assert out.attributes == ("dname", "head")


def test_a_column_selected_twice_is_rejected(db):
    # The algebra's attributes are sets of names: a projection cannot
    # repeat one, whatever the aliases.
    with pytest.raises(AlgebraTranslationError, match="cannot repeat"):
        sql_to_algebra(parse_sql("SELECT eid AS x, eid AS y FROM emp"), db)


def test_duplicate_output_names_rejected(db):
    with pytest.raises(AlgebraTranslationError, match="duplicate"):
        sql_to_algebra(parse_sql("SELECT eid, eid FROM emp"), db)


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT a FROM t WHERE NOT EXISTS (SELECT * FROM s WHERE s.c = t.a "
        "AND NOT EXISTS (SELECT * FROM t t2 WHERE t2.b = t.b))",
        "SELECT a FROM t WHERE EXISTS (SELECT * FROM s WHERE t.a IN (SELECT d FROM s s2))",
    ],
)
def test_correlation_two_blocks_out_rejected(sql):
    # The inner block is folded into its parent's expression, where the
    # outermost block's columns are not bound.
    db = Database(
        {"t": Relation(("a", "b"), [(1, 2)]), "s": Relation(("c", "d"), [(1, 2)])}
    )
    with pytest.raises(AlgebraTranslationError, match="one level of correlation"):
        sql_to_algebra(parse_sql(sql), db)
