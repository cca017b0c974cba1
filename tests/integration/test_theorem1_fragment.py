"""Theorem 1 on the route the repo runs, one SQL form per operator.

``Q+`` is produced by ``rewrite_certain`` (SQL → SQL) and executed by
the engine under plain 3VL.  For each query below (one per operator of
the translated fragment, plus the ``NOT IN`` and ``IS NULL`` corners of
Section 7's SQL adjustment) the result must be contained in the
brute-force certain answers on small random instances with nulls, and
must equal the original query's answers on instances without nulls.
"""

import random

import pytest

from repro.analysis import UNSOUND, analyze_sql
from repro.certain import certain_answers_with_nulls
from repro.data import Database, Relation
from repro.data.schema import DatabaseSchema, make_schema
from repro.engine import execute_sql
from repro.sql.parser import parse_sql
from repro.sql.rewrite import rewrite_certain
from repro.sql.to_algebra import sql_to_algebra

from ..translate.instances import random_db

QUERIES = {
    "base": "SELECT A, B FROM R",
    "selection": "SELECT A, B FROM R WHERE A = 1",
    "selection-neq": "SELECT A, B FROM R WHERE A <> B",
    "projection": "SELECT B FROM R",
    "join": "SELECT R.A, S.D FROM R, S WHERE R.B = S.C",
    "theta-join": "SELECT R.A, S.C FROM R, S WHERE R.A <> S.D",
    "union": "SELECT A, B FROM R UNION SELECT C, D FROM S",
    "intersection": "SELECT A, B FROM R INTERSECT SELECT C, D FROM S",
    "difference": "SELECT A, B FROM R EXCEPT SELECT C, D FROM S",
    "semijoin": "SELECT A FROM R WHERE EXISTS (SELECT * FROM S WHERE S.C = R.B)",
    "antijoin": "SELECT A FROM R WHERE NOT EXISTS (SELECT * FROM S WHERE S.C = R.B)",
    "antijoin-neq": "SELECT A FROM R WHERE NOT EXISTS "
    "(SELECT * FROM S WHERE S.C = R.A AND S.D <> 1)",
    "in": "SELECT A FROM R WHERE A IN (SELECT C FROM S)",
    "not-in": "SELECT A FROM R WHERE A NOT IN (SELECT C FROM S)",
    "not-in-list": "SELECT A FROM R WHERE A NOT IN (1, 2)",
    "is-null": "SELECT A FROM R WHERE B IS NULL OR B = 2",
    "nested": "SELECT B FROM R WHERE A <> 1 AND NOT EXISTS "
    "(SELECT * FROM S WHERE S.C = R.A AND S.D = R.B)",
    "division": "SELECT A FROM R EXCEPT SELECT R1.A FROM R R1, S WHERE NOT EXISTS "
    "(SELECT * FROM R R2 WHERE R2.A = R1.A AND R2.B = S.D)",
}


def schema():
    """``R`` and ``S`` with every column nullable: no escape is skipped."""
    s = DatabaseSchema()
    s.add(make_schema("r", [("a", "int"), ("b", "int")]))
    s.add(make_schema("s", [("c", "int"), ("d", "int")]))
    return s


def instance(seed, null_rate):
    """A ``random_db`` draw, with names lower-cased as the parser reads them."""
    db = random_db(
        random.Random(seed), domain=(1, 2, 3), max_rows=3, null_rate=null_rate
    )
    return Database(
        {
            name.lower(): Relation(
                tuple(a.lower() for a in rel.attributes), rel.rows
            )
            for name, rel in db.items()
        }
    )


@pytest.mark.parametrize("name", sorted(QUERIES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rewrite_returns_only_certain_answers(name, seed):
    query = parse_sql(QUERIES[name])
    db = instance(seed, null_rate=0.35)
    got = set(execute_sql(db, rewrite_certain(query, schema())).rows)
    certain = set(certain_answers_with_nulls(sql_to_algebra(query, db), db).rows)
    assert got <= certain, f"non-certain answers {got - certain}"


@pytest.mark.parametrize("name", sorted(QUERIES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_naive_is_certain_unless_flagged_unsound(name, seed):
    """An analyzer verdict other than ``unsound`` promises that naive
    evaluation returns no false positive."""
    if analyze_sql(QUERIES[name], schema()).verdict == UNSOUND:
        return
    query = parse_sql(QUERIES[name])
    db = instance(seed, null_rate=0.35)
    got = set(execute_sql(db, query).rows)
    certain = set(certain_answers_with_nulls(sql_to_algebra(query, db), db).rows)
    assert got <= certain, f"non-certain answers {got - certain}"


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_rewrite_is_identity_without_nulls(name):
    query = parse_sql(QUERIES[name])
    plus = rewrite_certain(query, schema())
    for seed in range(5):
        db = instance(seed, null_rate=0.0)
        assert set(execute_sql(db, plus).rows) == set(
            execute_sql(db, query).rows
        ), seed
