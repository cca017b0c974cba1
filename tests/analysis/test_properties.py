"""Property tests tying analyzer verdicts to brute-forced certain answers.

Two directions:

* ``certified`` queries are *exactly right*: on random small databases
  with marked nulls, naive SQL evaluation returns precisely the certain
  answers computed by the brute-force valuation sweep.
* ``unsound`` queries are not just conservatively flagged: for each
  unsound template there is a concrete witness database on which naive
  evaluation returns a tuple that is not a certain answer.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import CERTIFIED, UNSOUND, analyze_sql
from repro.certain import certain_answers_with_nulls
from repro.data import Database, Null, Relation
from repro.data.schema import DatabaseSchema, make_schema
from repro.engine import execute_sql
from repro.sql.parser import parse_sql
from repro.sql.to_algebra import sql_to_algebra


def mini_schema():
    s = DatabaseSchema()
    s.add(make_schema("t", [("a", "int"), ("b", "int")], key=("a",)))
    s.add(make_schema("s", [("c", "int"), ("d", "int")], key=("c",)))
    return s


SCHEMA = mini_schema()

# Templates the analyzer certifies: sound *and* complete.
CERTIFIED_TEMPLATES = [
    "SELECT a FROM t",
    "SELECT b FROM t",
    "SELECT a FROM t WHERE a = 1",
    "SELECT a FROM t WHERE b = 1",
    "SELECT a, b FROM t WHERE a <> 2",
    "SELECT DISTINCT a FROM t",
    "SELECT a FROM t UNION SELECT c FROM s",
    "SELECT a FROM t WHERE EXISTS (SELECT * FROM s WHERE s.c = t.a)",
    "SELECT a FROM t WHERE b = 1 "
    "AND NOT EXISTS (SELECT * FROM s WHERE s.c = t.b)",
]

# Each unsound template comes with a deterministic witness database on
# which naive evaluation produces at least one false positive.
UNSOUND_WITNESSES = [
    (
        "SELECT a FROM t WHERE NOT EXISTS (SELECT * FROM s WHERE s.d = t.a)",
        {"t": [(1, 0)], "s": [(10, Null())]},
    ),
    (
        "SELECT a FROM t WHERE b IS NULL",
        {"t": [(1, Null())], "s": []},
    ),
    (
        "SELECT a FROM t WHERE a NOT IN (SELECT c FROM s WHERE s.d = 1)",
        {"t": [(1, 0)], "s": [(1, Null())]},
    ),
    (
        "SELECT a FROM t WHERE NOT EXISTS "
        "(SELECT * FROM s WHERE s.c IN (SELECT b FROM t))",
        {"t": [(1, Null())], "s": [(1, 5)]},
    ),
    (
        "SELECT a FROM t WHERE NOT EXISTS "
        "(SELECT * FROM s WHERE s.d IS NOT NULL)",
        {"t": [(1, 0)], "s": [(10, Null())]},
    ),
    (
        "SELECT a, b FROM t EXCEPT SELECT c, d FROM s",
        {"t": [(1, 0)], "s": [(1, Null())]},
    ),
    (
        "SELECT * FROM t EXCEPT SELECT * FROM s",
        {"t": [(1, 0)], "s": [(1, Null())]},
    ),
    # A UNION view pairs its operands' columns by position, not by name:
    # v.y is t2.a or d, and d can be null.
    (
        "WITH v AS (SELECT t.a AS x, t2.a AS y FROM t, t t2 "
        "UNION SELECT c AS y, d AS x FROM s) "
        "SELECT x FROM v WHERE NOT EXISTS (SELECT * FROM t t3 WHERE t3.a = v.y)",
        {"t": [(1, 2)], "s": [(5, Null())]},
    ),
]


def to_database(tables):
    return Database(
        {
            "t": Relation(("a", "b"), list(tables.get("t", []))),
            "s": Relation(("c", "d"), list(tables.get("s", []))),
        }
    )


def naive_and_certain(sql, db):
    naive = set(execute_sql(db, sql).rows)
    algebra = sql_to_algebra(parse_sql(sql), db)
    certain = set(certain_answers_with_nulls(algebra, db).rows)
    return naive, certain


# A nullable cell: a small constant overlapping the key space (so joins
# and memberships actually fire) or a fresh marked null.
cells = st.sampled_from([1, 2, None])


@st.composite
def databases(draw):
    t_rows = [
        (i + 1, Null() if (b := draw(cells)) is None else b)
        for i in range(draw(st.integers(0, 2)))
    ]
    s_rows = [
        (i + 1, Null() if (d := draw(cells)) is None else d)
        for i in range(draw(st.integers(0, 2)))
    ]
    return to_database({"t": t_rows, "s": s_rows})


@pytest.mark.parametrize("sql", CERTIFIED_TEMPLATES)
def test_templates_are_certified(sql):
    assert analyze_sql(sql, SCHEMA).verdict == CERTIFIED


@pytest.mark.parametrize("sql", CERTIFIED_TEMPLATES)
@settings(max_examples=20, deadline=None)
@given(db=databases())
def test_certified_means_naive_equals_certain(sql, db):
    naive, certain = naive_and_certain(sql, db)
    assert naive == certain


@pytest.mark.parametrize("sql,tables", UNSOUND_WITNESSES)
def test_unsound_templates_are_flagged(sql, tables):
    assert analyze_sql(sql, SCHEMA).verdict == UNSOUND


@pytest.mark.parametrize("sql,tables", UNSOUND_WITNESSES)
def test_unsound_has_a_concrete_false_positive(sql, tables):
    naive, certain = naive_and_certain(sql, to_database(tables))
    assert naive - certain, "expected naive evaluation to overclaim"


@pytest.mark.parametrize("sql,tables", UNSOUND_WITNESSES)
@settings(max_examples=15, deadline=None)
@given(db=databases())
def test_unsound_still_never_underclaims_alone(sql, tables, db):
    """Random instances may or may not exhibit the false positive, but
    the brute force itself must stay consistent: certain answers are a
    subset of what *some* valuation admits, so evaluating on a null-free
    database the two notions coincide."""
    if any(
        isinstance(v, Null)
        for rel in db.relations.values()
        for row in rel.rows
        for v in row
    ):
        return
    naive, certain = naive_and_certain(sql, db)
    assert naive == certain
