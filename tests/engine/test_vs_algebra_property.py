"""Property-based cross-validation: engine ≡ reference algebra evaluator.

For randomly generated databases and a grammar of SQL queries in the
EXISTS/NOT EXISTS fragment, the engine's answers must coincide with the
reference evaluator's 3VL semantics of the translated algebra, reached
through ``sql/to_algebra.py`` — an implementation independent of the
engine's compiled closures.  (NOT IN over a subquery is excluded:
algebra antijoins model ``¬∃ TRUE-match``, which is the EXISTS
semantics, while SQL's NOT IN is stricter on unknowns — the engine
implements both faithfully, see tests/engine/test_subqueries and
tests/engine/test_decorrelation.)

Marked-null mode is checked over the same instances by two properties
that need no second evaluator: with one label per null it must agree
with standard 3VL, and on positive queries with shared labels it may
only add rows.
"""

import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra import evaluate
from repro.data import Database, Null, Relation
from repro.engine import execute_sql
from repro.sql.parser import parse_sql
from repro.sql.to_algebra import sql_to_algebra

TEMPLATES = [
    "SELECT a FROM r WHERE a = {c}",
    "SELECT a, b FROM r WHERE a <> {c} AND b >= {c}",
    "SELECT a FROM r WHERE a IS NULL OR b = {c}",
    "SELECT r.a FROM r, s WHERE r.a = s.c",
    "SELECT r.a FROM r, s WHERE r.b = s.d AND s.c > {c}",
    "SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.c = r.a)",
    "SELECT a FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE s.c = r.a)",
    "SELECT a FROM r WHERE NOT EXISTS "
    "(SELECT * FROM s WHERE s.c = r.a AND s.d <> {c})",
    "SELECT a FROM r WHERE EXISTS "
    "(SELECT * FROM s WHERE s.c = r.a AND (s.d = {c} OR s.d IS NULL))",
    "SELECT a FROM r WHERE a IN (SELECT c FROM s)",
    "SELECT a FROM r WHERE a IN (SELECT c FROM s WHERE d = r.b)",
    "SELECT a FROM r WHERE a IN ({c}, {d})",
    "SELECT a FROM r WHERE a NOT IN ({c}, {d})",
    "SELECT r.a, t.f FROM r, s, t WHERE r.a = s.c AND s.d = t.e AND t.f = {c}",
    "SELECT r.a FROM r, s, t WHERE r.a = s.c AND s.d <> t.e",
    "SELECT a FROM r EXCEPT SELECT c FROM s",
    "SELECT a FROM r UNION SELECT c FROM s",
    "SELECT a FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE s.c = r.a) "
    "AND NOT EXISTS (SELECT * FROM s WHERE s.d IS NULL)",
]


#: Templates without ``NOT``, ``<>``, ``NOT EXISTS``, ``NOT IN`` or
#: ``EXCEPT``: every condition is monotone in its comparisons' truth.
POSITIVE_TEMPLATES = [
    t
    for t in TEMPLATES
    if not any(word in t for word in ("NOT", "<>", "EXCEPT"))
]


def random_db(rng: random.Random, null_labels=None) -> Database:
    """Three small tables over {1, 2, 3}; a quarter of the cells null.

    Each null gets its own label unless *null_labels* names a pool to
    draw them from (shared labels are what marked-null mode keys on).
    """

    def cell():
        if rng.random() < 0.25:
            return Null() if null_labels is None else Null(rng.choice(null_labels))
        return rng.choice([1, 2, 3])

    def rows(n):
        return [(cell(), cell()) for _ in range(n)]

    return Database(
        {
            "r": Relation(("a", "b"), rows(rng.randint(1, 5))),
            "s": Relation(("c", "d"), rows(rng.randint(1, 5))),
            "t": Relation(("e", "f"), rows(rng.randint(1, 5))),
        }
    )


@pytest.mark.parametrize("template_index", range(len(TEMPLATES)))
@given(seed=st.integers(0, 10_000), c=st.integers(1, 3), d=st.integers(1, 3))
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_engine_matches_reference_semantics(template_index, seed, c, d):
    sql = TEMPLATES[template_index].format(c=c, d=d)
    rng = random.Random(seed)
    db = random_db(rng)
    query = parse_sql(sql)
    engine_rows = set(execute_sql(db, query).rows)
    algebra = sql_to_algebra(query, db)
    reference_rows = set(evaluate(algebra, db, semantics="sql").rows)
    assert engine_rows == reference_rows, sql


@pytest.mark.parametrize("template_index", range(len(TEMPLATES)))
@given(seed=st.integers(0, 10_000), c=st.integers(1, 3), d=st.integers(1, 3))
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_marked_mode_with_distinct_labels_is_standard(template_index, seed, c, d):
    """With a label per null no two nulls are the same, so marked-null
    mode has nothing to key on and must return standard 3VL's rows."""
    sql = TEMPLATES[template_index].format(c=c, d=d)
    db = random_db(random.Random(seed))
    query = parse_sql(sql)
    standard = execute_sql(db, query)
    marked = execute_sql(db, query, marked_nulls=True)
    assert Counter(marked.rows) == Counter(standard.rows), sql


@pytest.mark.parametrize("template_index", range(len(POSITIVE_TEMPLATES)))
@given(seed=st.integers(0, 10_000), c=st.integers(1, 3), d=st.integers(1, 3))
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_marked_mode_only_adds_rows_to_positive_queries(template_index, seed, c, d):
    """Marked nulls turn some UNKNOWN equalities between same-label
    nulls into TRUE and change nothing else; a query without negation
    can therefore only gain rows (as a bag)."""
    sql = POSITIVE_TEMPLATES[template_index].format(c=c, d=d)
    db = random_db(random.Random(seed), null_labels=("n1", "n2"))
    query = parse_sql(sql)
    standard = Counter(execute_sql(db, query).rows)
    marked = Counter(execute_sql(db, query, marked_nulls=True).rows)
    assert not standard - marked, sql
