"""Facts 1 and 2 (Section 2), machine-checked.

* **Fact 1** — naive evaluation computes *exactly* certain answers with
  nulls for positive relational algebra (no difference, no
  disequalities), and this extends to division when the divisor is a
  base relation.
* **Fact 2** — ``EvalSQL`` (3VL evaluation) has correctness guarantees
  for the positive fragment: it may miss certain answers but never
  returns a false positive.
"""

import random
from functools import partial

import pytest

from repro.algebra import (
    Division,
    Intersection,
    Join,
    Product,
    Projection,
    RelationRef,
    Selection,
    Union,
    eq,
    evaluate,
)
from repro.certain import certain_answers_with_nulls
from repro.data import Database, Null, Relation

from . import instances
from .instances import R, S, S_AS_R

random_db = partial(instances.random_db, domain=(1, 2, 3), max_rows=3, null_rate=0.3)


#: Positive algebra: σ (equalities only), π, ×, ∪, ∩ — no −, no ≠.
POSITIVE_QUERIES = {
    "base": R,
    "selection-eq-const": Selection(R, eq("A", 1)),
    "selection-eq-attr": Selection(R, eq("A", "B")),
    "projection": Projection(R, ("B",)),
    "union": Union(R, S_AS_R),
    "intersection": Intersection(R, S_AS_R),
    "join": Projection(Join(R, S, eq("B", "C")), ("A", "D")),
    "product-projection": Projection(Product(R, S), ("A", "C")),
    "nested": Projection(
        Selection(Union(R, S_AS_R), eq("A", 2)), ("A",)
    ),
}


@pytest.mark.parametrize("name", sorted(POSITIVE_QUERIES))
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_fact1_naive_computes_certain_answers_exactly(name, seed):
    query = POSITIVE_QUERIES[name]
    db = random_db(random.Random(hash((name, seed)) & 0xFFFF))
    naive = evaluate(query, db, semantics="naive")
    cert = certain_answers_with_nulls(query, db)
    assert set(naive.rows) == set(cert.rows), name


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_fact1_division_with_base_divisor(seed):
    """Fact 1's extension: division whose second argument is a database
    relation."""
    rng = random.Random(seed)
    students = ["ann", "bob", "cal"]
    courses = ["db", "os"]
    takes_rows = []
    for student in students:
        for course in courses:
            if rng.random() < 0.7:
                takes_rows.append(
                    (student, Null() if rng.random() < 0.25 else course)
                )
    db = Database(
        {
            "takes": Relation(("st", "co"), takes_rows),
            "courses": Relation(("co",), [(c,) for c in courses]),
        }
    )
    query = Division(RelationRef("takes"), RelationRef("courses"))
    naive = evaluate(query, db, semantics="naive")
    cert = certain_answers_with_nulls(query, db)
    assert set(naive.rows) == set(cert.rows)


@pytest.mark.parametrize("name", sorted(POSITIVE_QUERIES))
@pytest.mark.parametrize("seed", [10, 11, 12])
def test_fact2_sql_evaluation_sound_on_positive_fragment(name, seed):
    query = POSITIVE_QUERIES[name]
    db = random_db(random.Random(hash((name, seed)) & 0xFFFF))
    sql = evaluate(query, db, semantics="sql")
    cert = certain_answers_with_nulls(query, db)
    assert set(sql.rows) <= set(cert.rows), name


def test_fact2_can_be_strict():
    """SQL evaluation may *miss* certain answers on the positive
    fragment (it is an under-approximation, not an equality): the
    same-null equality is certain but unknown to 3VL."""
    n = Null()
    db = Database({"R": Relation(("A", "B"), [(n, n)])})
    query = Selection(RelationRef("R"), eq("A", "B"))
    assert evaluate(query, db, semantics="sql").rows == []
    assert evaluate(query, db, semantics="naive").rows == [(n, n)]
    assert certain_answers_with_nulls(query, db).rows == [(n, n)]


def test_fact1_fails_with_difference():
    """Sanity: the restriction to the *positive* fragment is necessary —
    naive evaluation over-approximates certain answers for difference
    (the introduction's false positive)."""
    db = Database(
        {
            "R": Relation(("A",), [(1,)]),
            "S": Relation(("A",), [(Null(),)]),
        }
    )
    from repro.algebra import Difference

    query = Difference(RelationRef("R"), RelationRef("S"))
    naive = evaluate(query, db, semantics="naive")
    cert = certain_answers_with_nulls(query, db)
    assert set(naive.rows) > set(cert.rows)
