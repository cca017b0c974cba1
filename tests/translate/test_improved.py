"""Theorem 1, machine-checked: ``Q+ ⊆ cert(Q, D)`` and ``Q?`` represents
potential answers, against brute-force ground truth on random databases.
"""

import random
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra import (
    AntiJoin,
    Difference,
    Division,
    Intersection,
    Join,
    Product,
    Projection,
    RelationRef,
    Rename,
    Selection,
    SemiJoin,
    Union,
    UnifAntiJoin,
    UnifSemiJoin,
    eq,
    evaluate,
    neq,
)
from repro.certain import (
    certain_answers_with_nulls,
    represents_potential_answers,
)
from repro.data import Database, Null, Relation
from repro.translate import translate_improved
from repro.translate.improved import certain_query, possible_query

from . import instances
from .instances import R, S, S_AS_R

random_db = partial(instances.random_db, domain=(1, 2, 3), max_rows=3, null_rate=0.35)

# ---------------------------------------------------------------------------
# A menu of query shapes over R(A, B) and S(C, D)
# ---------------------------------------------------------------------------

QUERY_MENU = {
    "difference": Difference(R, S_AS_R),
    "difference-of-selection": Difference(R, Selection(S_AS_R, eq("A", 1))),
    "selection-neq": Selection(R, neq("A", "B")),
    "selection-of-difference": Selection(Difference(R, S_AS_R), eq("A", 1)),
    "projection-of-difference": Projection(Difference(R, S_AS_R), ("A",)),
    "intersection": Intersection(R, S_AS_R),
    "union-of-diff-and-intersection": Union(
        Difference(R, S_AS_R), Intersection(R, S_AS_R)
    ),
    "nested-difference": Difference(R, Difference(S_AS_R, Selection(R, eq("A", 2)))),
    "join": Projection(Join(R, S, eq("B", "C")), ("A", "D")),
    "product-selection": Projection(
        Selection(Product(R, S), eq("A", "C")), ("A", "B")
    ),
    "semijoin": SemiJoin(R, S, eq("B", "C")),
    "antijoin": AntiJoin(R, S, eq("B", "C")),
    "antijoin-neq": AntiJoin(R, S, neq("A", "C")),
    "difference-under-projection": Difference(
        Projection(R, ("A",)), Projection(S, ("C",))
    ),
}


@pytest.mark.parametrize("name", sorted(QUERY_MENU))
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_theorem1_correctness_guarantees(name, seed):
    """Q+(D) ⊆ cert(Q, D) — no false positives, ever."""
    query = QUERY_MENU[name]
    rng = random.Random(hash((name, seed)) & 0xFFFF)
    db = random_db(rng)
    plus, _poss = translate_improved(query)
    got = evaluate(plus, db, semantics="naive")
    cert = certain_answers_with_nulls(query, db)
    assert set(got.rows) <= set(cert.rows), (
        f"false positives from Q+ on {name}: {set(got.rows) - set(cert.rows)}"
    )


@pytest.mark.parametrize("name", sorted(QUERY_MENU))
@pytest.mark.parametrize("seed", [10, 11, 12])
def test_theorem1_potential_answers(name, seed):
    """Q?(D) represents potential answers (Definition 3)."""
    query = QUERY_MENU[name]
    rng = random.Random(hash((name, seed)) & 0xFFFF)
    db = random_db(rng)
    _plus, poss = translate_improved(query)
    got = evaluate(poss, db, semantics="naive")
    assert represents_potential_answers(got, query, db)


@pytest.mark.parametrize("name", sorted(QUERY_MENU))
def test_identity_on_complete_databases(name):
    """On null-free databases Q, Q+ and Q? all coincide (Section 1)."""
    query = QUERY_MENU[name]
    rng = random.Random(hash(name) & 0xFFFF)
    db = random_db(rng, null_rate=0.0)
    plus, poss = translate_improved(query)
    original = evaluate(query, db, semantics="naive")
    assert evaluate(plus, db, semantics="naive") == original
    assert evaluate(poss, db, semantics="naive") == original


@pytest.mark.parametrize("name", sorted(QUERY_MENU))
@pytest.mark.parametrize("seed", [20, 21])
@pytest.mark.parametrize("codd", [False, True])
def test_sql_adjusted_sound_under_3vl(name, seed, codd):
    """The Section 7 adjustment keeps Q+ sound when conditions are
    evaluated with SQL's three-valued logic, also with Corollary 1's
    position-wise unifiability test."""
    query = QUERY_MENU[name]
    rng = random.Random(hash((name, seed)) & 0xFFFF)
    db = random_db(rng)
    plus, _ = translate_improved(query, sql_adjusted=True, codd=codd)
    got = evaluate(plus, db, semantics="sql")
    cert = certain_answers_with_nulls(query, db)
    assert set(got.rows) <= set(cert.rows)


@pytest.mark.parametrize("name", sorted(QUERY_MENU))
@pytest.mark.parametrize("seed", [30, 31])
def test_codd_shortcut_sound(name, seed):
    """Corollary 1: the position-wise unifiability test keeps Q+ sound."""
    query = QUERY_MENU[name]
    rng = random.Random(hash((name, seed)) & 0xFFFF)
    db = random_db(rng)
    plus, _ = translate_improved(query, codd=True)
    got = evaluate(plus, db, semantics="naive")
    cert = certain_answers_with_nulls(query, db)
    assert set(got.rows) <= set(cert.rows)


@given(seed=st.integers(0, 2**16))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_theorem1_fuzzed_difference(seed):
    """Hypothesis sweep of the crucial rule (3.4) on random databases."""
    rng = random.Random(seed)
    db = random_db(rng)
    query = QUERY_MENU["nested-difference"]
    plus, poss = translate_improved(query)
    got_plus = evaluate(plus, db, semantics="naive")
    cert = certain_answers_with_nulls(query, db)
    assert set(got_plus.rows) <= set(cert.rows)
    got_poss = evaluate(poss, db, semantics="naive")
    assert represents_potential_answers(got_poss, query, db)


# ---------------------------------------------------------------------------
# Structural expectations
# ---------------------------------------------------------------------------


class TestTranslationShape:
    def test_difference_becomes_unification_antijoin(self):
        plus = certain_query(Difference(R, S_AS_R))
        assert isinstance(plus, UnifAntiJoin)

    def test_intersection_possible_becomes_unification_semijoin(self):
        poss = possible_query(Intersection(R, S_AS_R))
        assert isinstance(poss, UnifSemiJoin)

    def test_base_relations_unchanged(self):
        assert certain_query(R) is R
        assert possible_query(R) is R

    def test_section6_example_shape(self):
        """Q = R − (π(T) − σθ(S)): Q+ = R ▷⇑ (π(T) − σθ*(S)) — the paper's
        own illustration of why Figure 3 beats Figure 2."""
        T = Rename(S, {"C": "A", "D": "B"})
        query = Difference(R, Difference(Projection(T, ("A", "B")), Selection(S_AS_R, eq("A", 1))))
        plus = certain_query(query)
        assert isinstance(plus, UnifAntiJoin)
        inner = plus.right
        assert isinstance(inner, Difference)  # (4.4): Q?1 − Q+2

    def test_division_certain_side(self):
        courses = Projection(R, ("B",))
        query = Division(R, courses)
        plus = certain_query(query)
        assert isinstance(plus, Division)

    def test_division_possible_side_rejected(self):
        courses = Projection(R, ("B",))
        with pytest.raises(TypeError, match="division"):
            possible_query(Division(R, courses))


def test_division_certain_is_sound():
    n = Null()
    db = Database(
        {
            "takes": Relation(("st", "co"), [("ann", "db"), ("ann", n), ("bob", "db")]),
            "courses": Relation(("co",), [("db",), ("os",)]),
        }
    )
    query = Division(RelationRef("takes"), RelationRef("courses"))
    plus = certain_query(query)
    got = evaluate(plus, db, semantics="naive")
    cert = certain_answers_with_nulls(query, db)
    assert set(got.rows) <= set(cert.rows)
