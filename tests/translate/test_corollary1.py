"""Corollary 1: the translation of Figure 3 is a *family*.

Replacing the right-hand sides by queries contained in the (3.x) rules
and containing the (4.x) rules preserves Theorem 1.  We check two
instances the paper points at:

* strengthening ``θ*`` (adding extra const guards) keeps Q+ sound;
* weakening ``θ**`` / the unifiability test (the position-wise Codd
  shortcut) keeps Q+ sound — and can only shrink Q+.
"""

import random
from functools import partial

import pytest

from repro.algebra import (
    Difference,
    Rename,
    Selection,
    UnifAntiJoin,
    evaluate,
    neq,
)
from repro.algebra.conditions import And, Attr, NullTest
from repro.certain import certain_answers_with_nulls
from repro.data import Database, Null, Relation
from repro.translate.conditions import translate_certain, translate_possible
from repro.translate.improved import certain_query

from . import instances
from .instances import R, S, S_AS_R

random_db = partial(instances.random_db, domain=(1, 2), max_rows=3, null_rate=0.35)


@pytest.mark.parametrize("seed", range(6))
def test_stronger_theta_star_stays_sound(seed):
    """σ_{θ* ∧ const(A)} ⊆ σ_{θ*}: a stronger certain side only shrinks
    Q+, which must remain inside cert(Q, D)."""
    db = random_db(random.Random(seed))
    query = Selection(R, neq("A", "B"))
    base_plus = certain_query(query)
    # Over-strengthened: additionally require const on both attributes
    # (redundant for ≠, and therefore contained in the rule's output).
    strengthened = Selection(
        R,
        And(
            translate_certain(neq("A", "B")),
            NullTest(Attr("A"), False),
            NullTest(Attr("B"), False),
        ),
    )
    got_base = set(evaluate(base_plus, db, semantics="naive").rows)
    got_strong = set(evaluate(strengthened, db, semantics="naive").rows)
    cert = set(certain_answers_with_nulls(query, db).rows)
    assert got_strong <= got_base <= cert


@pytest.mark.parametrize("seed", range(6))
def test_weaker_potential_side_stays_sound(seed):
    """Using a weaker (larger) Q? in rule (3.4) only removes more
    tuples from Q+ — still sound.  The Codd position-wise unifiability
    test is exactly such a weakening."""
    db = random_db(random.Random(100 + seed))
    query = Difference(R, Selection(S_AS_R, neq("A", 1)))
    cert = set(certain_answers_with_nulls(query, db).rows)

    exact_plus = certain_query(query)  # marked-null unification
    weak_plus = certain_query(query, codd=True)  # position-wise shortcut
    got_exact = set(evaluate(exact_plus, db, semantics="naive").rows)
    got_weak = set(evaluate(weak_plus, db, semantics="naive").rows)
    assert got_weak <= got_exact <= cert


@pytest.mark.parametrize("seed", range(6))
def test_weakest_possible_side_adom_is_still_sound(seed):
    """The degenerate potential-answer query (everything unifies) makes
    Q+ of a difference empty — trivially sound, maximally incomplete."""
    db = random_db(random.Random(200 + seed))
    query = Difference(R, S_AS_R)
    plus_with_everything = UnifAntiJoin(
        R, Rename(S, {"C": "A", "D": "B"})
    )  # Q?2 = S itself (the rule's output)…
    # …and the truly degenerate version: subtract a relation containing
    # a fully-null tuple, which unifies with every candidate.
    db2 = Database(
        {
            "R": db["R"],
            "S": Relation(("C", "D"), list(db["S"].rows) + [(Null(), Null())]),
        }
    )
    got = set(evaluate(plus_with_everything, db2, semantics="naive").rows)
    assert got == set()  # everything unifies with (⊥,⊥)
    cert = set(certain_answers_with_nulls(query, db2).rows)
    assert got <= cert


@pytest.mark.parametrize("seed", range(4))
def test_theta_star_star_weakening_monotone(seed):
    """θ** is weaker than θ*, pointwise, on every row — the containment
    Corollary 1 relies on."""
    from repro.algebra.conditions import eval_naive

    rng = random.Random(300 + seed)
    cells = [1, 2, Null("x"), Null("y")]
    for cond in (neq("A", "B"), neq("A", 1)):
        star = translate_certain(cond)
        star2 = translate_possible(cond)
        for _ in range(20):
            row = {"A": rng.choice(cells), "B": rng.choice(cells)}
            if eval_naive(star, row):
                assert eval_naive(star2, row)
