"""A resolved algebra plan, run in many worlds.

The certain-answer oracle resolves a query once per call and runs the
plan in every distinct world; a subplan that reads only relations
without nulls runs once.  These tests pin:

* **reuse** — one plan run over every world of random nullable
  instances equals a fresh ``evaluate`` per world, under both
  semantics, for every node type, errors included (an order comparison
  on a fresh constant raises ``TypeError`` in each world alike);
* **run counts** — a null-free subplan runs once per oracle call, a
  null-bearing or ``AdomPower`` subplan once per world;
* **counters** — ``rows_produced``, ``EvaluationBudgetExceeded.at``
  and ``hash_semijoins`` as the evaluator counted them before plans
  were resolved;
* **resolve-time errors** — an unbound attribute raises when the plan
  is resolved, even over empty inputs.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra import (
    AdomPower,
    AntiJoin,
    Difference,
    Division,
    Intersection,
    Join,
    Literal,
    Product,
    Projection,
    RelationRef,
    Rename,
    Selection,
    SemiJoin,
    Union,
    UnifAntiJoin,
    UnifSemiJoin,
    evaluate,
)
from repro.algebra import conditions as C
from repro.algebra.evaluate import EvaluationBudgetExceeded, Evaluator
from repro.certain import bruteforce
from repro.certain.bruteforce import _apply_world, _world_key, _world_layout
from repro.data import Database, Null, Relation, Valuation
from repro.data.valuation import enumerate_valuations, fresh_constants

R, S, T = RelationRef("R"), RelationRef("S"), RelationRef("T")
S1 = Rename(S, {"C": "C1", "D": "D1"})
LIT = Literal(Relation(("A", "B"), [(1, 2), (3, 1), (1, 2)]))

#: Every node type, alone and nested.  ``R`` and ``T`` may hold nulls,
#: ``S`` never does.
EXPRESSIONS = [
    R,
    LIT,
    AdomPower(("X",)),
    Selection(R, C.Or(C.eq("A", "B"), C.NullTest(C.Attr("A"), True))),
    Selection(R, C.Comparison("<", C.Attr("A"), C.Const(3))),
    Selection(R, C.Not(C.And(C.neq("A", 1), C.TrueCond()))),
    Projection(R, ("B",)),
    Rename(S, {"C": "X"}),
    Product(R, S),
    Join(R, S, C.And(C.eq("B", "C"), C.neq("A", "D"))),
    Union(R, T),
    Union(LIT, LIT),  # one node object twice
    Intersection(R, T),
    Difference(R, LIT),
    SemiJoin(R, S, C.And(C.eq("A", "C"), C.neq("B", "D"))),
    AntiJoin(R, S, C.eq("A", "C")),
    SemiJoin(R, S, C.Comparison("<>", C.Attr("A"), C.Attr("C"))),
    UnifSemiJoin(R, T),
    UnifAntiJoin(R, T, codd=True),
    Division(R, Projection(T, ("B",))),
    Division(
        Product(Projection(S, ("C",)), AdomPower(("X",))),
        Rename(Projection(R, ("A",)), {"A": "X"}),
    ),
    AntiJoin(Product(S, AdomPower(("X",))), R, C.eq("X", "A")),
    Difference(Projection(Product(S, S1), ("C", "D1")), Projection(R, ("A", "B"))),
]


def random_instance(rng):
    nulls = [Null(f"n{i}") for i in range(2)]

    def cell(nullable):
        if nullable and rng.random() < 0.35:
            return rng.choice(nulls)
        return rng.choice((1, 2, 3))

    def rows(nullable):
        return [(cell(nullable), cell(nullable)) for _ in range(rng.randint(0, 4))]

    return Database(
        {
            "R": Relation(("A", "B"), rows(True)),
            "S": Relation(("C", "D"), rows(False)),
            "T": Relation(("A", "B"), rows(True)),
        }
    )


def complete_names(db):
    return {name for name, rel in db.items() if rel.is_complete()}


def outcome(fn):
    try:
        return set(fn().rows)
    except TypeError as err:
        return TypeError, str(err)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_one_plan_per_call_equals_fresh_evaluation_per_world(seed):
    db = random_instance(random.Random(seed))
    layout = _world_layout(db)
    worlds = [
        _apply_world(db, layout, _world_key(layout, v))
        for v in enumerate_valuations(db, extra_constants=1)
    ]
    for semantics in ("naive", "sql"):
        evaluator = Evaluator(db, semantics=semantics)
        plans = [evaluator.resolve(e, shared=complete_names(db)) for e in EXPRESSIONS]
        for world in worlds:
            for expr, plan in zip(EXPRESSIONS, plans):
                expected = outcome(lambda: evaluate(expr, world, semantics=semantics))
                got = outcome(lambda: plan.run(world))
                assert got == expected, (semantics, expr)
                if not isinstance(got, tuple):
                    assert plan.attributes == evaluate(expr, db, semantics).attributes


def test_order_comparison_on_fresh_constants_raises_in_every_renaming():
    """The orbit reduction relies on this: a renaming of the fresh
    constants cannot turn an order comparison's error into an answer."""
    n = Null("n")
    db = Database({"R": Relation(("A",), [(n,)]), "S": Relation(("B",), [(1,)])})
    plan = Evaluator(db).resolve(
        Selection(Product(R, S), C.Comparison("<", C.Attr("A"), C.Attr("B"))),
        shared={"S"},
    )
    layout = _world_layout(db)
    for fresh in fresh_constants(2):
        world = _apply_world(db, layout, _world_key(layout, Valuation({n: fresh})))
        with pytest.raises(TypeError):
            plan.run(world)


# ---------------------------------------------------------------------------
# Run counts inside one oracle call
# ---------------------------------------------------------------------------


@pytest.fixture
def counted_reads(monkeypatch):
    """Names read through ``Database.__getitem__``: a resolved
    ``RelationRef`` reads its relation once per run."""
    reads = []
    get = Database.__getitem__

    def counting(self, name):
        reads.append(name)
        return get(self, name)

    monkeypatch.setattr(Database, "__getitem__", counting)
    return reads


def test_null_free_subplan_runs_once_per_call(counted_reads):
    db = Database(
        {
            "F": Relation(("A",), [(1,), (2,)]),
            "N": Relation(("B",), [(Null("x"),)]),
        }
    )
    query = Product(Rename(RelationRef("F"), {"A": "A2"}), RelationRef("N"))
    answers = bruteforce._WorldAnswers(query, db)
    counted_reads.clear()  # resolving reads each relation's attributes
    for v in enumerate_valuations(db):
        answers(v)
    assert answers.evals == 3  # x ↦ 1, 2, c•0
    assert counted_reads.count("F") == 1
    assert counted_reads.count("N") == answers.evals
    # F and its rename are charged once, N and the product per world.
    assert answers.evaluator.rows_produced == 2 + 2 + answers.evals * (1 + 2)


def test_adom_power_runs_once_per_world(counted_reads):
    db = Database(
        {
            "F": Relation(("A",), [(1,), (2,)]),
            "N": Relation(("B",), [(Null("x"),)]),
        }
    )
    query = Product(RelationRef("F"), AdomPower(("X",)))
    answers = bruteforce._WorldAnswers(query, db)
    counted_reads.clear()
    for v in enumerate_valuations(db):
        answers(v)
    assert counted_reads.count("F") == 1
    # adom(W) is {1, 2} when x ↦ 1 or 2, and {1, 2, c•0} when x ↦ c•0.
    adom_sizes = [2, 2, 3]
    assert answers.evals == len(adom_sizes)
    charged = 2 + sum(size + 2 * size for size in adom_sizes)
    assert answers.evaluator.rows_produced == charged


def test_answers_per_world_match_fresh_evaluation():
    db = Database(
        {
            "F": Relation(("A",), [(1,), (2,), (3,)]),
            "N": Relation(("B",), [(Null("x"),), (Null("y"),)]),
        }
    )
    query = AntiJoin(RelationRef("F"), RelationRef("N"), C.eq("A", "B"))
    answers = bruteforce._WorldAnswers(query, db)
    got = [answers(v) for v in enumerate_valuations(db)]
    expected = [
        set(evaluate(query, v.apply_database(db)).rows)
        for v in enumerate_valuations(db)
    ]
    assert got == expected
    assert answers.attributes == ("A",)


# ---------------------------------------------------------------------------
# Counters, as the evaluator counted them before plans were resolved
# ---------------------------------------------------------------------------

P1, P2 = Null("p1"), Null("p2")


@pytest.fixture
def counter_db():
    return Database(
        {
            "R": Relation(("A", "B"), [(1, 2), (2, 3), (P1, 2), (3, P2), (1, 2)]),
            "S": Relation(("C", "D"), [(2, 1), (3, P1), (P2, 4), (9, 9)]),
        }
    )


S2 = Rename(S, {"C": "C2", "D": "D2"})

COUNTER_PLANS = {
    "semijoins": AntiJoin(
        SemiJoin(R, S, C.And(C.eq("B", "C"), C.neq("A", "D"))),
        S1,
        C.eq("A", "D1"),
    ),
    "selection": Selection(
        Product(R, S1), C.Or(C.eq("B", "C1"), C.NullTest(C.Attr("D1"), True))
    ),
    "join_union": Union(
        Projection(Join(R, S, C.eq("B", "C")), ("A", "D")),
        Projection(Product(R, S1), ("A", "D1")),
    ),
    "adom_division": Division(
        Product(Projection(R, ("A",)), AdomPower(("X",))),
        Rename(Projection(S, ("C",)), {"C": "X"}),
    ),
    "products": Product(Product(R, S1), S2),
}

#: ``(result rows, rows_produced, hash_semijoins)`` per semantics.
PINNED_COUNTS = {
    ("semijoins", "naive"): (2, 21, 2),
    ("semijoins", "sql"): (0, 16, 2),
    ("selection", "naive"): (7, 35, 0),
    ("selection", "sql"): (6, 34, 0),
    ("join_union", "naive"): (16, 76, 0),
    ("join_union", "sql"): (16, 74, 0),
    ("adom_division", "naive"): (4, 59, 0),
    ("adom_division", "sql"): (4, 59, 0),
    ("products", "naive"): (64, 100, 0),
    ("products", "sql"): (64, 100, 0),
}

#: ``(EvaluationBudgetExceeded.at or None, rows_produced)`` per budget,
#: under naive semantics.
PINNED_BUDGETS = {
    "semijoins": {
        3: ("RelationRef", 4),
        5: ("RelationRef", 8),
        20: ("AntiJoin", 21),
        40: (None, 21),
    },
    "selection": {
        3: ("RelationRef", 4),
        5: ("RelationRef", 8),
        20: ("Product", 28),
        40: (None, 35),
    },
    "join_union": {
        3: ("RelationRef", 4),
        5: ("RelationRef", 8),
        20: ("RelationRef", 24),
        40: ("Product", 44),
    },
    "adom_division": {
        3: ("RelationRef", 4),
        5: ("Projection", 8),
        20: ("Product", 15),
        40: ("Product", 43),
    },
    "products": {
        3: ("RelationRef", 4),
        5: ("RelationRef", 8),
        20: ("Product", 28),
        40: ("Product", 36),
    },
}


@pytest.mark.parametrize("name, semantics", sorted(PINNED_COUNTS))
def test_pinned_counters(counter_db, name, semantics):
    evaluator = Evaluator(counter_db, semantics=semantics)
    out = evaluator.evaluate(COUNTER_PLANS[name])
    counts = (len(out), evaluator.rows_produced, evaluator.hash_semijoins)
    assert counts == PINNED_COUNTS[name, semantics]


@pytest.mark.parametrize("name", sorted(PINNED_BUDGETS))
def test_pinned_budget_trips(counter_db, name):
    for budget, (at, produced) in PINNED_BUDGETS[name].items():
        evaluator = Evaluator(counter_db, max_rows=budget)
        if at is None:
            evaluator.evaluate(COUNTER_PLANS[name])
        else:
            with pytest.raises(EvaluationBudgetExceeded) as info:
                evaluator.evaluate(COUNTER_PLANS[name])
            assert info.value.at == at
        assert evaluator.rows_produced == produced, budget


def test_adom_budget_trips_before_building(counter_db):
    evaluator = Evaluator(counter_db, max_rows=20)
    with pytest.raises(EvaluationBudgetExceeded) as info:
        evaluator.evaluate(Product(Projection(R, ("A",)), AdomPower(("X", "Y"))))
    assert info.value.at == "adom^2"
    assert evaluator.rows_produced == 8


# ---------------------------------------------------------------------------
# Resolve-time errors
# ---------------------------------------------------------------------------


def test_unbound_attribute_raises_at_resolve_time_over_empty_input():
    db = Database({"E": Relation(("A",), [])})
    with pytest.raises(KeyError, match="not bound"):
        Evaluator(db).resolve(Selection(RelationRef("E"), C.eq("Z", 1)))


@pytest.mark.parametrize(
    "expr, error",
    [
        (Rename(RelationRef("E"), {"A": "B"}), "duplicate attribute names"),
        (Product(RelationRef("E"), RelationRef("E")), "disjoint"),
        (Union(RelationRef("E"), Literal(Relation(("X",), []))), "arity"),
        (Division(Literal(Relation(("X",), [])), RelationRef("E")), "not in dividend"),
    ],
)
def test_structural_errors_raise_at_resolve_time(expr, error):
    db = Database({"E": Relation(("A", "B"), [])})
    with pytest.raises(ValueError, match=error):
        Evaluator(db).resolve(expr)
