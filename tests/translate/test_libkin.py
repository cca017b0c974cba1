"""The Figure 2 translation: soundness and its Section 5 blow-up."""

import random
from functools import partial

import pytest

from repro.algebra import (
    AdomPower,
    Difference,
    EvaluationBudgetExceeded,
    Intersection,
    Projection,
    Product,
    Selection,
    UnifAntiJoin,
    Union,
    eq,
    evaluate,
    neq,
)
from repro.algebra.evaluate import Evaluator
from repro.certain import certain_answers_with_nulls
from repro.translate import translate_libkin
from repro.experiments.infeasible import make_rst_database, section6_example_query

from . import instances
from .instances import R, S, S_AS_R

random_db = partial(instances.random_db, domain=(1, 2), max_rows=2, null_rate=0.3)


QUERIES = [
    Difference(R, S_AS_R),
    Selection(R, neq("A", "B")),
    Projection(Difference(R, S_AS_R), ("A",)),
    Intersection(R, S_AS_R),
    Union(R, S_AS_R),
    Difference(R, Selection(S_AS_R, eq("A", 1))),
]


@pytest.mark.parametrize("qi", range(len(QUERIES)))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_qt_has_correctness_guarantees(qi, seed):
    """(1): Qt(D) ⊆ cert(Q, D)."""
    query = QUERIES[qi]
    db = random_db(random.Random(qi * 100 + seed))
    qt, _qf = translate_libkin(query, db)
    got = evaluate(qt, db, semantics="naive", max_rows=500_000)
    cert = certain_answers_with_nulls(query, db)
    assert set(got.rows) <= set(cert.rows)


@pytest.mark.parametrize("qi", range(len(QUERIES)))
@pytest.mark.parametrize("seed", [5, 6])
def test_qf_certainly_false(qi, seed):
    """(2): every tuple of Qf(D) is excluded from Q in every world."""
    query = QUERIES[qi]
    db = random_db(random.Random(qi * 100 + seed))
    _qt, qf = translate_libkin(query, db)
    got = evaluate(qf, db, semantics="naive", max_rows=500_000)
    from repro.data.valuation import enumerate_valuations

    for valuation in enumerate_valuations(db):
        world = valuation.apply_database(db)
        answers = set(evaluate(query, world, semantics="naive").rows)
        for row in got.rows:
            assert valuation.apply_row(row) not in answers


class TestStructure:
    def test_base_relation_false_side_uses_adom(self):
        _qt, qf = translate_libkin(R, {"R": ("A", "B")})
        assert isinstance(qf, UnifAntiJoin)
        assert isinstance(qf.left, AdomPower)

    def test_difference_true_side_needs_false_side(self):
        qt, _qf = translate_libkin(Difference(R, S_AS_R), {"R": ("A", "B"), "S": ("C", "D")})
        assert isinstance(qt, Intersection)

    def test_product_false_side_pads_with_adom(self):
        query = Product(R, S)
        _qt, qf = translate_libkin(query, {"R": ("A", "B"), "S": ("C", "D")})
        assert isinstance(qf, Union)
        assert any(isinstance(part, AdomPower) for part in (qf.left.right, qf.right.left))

    def test_unsupported_node_rejected(self):
        from repro.algebra import SemiJoin

        with pytest.raises(TypeError, match="normalise"):
            translate_libkin(SemiJoin(R, S, eq("A", "C")), {"R": ("A", "B"), "S": ("C", "D")})


class TestSection5Blowup:
    def test_qt_exceeds_budget_on_moderate_instances(self):
        """The Section 6 example's Qt explodes where Q+ stays tiny."""
        db = make_rst_database(60, null_rate=0.1, seed=1)
        query = section6_example_query()
        qt, _ = translate_libkin(query, db)
        with pytest.raises(EvaluationBudgetExceeded):
            evaluate(qt, db, semantics="naive", max_rows=30_000)

    def test_q_plus_stays_within_budget_on_same_instance(self):
        from repro.translate.improved import certain_query

        db = make_rst_database(60, null_rate=0.1, seed=1)
        query = section6_example_query()
        plus = certain_query(query)
        evaluator = Evaluator(db, semantics="naive", max_rows=30_000)
        evaluator.evaluate(plus)
        assert evaluator.rows_produced < 2_000

    def test_blowup_grows_with_instance_size(self):
        query = section6_example_query()
        produced = []
        for n in (5, 10, 20):
            db = make_rst_database(n, null_rate=0.1, seed=2)
            qt, _ = translate_libkin(query, db)
            evaluator = Evaluator(db, semantics="naive")
            evaluator.evaluate(qt)
            produced.append(evaluator.rows_produced)
        assert produced[0] < produced[1] < produced[2]
        # Superlinear growth (the adom² factor).
        assert produced[2] > 4 * produced[1]
