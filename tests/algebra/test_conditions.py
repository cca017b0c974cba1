"""Condition language: evaluation under both semantics, negation, LIKE."""

import sqlite3

import pytest
from hypothesis import given, strategies as st

from repro.algebra.conditions import (
    And,
    Attr,
    Comparison,
    Const,
    FalseCond,
    Not,
    NullTest,
    Or,
    TrueCond,
    attrs_in,
    eq,
    eval_3vl,
    eval_naive,
    like_match,
    neq,
    negate,
)
from repro.algebra.threevl import FALSE, TRUE, UNKNOWN
from repro.data.nulls import Null


class TestConstructors:
    def test_eq_coerces_strings_to_attrs(self):
        cond = eq("A", 5)
        assert cond.left == Attr("A")
        assert cond.right == Const(5)

    def test_and_or_flatten(self):
        cond = And(eq("A", 1), And(eq("B", 2), eq("C", 3)))
        assert len(cond.items) == 3
        cond = Or(eq("A", 1), Or(eq("B", 2), eq("C", 3)))
        assert len(cond.items) == 3

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            Comparison("===", Attr("A"), Const(1))


class TestNaiveEvaluation:
    def test_constants(self):
        row = {"A": 1, "B": 2}
        assert eval_naive(eq("A", 1), row)
        assert not eval_naive(eq("A", "B"), row)
        assert eval_naive(neq("A", "B"), row)

    def test_marked_null_equality(self):
        n = Null("n")
        row = {"A": n, "B": Null("n"), "C": Null("other"), "D": 1}
        assert eval_naive(eq("A", "B"), row)       # same label
        assert not eval_naive(eq("A", "C"), row)   # different labels
        assert not eval_naive(eq("A", "D"), row)   # null vs constant
        assert eval_naive(neq("A", "C"), row)

    def test_order_comparisons_on_nulls_are_false(self):
        row = {"A": Null(), "B": 1}
        for op in ("<", "<=", ">", ">="):
            assert not eval_naive(Comparison(op, Attr("A"), Attr("B")), row)

    def test_null_tests(self):
        row = {"A": Null(), "B": 1}
        assert eval_naive(NullTest(Attr("A"), is_null=True), row)
        assert eval_naive(NullTest(Attr("B"), is_null=False), row)

    def test_boolean_structure(self):
        row = {"A": 1}
        assert eval_naive(And(TrueCond(), eq("A", 1)), row)
        assert not eval_naive(And(FalseCond(), eq("A", 1)), row)
        assert eval_naive(Or(FalseCond(), eq("A", 1)), row)
        assert eval_naive(Not(FalseCond()), row)

    def test_unbound_attribute_raises(self):
        with pytest.raises(KeyError, match="not bound"):
            eval_naive(eq("Z", 1), {"A": 1})


class TestSqlEvaluation:
    def test_null_comparisons_are_unknown(self):
        n = Null("n")
        row = {"A": n, "B": Null("n"), "C": 5}
        assert eval_3vl(eq("A", "B"), row) is UNKNOWN  # even the same null!
        assert eval_3vl(eq("A", "C"), row) is UNKNOWN
        assert eval_3vl(neq("A", "C"), row) is UNKNOWN
        assert eval_3vl(Comparison("<", Attr("A"), Const(1)), row) is UNKNOWN

    def test_null_test_is_two_valued(self):
        row = {"A": Null()}
        assert eval_3vl(NullTest(Attr("A"), is_null=True), row) is TRUE
        assert eval_3vl(NullTest(Attr("A"), is_null=False), row) is FALSE

    def test_kleene_propagation(self):
        row = {"A": Null(), "B": 1}
        unknown = eq("A", 1)
        assert eval_3vl(And(unknown, eq("B", 1)), row) is UNKNOWN
        assert eval_3vl(And(unknown, eq("B", 2)), row) is FALSE
        assert eval_3vl(Or(unknown, eq("B", 1)), row) is TRUE
        assert eval_3vl(Or(unknown, eq("B", 2)), row) is UNKNOWN
        assert eval_3vl(Not(unknown), row) is UNKNOWN


class TestLike:
    @pytest.mark.parametrize(
        "value, pattern, expected",
        [
            ("hello", "hello", True),
            ("hello", "h%", True),
            ("hello", "%ell%", True),
            ("hello", "h_llo", True),
            ("hello", "h_l", False),
            ("azure lace", "%lace%", True),
            ("a.c", "a.c", True),
            ("abc", "a.c", False),  # dot is literal, not regex
            ("", "%", True),
        ],
    )
    def test_like(self, value, pattern, expected):
        assert like_match(value, pattern) is expected

    def test_non_text_operands_match_sqlite(self):
        """Both operands are matched as text; expectations from sqlite3."""
        cases = [(1, 1), (12, "1%"), (12, 1), ("12", 12), (1.5, "1._")]
        con = sqlite3.connect(":memory:")
        for value, pattern in cases:
            (expected,) = con.execute("SELECT ? LIKE ?", (value, pattern)).fetchone()
            assert like_match(value, pattern) is bool(expected), (value, pattern)
        con.close()

    def test_non_text_pattern_in_conditions(self):
        row = {"A": 12}
        assert eval_3vl(Comparison("like", Attr("A"), Const(12)), row) is TRUE
        assert eval_3vl(Comparison("not like", Attr("A"), Const(1)), row) is TRUE

    def test_like_in_conditions(self):
        row = {"A": "forest green"}
        assert eval_naive(Comparison("like", Attr("A"), Const("%green%")), row)
        assert eval_3vl(
            Comparison("not like", Attr("A"), Const("%red%")), row
        ) is TRUE


class TestNegation:
    def test_atoms(self):
        assert negate(eq("A", "B")) == neq("A", "B")
        assert negate(Comparison("<", Attr("A"), Const(1))) == Comparison(
            ">=", Attr("A"), Const(1)
        )
        assert negate(NullTest(Attr("A"), True)) == NullTest(Attr("A"), False)
        assert negate(TrueCond()) == FalseCond()
        assert negate(Not(eq("A", 1))) == eq("A", 1)

    def test_de_morgan(self):
        cond = Or(eq("A", "B"), neq("B", 1))
        negated = negate(cond)
        assert isinstance(negated, And)
        assert negated == And(neq("A", "B"), eq("B", 1))  # the paper's example


def test_attrs_in():
    cond = And(eq("A", "B"), Or(NullTest(Attr("C"), True), eq("D", 1)))
    assert attrs_in(cond) == {"A", "B", "C", "D"}


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

values = st.one_of(st.integers(1, 3), st.builds(Null, st.integers(1, 2)))
rows = st.fixed_dictionaries({"A": values, "B": values})

#: Order comparisons on nulls evaluate to *false* under naive semantics
#: (a documented design choice — the paper's theory uses only =/≠ on
#: nulls), so syntactic negation pushdown only matches naive evaluation
#: for the equality fragment once nulls are involved.
EQUALITY_OPS = ("=", "<>")
ALL_OPS = ("=", "<>", "<", "<=", ">", ">=")


@st.composite
def conditions(draw, depth=2, ops=ALL_OPS):
    if depth == 0:
        op = draw(st.sampled_from(ops))
        return Comparison(op, Attr(draw(st.sampled_from(["A", "B"]))),
                          draw(st.sampled_from([Attr("A"), Attr("B"), Const(1), Const(2)])))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(conditions(depth=0, ops=ops))
    if kind == 1:
        return And(draw(conditions(depth=depth - 1, ops=ops)),
                   draw(conditions(depth=depth - 1, ops=ops)))
    if kind == 2:
        return Or(draw(conditions(depth=depth - 1, ops=ops)),
                  draw(conditions(depth=depth - 1, ops=ops)))
    return NullTest(Attr(draw(st.sampled_from(["A", "B"]))), draw(st.booleans()))


@given(cond=conditions(ops=EQUALITY_OPS), row=rows)
def test_negate_is_involutive_semantically(cond, row):
    assert eval_naive(negate(negate(cond)), row) == eval_naive(cond, row)


@given(cond=conditions(ops=EQUALITY_OPS), row=rows)
def test_negate_flips_naive_evaluation(cond, row):
    assert eval_naive(negate(cond), row) == (not eval_naive(cond, row))


@given(cond=conditions(), row=rows)
def test_3vl_negation_consistent(cond, row):
    """Under 3VL the pushdown law holds for *all* comparison operators."""
    value = eval_3vl(cond, row)
    assert eval_3vl(negate(cond), row) is ~value


@given(cond=conditions(), row=st.fixed_dictionaries(
    {"A": st.integers(1, 3), "B": st.integers(1, 3)}
))
def test_semantics_agree_on_complete_rows(cond, row):
    assert eval_naive(cond, row) == bool(eval_3vl(cond, row))
