"""Tuple unification (Definition 2): cases and laws."""

from itertools import product

from hypothesis import given, strategies as st

from repro.algebra.unify import positionwise_unifiable, unifiable, unify_rows
from repro.data.nulls import Null
from repro.data.valuation import Valuation


class TestCases:
    def test_constants(self):
        assert unifiable((1, 2), (1, 2))
        assert not unifiable((1, 2), (1, 3))

    def test_nulls_unify_with_anything_positionally(self):
        assert unifiable((Null(), 2), (1, 2))
        assert unifiable((1, Null()), (1, Null()))

    def test_repeated_null_consistency(self):
        x = Null("x")
        assert not unifiable((x, x), (1, 2))    # x cannot be both 1 and 2
        assert unifiable((x, x), (1, 1))
        assert unifiable((x, x), (1, Null()))   # fresh null takes value 1

    def test_transitive_constant_clash(self):
        # x ~ 1 (pos 0), x ~ y (pos 1), y ~ 2 (pos 2) → 1 = 2 clash.
        x, y = Null("x"), Null("y")
        assert not unifiable((x, x, y), (1, y, 2))
        assert unifiable((x, x, y), (1, y, 1))

    def test_arity_mismatch(self):
        assert not unifiable((1,), (1, 2))

    def test_empty_tuples_unify(self):
        assert unifiable((), ())


class TestUnifier:
    def test_unifier_witnesses(self):
        x = Null("x")
        mapping = unify_rows((x, 2), (1, 2))
        assert mapping == {x: 1}

    def test_unifier_none_when_not_unifiable(self):
        assert unify_rows((1,), (2,)) is None

    def test_null_null_classes_get_representative(self):
        x, y = Null("x"), Null("y")
        mapping = unify_rows((x,), (y,))
        assert mapping is not None
        assert mapping[x] == mapping[y]


class TestPositionwise:
    def test_codd_shortcut_agrees_without_repetition(self):
        assert positionwise_unifiable((Null(), 2), (1, 2))
        assert not positionwise_unifiable((1, 2), (2, 2))

    def test_overapproximates_marked_case(self):
        x = Null("x")
        # Marked semantics rejects, Codd shortcut accepts.
        assert positionwise_unifiable((x, x), (1, 2))
        assert not unifiable((x, x), (1, 2))


# ---------------------------------------------------------------------------
# Laws
# ---------------------------------------------------------------------------

cells = st.one_of(st.integers(1, 3), st.builds(Null, st.integers(1, 3)))
tuples3 = st.tuples(cells, cells, cells)


@given(t=tuples3)
def test_reflexive(t):
    assert unifiable(t, t)


@given(r=tuples3, s=tuples3)
def test_symmetric(r, s):
    assert unifiable(r, s) == unifiable(s, r)


@given(r=tuples3, s=tuples3, assignment=st.dictionaries(
    st.integers(1, 3), st.integers(10, 13), min_size=3, max_size=3
))
def test_valuation_equality_implies_unifiable(r, s, assignment):
    """If some valuation makes v(r) = v(s), then r ⇑ s must hold."""
    mapping = {Null(label): value for label, value in assignment.items()}
    v = Valuation(mapping)
    if v.apply_row(r) == v.apply_row(s):
        assert unifiable(r, s)


@given(r=tuples3, s=tuples3)
def test_unifiable_implies_positionwise(r, s):
    """The Codd shortcut never rejects a genuinely unifiable pair."""
    if unifiable(r, s):
        assert positionwise_unifiable(r, s)


@given(r=tuples3, s=tuples3)
def test_unify_rows_consistent_with_unifiable(r, s):
    assert (unify_rows(r, s) is not None) == unifiable(r, s)


def _brute_unifiable(r, s):
    """``r ⇑ s`` by search: some valuation of the pair's nulls into its
    constants plus one fresh constant per null makes the tuples equal
    (a null sent elsewhere could as well take its own fresh constant)."""
    nulls = sorted({v.label for v in r + s if isinstance(v, Null)})
    constants = {v for v in r + s if not isinstance(v, Null)}
    domain = sorted(constants) + [f"fresh{i}" for i in range(len(nulls))]
    for values in product(domain, repeat=len(nulls)):
        v = Valuation({Null(label): value for label, value in zip(nulls, values)})
        if v.apply_row(r) == v.apply_row(s):
            return True
    return False


short_tuples = st.integers(0, 4).flatmap(
    lambda n: st.tuples(st.tuples(*[cells] * n), st.tuples(*[cells] * n))
)


@given(pair=short_tuples)
def test_unifiable_matches_brute_force(pair):
    """Repeated labels, null-free pairs and mixed positions alike."""
    r, s = pair
    assert unifiable(r, s) == _brute_unifiable(r, s)
