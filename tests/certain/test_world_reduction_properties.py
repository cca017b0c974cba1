"""Property tests for the oracle's world reductions.

``certain_answers_with_nulls`` evaluates one valuation per renaming
class of the fresh constants (every valuation when the query uses
``LIKE``), and evaluates identical worlds once.  Both reductions must be
exact, so Hypothesis checks the oracle against a plain reference written
here: every valuation, a fresh world per valuation, every candidate over
``adom(D)``.  It also pins the size of the canonical enumeration and the
facts the pruned search relies on: the canonical list starts with the
full list's first valuation, so candidate seeding is unchanged.
"""

import dataclasses
import itertools
from functools import lru_cache
from math import comb

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra import (
    AdomPower,
    AntiJoin,
    Attr,
    Comparison,
    Const,
    Difference,
    Product,
    Projection,
    RelationRef,
    Rename,
    Selection,
    eq,
    evaluate,
    neq,
)
from repro.certain import bruteforce
from repro.certain.bruteforce import (
    certain_answers_with_nulls,
    possible_answer_union,
    represents_potential_answers,
)
from repro.data import Database, Null, Relation
from repro.data.valuation import canonical_valuations, enumerate_valuations

NULLS = [Null("h1"), Null("h2"), Null("h3")]
# No constant ends in "1", so the LIKE "%1" queries below single out
# the fresh constant with tag 1.
CONSTANTS = [2, 3]


@st.composite
def databases(draw):
    """Two tiny relations; about one in four has no constants at all."""
    values = NULLS if draw(st.booleans()) and draw(st.booleans()) else NULLS + CONSTANTS
    cells = st.sampled_from(values)
    r_rows = draw(st.lists(st.tuples(cells, cells), min_size=1, max_size=3))
    s_rows = draw(st.lists(st.tuples(cells), min_size=0, max_size=2))
    return Database(
        {
            "R": Relation(("A", "B"), r_rows),
            "S": Relation(("A",), s_rows),
        }
    )


def like(attr, pattern, negated=False):
    return Comparison("not like" if negated else "like", Attr(attr), Const(pattern))


QUERIES = [
    RelationRef("R"),
    Projection(RelationRef("R"), ("A",)),
    Selection(RelationRef("R"), eq("A", "B")),
    Selection(RelationRef("R"), neq("A", "B")),
    Difference(Projection(RelationRef("R"), ("A",)), RelationRef("S")),
    Difference(AdomPower(("A",)), Projection(RelationRef("R"), ("A",))),
    AntiJoin(
        RelationRef("R"), Rename(RelationRef("S"), {"A": "X"}), eq("B", "X")
    ),
    Projection(
        Selection(
            Product(RelationRef("R"), Rename(RelationRef("S"), {"A": "X"})),
            eq("A", "X"),
        ),
        ("B",),
    ),
    # LIKE reads a fresh constant's string form ``c•<tag>``: "%1" holds
    # for the fresh constant with tag 1, not for tag 0.  Every renaming
    # class maps the first null to tag 0 at most, so orbits alone would
    # keep rows whose first null the full enumeration sends to tag 1.
    Selection(RelationRef("R"), like("A", "%1")),
    Selection(RelationRef("R"), like("A", "%1", negated=True)),
    Projection(Selection(RelationRef("R"), like("B", "c•0", negated=True)), ("A",)),
]


def extra_for(kind, nulls):
    """``extra_constants`` relative to the null count."""
    return {
        "default": None,
        "zero": 0,
        "one": 1,
        "fewer": max(nulls - 1, 0),
        "equal": nulls,
        "more": nulls + 1,
    }[kind]


extras = st.sampled_from(["default", "zero", "one", "fewer", "equal", "more"])

common = settings(
    max_examples=60,
    deadline=None,  # wall-clock per-example limits misfire under load
    suppress_health_check=[HealthCheck.too_slow],
)


def reference_worlds(query, db, extra):
    """``(v, Q(v(D)))`` for every valuation, each world built afresh."""
    return [
        (v, set(evaluate(query, v.apply_database(db), semantics="naive").rows))
        for v in enumerate_valuations(db, extra_constants=extra)
    ]


def reference_cert(query, db, extra):
    """``cert(Q, D)`` straight from the definition: no pruning, no memo."""
    worlds = reference_worlds(query, db, extra)
    attrs = evaluate(query, worlds[0][0].apply_database(db)).attributes
    domain = sorted(db.active_domain(), key=repr)
    rows = {
        candidate
        for candidate in itertools.product(domain, repeat=len(attrs))
        if all(v.apply_row(candidate) in answers for v, answers in worlds)
    }
    return attrs, rows


@common
@given(
    db=databases(),
    query=st.sampled_from(QUERIES),
    extra=extras,
    starve_scoring=st.booleans(),
)
def test_cert_matches_reference(db, query, extra, starve_scoring):
    extra = extra_for(extra, len(db.nulls()))
    attrs, expected = reference_cert(query, db, extra)
    with pytest.MonkeyPatch.context() as mp:
        if starve_scoring:
            # Not even one score probe per candidate fits the budget: the
            # huge-pool path, which streams candidates unscored.
            mp.setattr(bruteforce, "SCORE_PROBE_BUDGET", 0)
        for prune in (True, False):
            got = certain_answers_with_nulls(
                query, db, extra_constants=extra, prune=prune
            )
            assert got.attributes == attrs
            assert set(got.rows) == expected
            assert len(got.rows) == len(expected)
            if starve_scoring:
                assert bruteforce.LAST_SEARCH.sampled_worlds == 0


@common
@given(db=databases(), query=st.sampled_from(QUERIES), extra=extras)
def test_world_counters(db, query, extra):
    extra = extra_for(extra, len(db.nulls()))
    certain_answers_with_nulls(query, db, extra_constants=extra)
    stats = bruteforce.LAST_SEARCH
    if "like" in repr(query):
        expected = len(list(enumerate_valuations(db, extra_constants=extra)))
    else:
        expected = len(list(canonical_valuations(db, extra_constants=extra)))
    assert stats.worlds == expected
    assert 1 <= stats.world_evals <= stats.worlds
    summary = dataclasses.asdict(stats)
    assert (summary["worlds"], summary["world_evals"]) == (
        stats.worlds,
        stats.world_evals,
    )


@common
@given(db=databases(), query=st.sampled_from(QUERIES), extra=extras)
def test_seeding_unchanged(db, query, extra):
    """The pruned search seeds from the full enumeration's first world."""
    extra = extra_for(extra, len(db.nulls()))
    certain_answers_with_nulls(query, db, extra_constants=extra)
    v0, answers = reference_worlds(query, db, extra)[0]
    domain = sorted(db.active_domain(), key=repr)
    arity = bruteforce.LAST_SEARCH.arity
    seeded = [
        c
        for c in itertools.product(domain, repeat=arity)
        if v0.apply_row(c) in answers
    ]
    assert bruteforce.LAST_SEARCH.candidates_considered == len(seeded)


@common
@given(db=databases(), query=st.sampled_from(QUERIES), extra=extras)
def test_possible_answer_union_matches_reference(db, query, extra):
    extra = extra_for(extra, len(db.nulls()))
    expected = set().union(
        *(answers for _v, answers in reference_worlds(query, db, extra))
    )
    assert possible_answer_union(query, db, extra_constants=extra) == expected


@common
@given(
    db=databases(),
    query=st.sampled_from(QUERIES),
    extra=extras,
    keep=st.lists(st.booleans(), max_size=6),
)
def test_represents_potential_answers_matches_reference(db, query, extra, keep):
    extra = extra_for(extra, len(db.nulls()))
    naive = evaluate(query, db, semantics="naive")
    # The naive answer itself, or a subset of it, as the candidate A.
    rows = [row for row, k in zip(naive.rows, keep + [True] * len(naive.rows)) if k]
    candidate = Relation(naive.attributes, rows)
    expected = all(
        answers <= {v.apply_row(row) for row in candidate.rows}
        for v, answers in reference_worlds(query, db, extra)
    )
    assert (
        represents_potential_answers(candidate, query, db, extra_constants=extra)
        == expected
    )


# ---------------------------------------------------------------------------
# The canonical enumeration itself
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def stirling2(n, k):
    """Partitions of ``n`` items into exactly ``k`` non-empty blocks."""
    if n == k:
        return 1
    if n == 0 or k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def canonical_count(n, b, m):
    """``Σ_k C(n,k)·b^(n−k)·#partitions(k, ≤ m blocks)``."""
    return sum(
        comb(n, k) * b ** (n - k) * sum(stirling2(k, j) for j in range(m + 1))
        for k in range(n + 1)
    )


def instance(nulls, constants):
    rows = [(Null(f"n{i}"),) for i in range(nulls)]
    rows += [(100 + i,) for i in range(constants)]
    return Database({"R": Relation(("A",), rows)})


@pytest.mark.parametrize(
    "nulls, constants, expected",
    [(3, 7, 537), (4, 2, 151), (3, 3, 77)],
)
def test_canonical_counts_of_benchmark_shapes(nulls, constants, expected):
    db = instance(nulls, constants)
    assert len(list(canonical_valuations(db))) == expected
    assert canonical_count(nulls, constants, nulls) == expected


@settings(max_examples=80, deadline=None)
@given(
    nulls=st.integers(0, 4),
    constants=st.integers(0, 3),
    extra=st.integers(0, 5),
)
def test_canonical_enumeration(nulls, constants, extra):
    db = instance(nulls, constants)
    full = [v.mapping for v in enumerate_valuations(db, extra_constants=extra)]
    canonical = [v.mapping for v in canonical_valuations(db, extra_constants=extra)]
    # A database without constants always gets one fresh constant.
    fresh = extra if constants or extra else 1
    assert len(canonical) == canonical_count(nulls, constants, fresh)
    assert canonical[0] == full[0]
    # An order-preserving subsequence of the full enumeration.
    remaining = iter(full)
    assert all(mapping in remaining for mapping in canonical)
