"""Property tests pinning the anytime brute-force search's guarantees.

Two contracts make a deadline-cut ``certain_answers_with_nulls``
usable as an anytime oracle, and Hypothesis checks them over random
small incomplete databases and queries:

* **soundness** — any deadline cut returns a subset of the full
  ``cert(Q, D)``: partial results never contain a false positive;
* **monotonicity** — under a deterministic clock, growing the deadline
  only ever grows the result (each cut is a subset of every later cut).

That the complete search equals ``cert(Q, D)`` is checked against an
independent reference in ``test_world_reduction_properties.py``.

The monotonicity property cannot be stated over the wall clock (a lucky
scheduler could let a shorter deadline verify more), so it runs against
the same fake-clock pattern as
``tests/robustness/test_limits.py``: each ``time.monotonic()`` read
advances a counter, making every run bit-deterministic.
"""

import pytest

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra import (
    Difference,
    Product,
    Projection,
    RelationRef,
    Rename,
    Selection,
    eq,
)
from repro.certain import bruteforce
from repro.certain.bruteforce import certain_answers_with_nulls
from repro.data import Database, Null, Relation

# A fixed pool of labelled nulls: equality is by label, so reusing the
# objects across examples is safe and keeps shrunk examples readable.
NULLS = [Null("h1"), Null("h2")]
VALUES = [1, 2, NULLS[0], NULLS[1]]

cells = st.sampled_from(VALUES)


@st.composite
def databases(draw):
    r_rows = draw(
        st.lists(st.tuples(cells, cells), min_size=1, max_size=3)
    )
    s_rows = draw(st.lists(st.tuples(cells), min_size=0, max_size=2))
    return Database(
        {
            "R": Relation(("A", "B"), r_rows),
            "S": Relation(("A",), s_rows),
        }
    )


QUERIES = [
    RelationRef("R"),
    Projection(RelationRef("R"), ("A",)),
    Selection(RelationRef("R"), eq("B", 1)),
    Selection(RelationRef("R"), eq("A", "B")),
    Difference(Projection(RelationRef("R"), ("A",)), RelationRef("S")),
    Projection(
        Selection(
            Product(RelationRef("R"), Rename(RelationRef("S"), {"A": "X"})),
            eq("A", "X"),
        ),
        ("B",),
    ),
]

queries = st.sampled_from(QUERIES)


class FakeTime:
    """Deterministic stand-in for ``bruteforce.time``: every
    ``monotonic()`` read advances one tick, so deadlines are measured in
    clock reads rather than seconds."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        self.now += 1.0
        return self.now


@pytest.fixture(autouse=True)
def _real_clock_guard():
    """Fail loudly if a test leaks a fake clock into the module."""
    import time as real_time

    assert bruteforce.time is real_time
    yield
    assert bruteforce.time is real_time


common = settings(
    max_examples=40,
    deadline=None,  # wall-clock per-example limits misfire under load
    suppress_health_check=[HealthCheck.too_slow],
)


@common
@given(
    db=databases(),
    query=queries,
    deadline=st.sampled_from([0.0, 1e-4, 1e-3, 5e-3]),
)
def test_deadline_cut_is_sound_subset(db, query, deadline):
    full = certain_answers_with_nulls(query, db)
    assert bruteforce.LAST_SEARCH.complete
    partial = certain_answers_with_nulls(query, db, deadline=deadline)
    stats = bruteforce.LAST_SEARCH
    assert partial.attributes == full.attributes
    assert set(partial.rows) <= set(full.rows)  # no false positives, ever
    if stats.complete:
        # A cut that never fired must not change the answer.
        assert partial.rows == full.rows
    assert stats.emitted == len(partial.rows)


@common
@given(db=databases(), query=queries)
def test_results_grow_monotonically_with_deadline(db, query):
    full = certain_answers_with_nulls(query, db)
    import time as real_time

    previous = set()
    try:
        # 1 tick buys one clock read: this ladder sweeps the cutoff from
        # "inside world evaluation" to "past the whole search".
        for deadline in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 256.0, 4096.0):
            bruteforce.time = FakeTime()
            rows = set(certain_answers_with_nulls(query, db, deadline=deadline).rows)
            assert previous <= rows, (
                f"deadline {deadline}: lost rows {previous - rows}"
            )
            assert rows <= set(full.rows)
            previous = rows
    finally:
        bruteforce.time = real_time
    # The top of the ladder is past every clock read the search makes.
    assert previous == set(full.rows)

