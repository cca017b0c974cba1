"""The oracle's candidate search kernel: counters, order and cuts.

``certain_answers_with_nulls`` seeds candidates from the first world's
answers, refutes most of them against a small sample of worlds, and
verifies the survivors.  How it does so may change; *what* it does may
not.  These tests pin:

* the exact ``SearchStats`` counters of a complete search on a
  deep-junk diagonal instance, where almost every seeded candidate is
  refuted by the sample;
* the exploration order: confirmed tuples stream through ``progress=``
  in seeding order (first-world answer rows by ``repr``, then the
  product of each row's preimage pools), and no candidate is seeded
  twice;
* the counters of searches cut by a deadline (a fake clock) and by a
  cancellation token fired from ``progress``, and that a cut in the
  scoring pass streams the rest unscored from the candidate that hit
  it, dropping none.
"""

import dataclasses
import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra import RelationRef, Selection, eq
from repro.certain import bruteforce
from repro.certain.bruteforce import certain_answers_with_nulls
from repro.data import Database, Null, Relation
from repro.engine import CancelToken
from tests.certain.test_anytime_properties import FakeTime
from tests.certain.test_world_reduction_properties import (
    QUERIES,
    databases,
    extra_for,
    extras,
    reference_worlds,
)

SELECTION = 5
TAIL = 6
EXTRA_CONSTANTS = 3
QUERY = Selection(RelationRef("r"), eq("a0", "a1"))


def diagonal_instance(certain, junk):
    """``certain`` + ``junk`` families of ``r``, each told apart by a
    constant tail.  A certain family repeats one null across the
    selection columns, so ``a0 = a1`` holds in every world; a junk family
    alternates two nulls, so some world refutes it.  ``z`` adds a null
    and the constant 1, widening every pool to four values.  Each family
    seeds ``4**5`` candidates."""
    n1, n2 = Null("a"), Null("b")
    tails = list(itertools.product((5, 6), repeat=TAIL - 1))
    attrs = tuple(f"a{i}" for i in range(SELECTION)) + tuple(
        f"b{i}" for i in range(TAIL)
    )
    junk_rows = [
        tuple((n1, n2)[i % 2] for i in range(SELECTION)) + (5,) + tail
        for tail in tails[:junk]
    ]
    cert_rows = [(n1,) * SELECTION + (6,) + tail for tail in tails[-certain:]]
    db = Database(
        {
            "r": Relation(attrs, junk_rows + cert_rows),
            "z": Relation(("z1",), [(Null("c"),), (1,)]),
        }
    )
    return db, set(cert_rows)


COUNTERS = (
    "candidates_considered",
    "sampled_worlds",
    "score_probes",
    "sample_refuted",
    "world_checks",
    "world_reorders",
    "emitted",
    "worlds",
    "world_evals",
)


def counters(stats):
    summary = dataclasses.asdict(stats)
    return {name: summary[name] for name in COUNTERS}


def search(db, **kwargs):
    rows = certain_answers_with_nulls(
        QUERY, db, extra_constants=EXTRA_CONSTANTS, **kwargs
    ).rows
    return rows, bruteforce.LAST_SEARCH


# ---------------------------------------------------------------------------
# Pinned counters of complete searches
# ---------------------------------------------------------------------------

PINNED = {
    (6, 2): dict(
        candidates_considered=8192,
        sampled_worlds=8,
        score_probes=10358,
        sample_refuted=8186,
        world_checks=456,
        world_reorders=0,
        emitted=6,
        worlds=77,
        world_evals=77,
    ),
    (2, 4): dict(
        candidates_considered=6144,
        sampled_worlds=8,
        score_probes=7676,
        sample_refuted=6142,
        world_checks=152,
        world_reorders=0,
        emitted=2,
        worlds=77,
        world_evals=77,
    ),
}


@pytest.mark.parametrize("families", sorted(PINNED))
def test_complete_search_counters(families):
    db, cert = diagonal_instance(*families)
    rows, stats = search(db)
    assert set(rows) == cert and len(rows) == len(cert)
    assert rows == sorted(rows, key=repr)
    assert stats.complete and not stats.cancelled
    assert counters(stats) == PINNED[families]


# ---------------------------------------------------------------------------
# Exploration order
# ---------------------------------------------------------------------------


def reference_seeding(query, db, extra):
    """Seeded candidates in seeding order, from the definition: every
    tuple over ``adom(D)`` whose first-world image is a first-world
    answer, grouped by that answer in ``repr`` order, in product order
    within an answer.  No deduplication: repeats would show."""
    v0, answers = reference_worlds(query, db, extra)[0]
    if not answers:
        return []
    domain = sorted(db.active_domain(), key=repr)
    arity = len(next(iter(answers)))
    rank = {row: i for i, row in enumerate(sorted(answers, key=repr))}
    seeded = [
        c
        for c in itertools.product(domain, repeat=arity)
        if v0.apply_row(c) in answers
    ]
    return sorted(seeded, key=lambda c: rank[v0.apply_row(c)])


common = settings(
    max_examples=60,
    deadline=None,  # wall-clock per-example limits misfire under load
    suppress_health_check=[HealthCheck.too_slow],
)


@common
@given(
    db=databases(),
    query=st.sampled_from(QUERIES),
    extra=extras,
    starve_scoring=st.booleans(),
)
def test_progress_streams_in_seeding_order(db, query, extra, starve_scoring):
    extra = extra_for(extra, len(db.nulls()))
    confirmed = []
    with pytest.MonkeyPatch.context() as mp:
        if starve_scoring:
            mp.setattr(bruteforce, "SCORE_PROBE_BUDGET", 0)
        got = certain_answers_with_nulls(
            query,
            db,
            extra_constants=extra,
            progress=lambda row, _stats: confirmed.append(row),
        )
    stats = bruteforce.LAST_SEARCH
    seeded = reference_seeding(query, db, extra)
    assert len(set(seeded)) == len(seeded) == stats.candidates_considered
    cert = set(got.rows)
    assert confirmed == [c for c in seeded if c in cert]
    assert stats.emitted == len(confirmed)
    assert stats.sample_refuted + stats.emitted <= stats.candidates_considered


# ---------------------------------------------------------------------------
# Cut searches
# ---------------------------------------------------------------------------


def assert_cut_consistent(stats):
    assert not stats.complete
    assert stats.sample_refuted + stats.emitted <= stats.candidates_considered
    assert stats.score_probes >= stats.sample_refuted


#: Clock reads: 1 at entry, one per world after the first (76), one for
#: the world phase's elapsed time, then one every ``_CLOCK_EVERY``
#: candidates in scoring and in verification.  The ladder cuts inside
#: the candidate phase and ends past the whole search.
LADDER = (90.0, 120.0, 160.0, 240.0, 4096.0)

#: The cut at 240 clock reads, mid-scoring with three tuples confirmed.
PINNED_DEADLINE_CUT = dict(
    candidates_considered=8192,
    sampled_worlds=8,
    score_probes=6545,
    sample_refuted=5181,
    world_checks=273,
    world_reorders=1,
    emitted=3,
    worlds=77,
    world_evals=77,
)


def test_deadline_ladder_cuts(monkeypatch):
    db, cert = diagonal_instance(6, 2)
    previous = set()
    cuts = {}
    for deadline in LADDER:
        monkeypatch.setattr(bruteforce, "time", FakeTime())
        rows, stats = search(db, deadline=deadline)
        assert previous <= set(rows) <= cert
        assert stats.emitted == len(rows)
        if not stats.complete:
            assert_cut_consistent(stats)
        cuts[deadline] = counters(stats)
        previous = set(rows)
    assert previous == cert
    assert cuts[240.0] == PINNED_DEADLINE_CUT


PINNED_CANCEL_CUT = dict(
    candidates_considered=8192,
    sampled_worlds=8,
    score_probes=5643,
    sample_refuted=4435,
    world_checks=228,
    world_reorders=0,
    emitted=3,
    worlds=77,
    world_evals=77,
)


#: ``(score_probes, sample_refuted, emitted)`` as ``progress`` sees them:
#: the counters are current at every confirmation, not only at the end.
PINNED_PROGRESS = [(3035, 2389, 1), (4339, 3412, 2), (5643, 4435, 3)]


def test_cancel_from_progress_cuts():
    db, cert = diagonal_instance(6, 2)
    token = CancelToken()
    confirmed = []
    seen = []

    def fire_at_third(row, stats):
        confirmed.append(row)
        seen.append((stats.score_probes, stats.sample_refuted, stats.emitted))
        if len(confirmed) == 3:
            token.cancel("enough")

    rows, stats = search(db, progress=fire_at_third, cancel=token)
    assert stats.cancelled
    assert_cut_consistent(stats)
    assert set(rows) == set(confirmed) <= cert
    assert seen == PINNED_PROGRESS
    assert counters(stats) == PINNED_CANCEL_CUT


class GlitchToken:
    """A cancel token that reads as fired exactly once, at its *at*-th
    read.  If the scoring pass takes that read, it streams the rest
    unscored and the verifier, which sees the token unfired, verifies
    all of it: the search completes, so it must find every certain
    tuple, in the order of an uncut search."""

    def __init__(self, at):
        self.at = at
        self.reads = 0

    @property
    def cancelled(self):
        self.reads += 1
        return self.reads == self.at


def test_scoring_cut_drops_no_candidate():
    db = Database(
        {
            "R": Relation(("A", "B"), [(1, Null("h1")), (2, 3), (Null("h2"), 3)]),
            "S": Relation(("A",), [(Null("h3"),)]),
        }
    )
    query = RelationRef("R")
    order = []
    full = certain_answers_with_nulls(
        query, db, progress=lambda row, _stats: order.append(row)
    )
    probes = bruteforce.LAST_SEARCH.score_probes
    reads = GlitchToken(0)
    certain_answers_with_nulls(query, db, cancel=reads)
    scoring_cuts = 0
    for at in range(1, reads.reads + 1):
        confirmed = []
        rows = certain_answers_with_nulls(
            query,
            db,
            cancel=GlitchToken(at),
            progress=lambda row, _stats: confirmed.append(row),
        ).rows
        stats = bruteforce.LAST_SEARCH
        assert confirmed == order[: len(confirmed)]
        if stats.complete:
            assert rows == full.rows
            scoring_cuts += stats.score_probes < probes
    assert scoring_cuts > 0  # some glitch did cut the scoring pass
