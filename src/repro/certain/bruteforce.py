"""Brute-force certain answers — the ground truth everything is tested against.

``cert(Q, D)`` (certain answers *with nulls*, Section 2) is the set of
tuples ``ā`` over ``adom(D)`` such that ``v(ā) ∈ Q(v(D))`` for every
valuation ``v``.  Computing it is coNP-hard in general, so this module
simply enumerates valuations over a sufficient finite domain — viable
only for the small databases used in tests and in the Section 4/7
ground-truth comparisons, which is precisely its role.

The world phase evaluates ``Q`` once per distinct world, up to renaming
of the fresh constants, not once per valuation.  Two exact reductions
do this:

* **orbits** — renaming the fresh constants among themselves maps a
  world and its answers alike, so a valuation accepts a candidate iff
  every renaming of it does; only the canonical valuation of each
  renaming class is enumerated
  (:func:`~repro.data.valuation.canonical_valuations`).  ``LIKE`` reads
  a fresh constant's string form and so can tell them apart; a query
  holding ``like`` or ``not like`` gets every valuation;
* **identical worlds** — evaluation is set-semantic, so valuations
  that give every relation the same row set share one evaluation and
  one answer set.

``SearchStats.worlds`` and ``SearchStats.world_evals`` count the two.

Candidates come in **boxes**, one per answer row of the first world:
per position, the pool of domain elements the first valuation sends
to the row's value; the candidates are the product of the pools.
Because that role includes serving as an *anytime* oracle under
harness deadlines, the search is **best-first**: each candidate is
probed against a small sample of worlds, and since any rejecting world
is a proof of non-certainty, sample survivors stream straight into
verification while refuted candidates are dropped with a certificate
(huge candidate counts fall back to plain seeding order); rejecting
worlds are promoted by their observed kill rate so doomed survivors
die at their first check.
A tuple is only ever emitted after surviving every world, so a
deadline- or cancellation-cut result is always a sound subset of
``cert(Q, D)`` — and a richer one than verifying candidates in seeding
order would give in the same time (docs/engine.md records the
comparison).  ``progress=`` streams confirmed tuples as they are found;
``cancel=`` accepts a :class:`~repro.engine.limits.CancelToken` another
thread may fire.

The classical null-free certain answers are the null-free tuples of
``cert(Q, D)`` (also Section 2), exposed as :func:`certain_answers`.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.algebra.conditions import And, Comparison, Not, Or
from repro.algebra.evaluate import Evaluator
from repro.algebra.expr import Expr, walk
from repro.data.database import Database
from repro.data.nulls import is_null
from repro.data.relation import Relation
from repro.data.valuation import (
    Valuation,
    canonical_valuations,
    enumerate_valuations,
)
from repro.engine.limits import CancelToken

__all__ = [
    "certain_answers_with_nulls",
    "certain_answers",
    "possible_answer_union",
    "represents_potential_answers",
    "false_positives",
    "false_negatives",
    "SearchStats",
    "LAST_SEARCH",  # noqa: F822 — thread-local, served by module __getattr__
]

Row = Tuple[object, ...]

#: Worlds sampled (evenly spaced) to score candidate plausibility.
SCORE_SAMPLE_WORLDS = 8

#: Cap on the total scoring membership tests one search may spend.  The
#: per-candidate sample shrinks as the candidate pool grows (down to
#: plain seeding order, unscored, for pools too large for one probe each),
#: keeping the worst-case ordering overhead a small multiple of one
#: verification sweep.  Scoring is streamed per candidate and early-exits
#: at the first rejecting sample, so in practice only plausibly-certain
#: candidates spend their full allowance.
SCORE_PROBE_BUDGET = 1 << 18

#: Candidates examined between wall-clock reads in the scoring and
#: verification loops (the first candidate always reads the clock).
#: Same amortisation idea as ``repro.engine.limits.CHECK_INTERVAL``: a
#: deadline may overshoot by at most this many candidates' worth of
#: work, and cancellation latency stays within one interval.
_CLOCK_EVERY = 32


@dataclass
class SearchStats:
    """Instrumentation of the last :func:`certain_answers_with_nulls` call.

    ``exhaustive_candidates`` is what the unpruned enumeration would have
    considered (``|adom|**arity``); ``candidates_considered`` is what the
    search seeded, the sum of its boxes' sizes (the exhaustive search is
    one box of ``|adom|**arity``); ``world_checks`` counts candidate-vs-world
    membership tests in the verification loop (each candidate
    short-circuits at its first rejecting world).  ``complete`` is
    ``False`` when a ``deadline=`` or a fired ``cancel=`` token cut the
    search short (the result is then a sound subset of ``cert(Q, D)``);
    ``cancelled`` distinguishes the token case.  ``elapsed`` is the
    wall-clock time of the call.

    Best-first ordering counters: ``sampled_worlds`` is how many worlds
    the plausibility filter probed; ``score_probes`` counts those
    scoring membership tests (kept out of ``world_checks``, which counts
    verification only);
    ``sample_refuted`` counts candidates a sampled world rejected — each
    such probe is a sound refutation certificate, so those candidates
    skip the verification loop entirely; ``world_reorders`` counts
    promotions of a killing world to the front of the rejecting-world
    queue.  ``emitted`` is the number of confirmed
    tuples streamed (equals the result size).  ``world_elapsed`` is the
    time spent evaluating the query on every possible world — a fixed
    preamble paid before any tuple *can* be confirmed (no emission
    without all worlds).

    World counters: ``worlds`` is how many valuations the world phase
    checked — one per renaming class of the fresh constants, or every
    valuation for a query with ``LIKE`` — and ``world_evals`` how many
    times the query's resolved plan ran for them (identical worlds share
    one run, so ``world_evals <= worlds``).  A pre-fired ``cancel=`` or
    a ``deadline=`` of zero or less evaluates no world.
    """

    arity: int = 0
    pruned: bool = True
    exhaustive_candidates: int = 0
    candidates_considered: int = 0
    world_checks: int = 0
    complete: bool = True
    elapsed: float = 0.0
    world_elapsed: float = 0.0
    sampled_worlds: int = 0
    score_probes: int = 0
    sample_refuted: int = 0
    world_reorders: int = 0
    cancelled: bool = False
    emitted: int = 0
    worlds: int = 0
    world_evals: int = 0


class _SearchLog(threading.local):
    """Per-thread publication slot for the last search's stats.

    Concurrent harness workers each search in their own thread; a
    module-global would let one worker's stats clobber another's between
    the search and the read.  Thread-locality keeps the familiar
    ``bruteforce.LAST_SEARCH`` read (served via module ``__getattr__``)
    race-free without a lock on the hot path.
    """

    def __init__(self) -> None:
        self.stats = SearchStats()


_SEARCH_LOG = _SearchLog()


def __getattr__(name: str):
    # PEP 562: ``bruteforce.LAST_SEARCH`` reads this thread's slot, so
    # parallel searches never observe each other's stats.
    if name == "LAST_SEARCH":
        return _SEARCH_LOG.stats
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _seed_candidates(
    domain: List[object], first_world: Tuple[Valuation, Set[Row]]
) -> List[List[List[object]]]:
    """The boxes whose candidates have their image among the first
    world's answers — the only tuples that can possibly be certain.

    For the first valuation ``v`` the certain answers satisfy
    ``v(ā) ∈ Q(v(D))``, so instead of enumerating ``adom^arity`` we take
    the preimage of the first world's answer set under ``v``: at each
    position of an answer row the candidate may hold any element of the
    sorted *domain* mapping to that constant (the constant itself if it
    is in the domain, plus every null ``v`` sends there).  One answer row
    gives one box, its candidates are the product of its pools.

    No candidate is seeded twice: ``v`` sends each candidate to exactly
    one answer row, so the boxes are disjoint, and a pool lists distinct
    elements, so a product has no repeats.  Boxes follow the answer rows
    by ``repr`` and pools keep *domain* order; that generation order is
    the order candidates stream in.
    """
    v, rows = first_world
    preimage: Dict[object, List[object]] = {}
    for x in domain:
        preimage.setdefault(v(x), []).append(x)
    boxes: List[List[List[object]]] = []
    for row in sorted(rows, key=repr):
        pools = [preimage.get(value) for value in row]
        if None not in pools:  # else some value is outside adom's image
            boxes.append(pools)  # type: ignore[arg-type]
    return boxes


#: Per relation: name, attributes, complete rows, and the rows holding
#: nulls paired with their null positions.
_Layout = List[
    Tuple[str, Tuple[str, ...], FrozenSet[Row], List[Tuple[Row, List[int]]]]
]

#: Per relation with nulls, in layout order: the rows a valuation adds to
#: the relation's complete rows.  Equal keys mean equal worlds.
_WorldKey = Tuple[FrozenSet[Row], ...]


def _world_layout(db: Database) -> _Layout:
    """Per-relation rows split by whether they hold nulls, computed once.

    Building a possible world is then a few dict probes per incomplete
    row (complete rows never change) instead of a generic
    ``Valuation.apply_database`` traversal — the world phase runs once
    per valuation, so this is the other hot loop of the search.
    """
    layout: _Layout = []
    for name, rel in db.relations.items():
        complete: List[Row] = []
        incomplete: List[Tuple[Row, List[int]]] = []
        for row in rel.rows:
            null_pos = [i for i, value in enumerate(row) if is_null(value)]
            if null_pos:
                incomplete.append((row, null_pos))
            else:
                complete.append(row)
        layout.append((name, rel.attributes, frozenset(complete), incomplete))
    return layout


def _world_key(layout: _Layout, v: Valuation) -> _WorldKey:
    """The rows ``v`` adds to each relation holding nulls, as a dict key."""
    mapping = v.mapping
    key: List[FrozenSet[Row]] = []
    for _name, _attrs, complete, incomplete in layout:
        if not incomplete:
            continue
        added: Set[Row] = set()
        for row, null_pos in incomplete:
            image = list(row)
            for i in null_pos:
                image[i] = mapping[row[i]]
            added.add(tuple(image))
        added.difference_update(complete)
        key.append(frozenset(added))
    return tuple(key)


def _apply_world(db: Database, layout: _Layout, key: _WorldKey) -> Database:
    """The world a :func:`_world_key` stands for.

    Relations without nulls are shared with ``db``; row order is
    immaterial, since evaluation is set-semantic.  The rows are ``db``'s
    own or their images, so they need no width check.
    """
    added = iter(key)
    relations: Dict[str, Relation] = {}
    for name, attrs, complete, incomplete in layout:
        if incomplete:
            relations[name] = Relation._unchecked(
                attrs, list(itertools.chain(complete, next(added)))
            )
        else:
            relations[name] = db.relations[name]
    return Database(relations, schema=db.schema)


class _WorldAnswers:
    """``Q(v(D))`` per valuation, evaluating each distinct world once.

    Evaluation is set-semantic, so ``Q(W)`` depends only on each
    relation's row set.  The :func:`_world_key` fixes those row sets,
    and with them ``adom(W)`` (so ``AdomPower`` is covered too);
    valuations with equal keys share one evaluation and one answer set.

    The query is resolved once, against ``D``, and the plan runs in
    every world; a subplan that reads only relations without nulls
    (which every world shares with ``D``) runs once.  ``evals`` counts
    the runs of the plan; ``attributes`` are the answer attributes.
    """

    def __init__(self, query: Expr, db: Database):
        self.db = db
        self.layout = _world_layout(db)
        complete = {name for name, _attrs, _rows, incomplete in self.layout if not incomplete}
        self.evaluator = Evaluator(db, semantics="naive")
        self.plan = self.evaluator.resolve(query, shared=complete)
        self.attributes: Tuple[str, ...] = self.plan.attributes
        self.evals = 0
        self._answers: Dict[_WorldKey, Set[Row]] = {}

    def __call__(self, v: Valuation) -> Set[Row]:
        """The answer rows on ``v(D)``."""
        key = _world_key(self.layout, v)
        rows = self._answers.get(key)
        if rows is None:
            world = _apply_world(self.db, self.layout, key)
            rows = self._answers[key] = set(self.plan.run(world).rows)
            self.evals += 1
        return rows


def _distinguishes_fresh(query: Expr) -> bool:
    """Whether *query* can tell fresh constants apart.

    Only ``LIKE`` can: it matches the string form ``c•<tag>`` of a fresh
    constant.  Equality treats them as anonymous values, and an order
    comparison raises ``TypeError`` for every renaming of a world alike.
    """
    pending = [getattr(node, "condition", None) for node in walk(query)]
    while pending:
        cond = pending.pop()
        if isinstance(cond, (And, Or)):
            pending.extend(cond.items)
        elif isinstance(cond, Not):
            pending.append(cond.item)
        elif isinstance(cond, Comparison) and cond.op in ("like", "not like"):
            return True
    return False


def _orbit_valuations(
    query: Expr, db: Database, extra_constants: Optional[int]
) -> Iterator[Valuation]:
    """One valuation per renaming class of the fresh constants, or every
    valuation when *query* can tell fresh constants apart.

    Let ``π`` permute the fresh constants and fix ``Const(D)``.  For a
    tuple ``ā`` over ``adom(D)``, ``(π∘v)(ā) = π(v(ā))``, and a query
    that sees fresh constants only through equality answers ``π(W)``
    with ``π(Q(W))``.  So ``v(ā) ∈ Q(v(D))`` iff
    ``(π∘v)(ā) ∈ Q((π∘v)(D))``: any check of that shape holds for every
    valuation iff it holds for the canonical ones.
    """
    if _distinguishes_fresh(query):
        return enumerate_valuations(db, extra_constants=extra_constants)
    return canonical_valuations(db, extra_constants)


def _best_first_stream(
    domain: List[object],
    boxes: List[List[List[object]]],
    worlds: List[Tuple[Valuation, Set[Row]]],
    stats: "SearchStats",
    cutoff: Optional[float],
    cancel: Optional[CancelToken],
) -> Iterator[Tuple[Row, List[int]]]:
    """Yield plausible ``(candidate, null_positions)`` pairs, best first.

    Each candidate of each box (see :func:`_seed_candidates`) is probed
    against an evenly spaced sample of *worlds* until its first
    rejection.  A candidate admitted by every sampled world — the
    plausibly-certain kind — is yielded *immediately*, so confirmation
    starts streaming without waiting behind a global ordering pass.  A
    candidate a sampled world rejects needs no further attention: the
    probe *is* a world membership test, so the rejecting world is a
    certificate that it is not certain.  It is counted in
    ``stats.sample_refuted`` and dropped — the expensive verification
    loop only ever sees sample survivors.

    The first sampled world is applied to a box's pools, not to its
    candidates: the product of the mapped pools lists the candidates'
    images in candidate order, so a box's first probes run without
    touching a candidate.  Only survivors are mapped through the later
    sampled worlds, and only yielded ones get their null positions.

    The sample shrinks as the candidate count grows so total probes stay
    under :data:`SCORE_PROBE_BUDGET` (early exit keeps the spend far
    lower in practice).  With no worlds, a single candidate, or so many
    candidates that not even one probe each fits the budget, candidates
    stream unscored in seeding order and all of them are verified.

    Either way no candidate is ever dropped *unexamined*, so soundness
    and completeness are untouched.  After a deadline or cancellation
    hit the remainder, from the candidate that hit it, streams unscored
    — the verification loop is about to stop at its own check anyway.
    Probe and refutation counts in *stats* are current at every yield.
    """
    n = stats.candidates_considered
    sample_size = (
        min(SCORE_SAMPLE_WORLDS, len(worlds), SCORE_PROBE_BUDGET // n) if n > 1 else 0
    )
    candidates = itertools.chain.from_iterable(
        itertools.product(*pools) for pools in boxes
    )
    if sample_size > 0:
        step = max(1, len(worlds) // sample_size)
        # Each sampled world as a total map over adom, with its answers.
        identity = dict(zip(domain, domain))
        (first_map, first), *later = [
            ({**identity, **v.mapping}, rows) for v, rows in worlds[::step][:sample_size]
        ]
        stats.sampled_worlds = 1 + len(later)
        # The first sample's probes, box by box: the product of the
        # mapped pools is every candidate's image, in candidate order.
        hits = itertools.chain.from_iterable(
            map(
                first.__contains__,
                itertools.product(*[list(map(first_map.__getitem__, p)) for p in pools]),
            )
            for pools in boxes
        )
        probes = refuted = 0
        ticks = _CLOCK_EVERY  # first candidate reads the clock
        for candidate, hit in zip(candidates, hits):
            if cancel is not None and cancel.cancelled:
                break
            if cutoff is not None:
                ticks += 1
                if ticks >= _CLOCK_EVERY:
                    ticks = 0
                    if time.monotonic() > cutoff:
                        break
            probes += 1
            if hit:
                for image, rows in later:
                    probes += 1
                    if tuple(map(image.__getitem__, candidate)) not in rows:
                        break
                else:
                    stats.score_probes, stats.sample_refuted = probes, refuted
                    yield candidate, [i for i, x in enumerate(candidate) if is_null(x)]
                    continue
            refuted += 1
        else:
            stats.score_probes, stats.sample_refuted = probes, refuted
            return  # every candidate scored
        stats.score_probes, stats.sample_refuted = probes, refuted
        # Cut: the rest streams unscored, from the candidate that hit it.
        candidates = itertools.chain((candidate,), candidates)
    for candidate in candidates:
        yield candidate, [i for i, x in enumerate(candidate) if is_null(x)]


def certain_answers_with_nulls(
    query: Expr,
    db: Database,
    attributes: Optional[Tuple[str, ...]] = None,
    extra_constants: Optional[int] = None,
    prune: bool = True,
    deadline: Optional[float] = None,
    progress: Optional[Callable[[Row, "SearchStats"], None]] = None,
    cancel: Optional[CancelToken] = None,
) -> Relation:
    """``cert(Q, D)`` by explicit valuation enumeration.

    For every candidate tuple ``ā`` over ``adom(D)`` and every valuation
    ``v`` into ``Const(D)`` plus fresh constants, check
    ``v(ā) ∈ Q(v(D))``.  The default number of fresh constants (one per
    null) is sufficient for first-order queries by genericity.  Only one
    valuation per renaming class of the fresh constants is checked
    (every valuation if the query uses ``LIKE``), and identical worlds
    are evaluated once; see the module docstring.

    With ``prune=True`` (the default) the candidates are seeded from
    the first world's answers, one box per answer row, instead of one
    box holding all of ``adom^arity`` in product order, and each
    candidate is abandoned at the first world that rejects it; the
    result is provably identical to the exhaustive search
    (``prune=False``), which is kept for cross-checking.  Search effort
    is reported in :data:`LAST_SEARCH`.

    The search is best-first: candidates a small, evenly spaced world
    sample rejects are refuted outright, sample survivors are verified
    in seeding order, and a world that rejects a candidate moves to the
    front of the verification queue.  The *returned* relation lists
    confirmed tuples in the canonical sorted order; the exploration
    order only decides *which* sound subset survives a cut.

    ``deadline`` (seconds, counted from call entry) makes the search
    *anytime*: when the budget runs out, the sound subset of certain
    answers confirmed so far is returned — a tuple is only ever emitted
    after surviving **every** world, so partial results contain no false
    positives (they may miss certain answers).  ``cancel`` accepts a
    :class:`~repro.engine.limits.CancelToken`; a token fired from
    another thread stops the search at its next candidate or world
    check, with the same sound-subset result and
    ``LAST_SEARCH.cancelled = True``.  ``LAST_SEARCH.complete`` records
    whether the search finished; ``LAST_SEARCH.elapsed`` the time it
    took.

    ``progress`` is called as ``progress(row, stats)`` the moment each
    tuple is *confirmed* certain (in exploration order, not the final
    sorted order), so callers see an ever-growing sound subset instead
    of one terminal dump.
    """
    start = time.monotonic()
    cutoff = None if deadline is None else start + deadline
    # One world per renaming class of the fresh constants; identical
    # worlds share one evaluation.
    world_answers = _WorldAnswers(query, db)
    worlds: List[Tuple[Valuation, Set[Row]]] = []
    result_attrs = world_answers.attributes if attributes is None else attributes
    cancelled = False
    timed_out = False
    for v in _orbit_valuations(query, db, extra_constants):
        if cancel is not None and cancel.cancelled:
            cancelled = True
            break
        # Without every world no candidate can be *confirmed* certain;
        # the sound subset at a cut is empty.  A budget of zero seconds
        # or less is spent at entry.
        if cutoff is not None and (
            time.monotonic() > cutoff if worlds else deadline <= 0
        ):
            timed_out = True
            break
        worlds.append((v, world_answers(v)))
    world_elapsed = time.monotonic() - start
    arity = len(result_attrs)
    stats = SearchStats(
        arity=arity,
        pruned=prune,
        exhaustive_candidates=len(db.active_domain()) ** arity,
        world_elapsed=world_elapsed,
        worlds=len(worlds),
        world_evals=world_answers.evals,
    )
    if timed_out or cancelled:
        stats.complete = False
        stats.cancelled = cancelled
        stats.elapsed = time.monotonic() - start
        _SEARCH_LOG.stats = stats
        return Relation(result_attrs, [])
    domain = sorted(db.active_domain(), key=repr)
    if prune:
        # Seeding already enforces membership in the first world.
        boxes = _seed_candidates(domain, worlds[0])
        remaining = worlds[1:]
    else:
        boxes = [[domain] * arity]  # every tuple over adom(D)
        remaining = worlds
    stats.candidates_considered = sum(math.prod(map(len, box)) for box in boxes)
    # Mutable [kills, valuation, rows] entries so the rejecting-world
    # queue can be promoted as worlds prove their kill power.
    queue: List[List[object]] = [[0, v, rows] for v, rows in remaining]
    certain: List[Row] = []
    ticks = _CLOCK_EVERY  # first candidate reads the clock
    for candidate, null_pos in _best_first_stream(
        domain, boxes, remaining, stats, cutoff, cancel
    ):
        if cancel is not None and cancel.cancelled:
            stats.complete = False
            stats.cancelled = True
            break
        if cutoff is not None:
            ticks += 1
            if ticks >= _CLOCK_EVERY:
                ticks = 0
                if time.monotonic() > cutoff:
                    # Every tuple already in ``certain`` survived all
                    # worlds, so returning early stays sound.
                    stats.complete = False
                    break
        # Valuations are applied inline — ground candidates are a raw
        # set lookup per world, null-bearing ones patch precomputed null
        # positions through the valuation mapping — because this loop is
        # the coNP-hard part and generic ``Valuation.apply_row`` costs
        # several times a dict probe.
        image = list(candidate)
        accepted = True
        checks = 0
        for index, entry in enumerate(queue):
            if cancel is not None and cancel.cancelled:
                stats.complete = False
                stats.cancelled = True
                accepted = False
                break
            checks += 1
            if null_pos:
                mapping = entry[1].mapping  # type: ignore[union-attr]
                for i in null_pos:
                    image[i] = mapping[candidate[i]]
                hit = tuple(image) in entry[2]  # type: ignore[operator]
            else:
                hit = candidate in entry[2]  # type: ignore[operator]
            if not hit:
                entry[0] += 1  # type: ignore[operator]
                accepted = False
                if index:
                    # Self-organising kill-rate order: move the killer to
                    # the front so similar doomed candidates die at their
                    # first check.  O(index) per promotion, and repeat
                    # killers sit at index 0 where promotion is free.
                    del queue[index]
                    queue.insert(0, entry)
                    stats.world_reorders += 1
                break
        stats.world_checks += checks
        if stats.cancelled:
            break
        if accepted:
            certain.append(candidate)
            stats.emitted += 1
            if progress is not None:
                progress(candidate, stats)
    stats.elapsed = time.monotonic() - start
    _SEARCH_LOG.stats = stats
    # Canonical sorted order, whatever order the tuples were confirmed in.
    return Relation(result_attrs, sorted(certain, key=repr))


def certain_answers(query: Expr, db: Database, **kwargs) -> Relation:
    """Classical certain answers: the null-free tuples of ``cert(Q, D)``."""
    with_nulls = certain_answers_with_nulls(query, db, **kwargs)
    rows = [row for row in with_nulls.rows if not any(is_null(v) for v in row)]
    return Relation(with_nulls.attributes, rows)


def possible_answer_union(
    query: Expr, db: Database, extra_constants: Optional[int] = None
) -> Set[Row]:
    """``⋃_v Q(v(D))`` over the enumerated valuations (maybe-answers).

    Every valuation counts here, not one per renaming class of the fresh
    constants: the union holds the fresh constants themselves, so it is
    not invariant under renaming them.  Identical worlds still share one
    evaluation.
    """
    world_answers = _WorldAnswers(query, db)
    everything: Set[Row] = set()
    for v in enumerate_valuations(db, extra_constants=extra_constants):
        everything |= world_answers(v)
    return everything


def represents_potential_answers(
    candidate: Relation,
    query: Expr,
    db: Database,
    extra_constants: Optional[int] = None,
) -> bool:
    """Check Definition 3: ``Q(v(D)) ⊆ v(A)`` for every valuation ``v``.

    Used to validate the ``Q?`` side of the improved translation
    (Lemma 2) on small instances.  Renaming the fresh constants maps
    both sides alike, so one valuation per renaming class decides it.
    """
    world_answers = _WorldAnswers(query, db)
    for v in _orbit_valuations(query, db, extra_constants):
        image = {v.apply_row(row) for row in candidate.rows}
        if not world_answers(v) <= image:
            return False
    return True


def false_positives(returned: Relation, certain: Relation) -> List[Row]:
    """Tuples returned by an evaluation that are not certain answers."""
    certain_set = set(certain.rows)
    return [row for row in returned.rows if row not in certain_set]


def false_negatives(returned: Relation, certain: Relation) -> List[Row]:
    """Certain answers missed by an evaluation."""
    returned_set = set(returned.rows)
    return [row for row in certain.rows if row not in returned_set]
