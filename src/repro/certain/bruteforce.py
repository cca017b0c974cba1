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

Because that role includes serving as an *anytime* oracle under harness
deadlines, the search is **best-first**: each candidate is probed
against a small sample of worlds, and since any rejecting world is a
proof of non-certainty, sample survivors stream straight into
verification while refuted candidates are dropped with a certificate
(huge pools fall back to plain seeding order); rejecting worlds are
promoted by their observed kill rate so doomed survivors die at their
first check.
A tuple is only ever emitted after surviving every world, so a
deadline- or cancellation-cut result is always a sound subset of
``cert(Q, D)`` — and a *richer* subset than the eager enumeration
order yields in the same time.
``order="eager"`` restores the legacy exploration order for A/B runs;
``progress=`` streams confirmed tuples as they are found; ``cancel=``
accepts a :class:`~repro.engine.limits.CancelToken` another thread may
fire.

The classical null-free certain answers are the null-free tuples of
``cert(Q, D)`` (also Section 2), exposed as :func:`certain_answers`.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.algebra.conditions import And, Comparison, Not, Or
from repro.algebra.evaluate import evaluate
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
    search actually examined; ``world_checks`` counts candidate-vs-world
    membership tests in the verification loop (each candidate
    short-circuits at its first rejecting world).  ``complete`` is
    ``False`` when a ``deadline=`` or a fired ``cancel=`` token cut the
    search short (the result is then a sound subset of ``cert(Q, D)``);
    ``cancelled`` distinguishes the token case.  ``elapsed`` is the
    wall-clock time of the call.

    Best-first ordering counters: ``strategy`` names the exploration
    order (``"best-first"`` or ``"eager"``); ``sampled_worlds`` is how
    many worlds the plausibility filter probed; ``score_probes`` counts
    those scoring membership tests (kept out of ``world_checks`` so the
    pruning invariants stay comparable across orders);
    ``sample_refuted`` counts candidates a sampled world rejected — each
    such probe is a sound refutation certificate, so those candidates
    skip the verification loop entirely; ``world_reorders`` counts
    promotions of a killing world to the front of the rejecting-world
    queue.  ``emitted`` is the number of confirmed
    tuples streamed (equals the result size).  ``world_elapsed`` is the
    time spent evaluating the query on every possible world — a fixed
    preamble both exploration orders pay identically before any tuple
    *can* be confirmed (no emission without all worlds), so anytime
    benchmarks budget against ``elapsed - world_elapsed``.

    World counters: ``worlds`` is how many valuations the world phase
    checked — one per renaming class of the fresh constants, or every
    valuation for a query with ``LIKE`` — and ``world_evals`` how many
    times the query was evaluated for them (identical worlds share one
    evaluation, so ``world_evals <= worlds``).
    """

    arity: int = 0
    pruned: bool = True
    exhaustive_candidates: int = 0
    candidates_considered: int = 0
    world_checks: int = 0
    complete: bool = True
    elapsed: float = 0.0
    world_elapsed: float = 0.0
    strategy: str = "best-first"
    sampled_worlds: int = 0
    score_probes: int = 0
    sample_refuted: int = 0
    world_reorders: int = 0
    cancelled: bool = False
    emitted: int = 0
    worlds: int = 0
    world_evals: int = 0

    def summary(self) -> Dict[str, object]:
        """JSON-serialisable counter dump (checkpoint/bench payloads)."""
        return {
            "strategy": self.strategy,
            "arity": self.arity,
            "pruned": self.pruned,
            "exhaustive_candidates": self.exhaustive_candidates,
            "candidates_considered": self.candidates_considered,
            "world_checks": self.world_checks,
            "score_probes": self.score_probes,
            "sample_refuted": self.sample_refuted,
            "sampled_worlds": self.sampled_worlds,
            "world_reorders": self.world_reorders,
            "complete": self.complete,
            "cancelled": self.cancelled,
            "emitted": self.emitted,
            "worlds": self.worlds,
            "world_evals": self.world_evals,
            "elapsed": self.elapsed,
            "world_elapsed": self.world_elapsed,
        }


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


def _candidate_tuples(db: Database, arity: int, extra: Iterable[Row] = ()) -> Set[Row]:
    """Candidate answers: all tuples over ``adom(D)`` of the given arity.

    Exponential in the arity — fine for the unit-test scale this module
    targets.  ``extra`` lets callers seed known candidates (e.g. tuples
    already returned by some evaluation) without paying for a larger
    domain.
    """
    domain = sorted(db.active_domain(), key=repr)
    candidates = set(itertools.product(domain, repeat=arity))
    candidates.update(tuple(row) for row in extra)
    return candidates


def _seed_candidates(
    db: Database, first_world: Tuple[Valuation, Set[Row]]
) -> List[Row]:
    """Candidates over ``adom(D)`` whose image lies in the first world's
    answers — the only tuples that can possibly be certain.

    For the first valuation ``v`` the certain answers satisfy
    ``v(ā) ∈ Q(v(D))``, so instead of enumerating ``adom^arity`` we take
    the preimage of the first world's answer set under ``v``: at each
    position of an answer row the candidate may hold any domain element
    mapping to that constant (the constant itself if it is in the
    domain, plus every null ``v`` sends there).

    The returned list is deduplicated in a deterministic generation
    order — answer rows in canonical sorted order, pool positions in
    sorted active-domain order — which doubles as the ``"eager"``
    exploration order.  (Generation order beats a global ``repr`` sort,
    whose string building dominated seeding on pool-heavy instances.)
    """
    v, rows = first_world
    preimage: Dict[object, List[object]] = {}
    for x in sorted(db.active_domain(), key=repr):
        preimage.setdefault(v(x), []).append(x)
    candidates: Dict[Row, None] = {}
    for row in sorted(rows, key=repr):
        pools = [preimage.get(value) for value in row]
        if any(pool is None for pool in pools):
            continue  # some output constant is outside adom's image
        # dict.fromkeys + update runs the dedup at C speed; new keys keep
        # product order, repeats keep their first position — exactly the
        # setdefault semantics, several times faster on big pools.
        candidates.update(dict.fromkeys(itertools.product(*pools)))
    return list(candidates)


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
    immaterial, since evaluation is set-semantic.
    """
    added = iter(key)
    relations: Dict[str, Relation] = {}
    for name, attrs, complete, incomplete in layout:
        if incomplete:
            relations[name] = Relation(attrs, itertools.chain(complete, next(added)))
        else:
            relations[name] = db.relations[name]
    return Database(relations, schema=db.schema)


class _WorldAnswers:
    """``Q(v(D))`` per valuation, evaluating each distinct world once.

    Evaluation is set-semantic, so ``Q(W)`` depends only on each
    relation's row set.  The :func:`_world_key` fixes those row sets,
    and with them ``adom(W)`` (so ``AdomPower`` is covered too);
    valuations with equal keys share one evaluation and one answer set.
    ``evals`` counts the evaluations that actually ran; ``attributes``
    are the answer attributes, known after the first call.
    """

    def __init__(self, query: Expr, db: Database):
        self.query = query
        self.db = db
        self.layout = _world_layout(db)
        self.evals = 0
        self.attributes: Tuple[str, ...] = ()
        self._answers: Dict[_WorldKey, Set[Row]] = {}

    def __call__(self, v: Valuation) -> Set[Row]:
        """The answer rows on ``v(D)``."""
        key = _world_key(self.layout, v)
        rows = self._answers.get(key)
        if rows is None:
            world = _apply_world(self.db, self.layout, key)
            result = evaluate(self.query, world, semantics="naive")
            self.attributes = result.attributes
            rows = self._answers[key] = set(result.rows)
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
    candidates: List[Row],
    worlds: List[Tuple[Valuation, Set[Row]]],
    stats: "SearchStats",
    cutoff: Optional[float],
    cancel: Optional[CancelToken],
) -> Iterable[Tuple[Row, List[int]]]:
    """Yield plausible ``(candidate, null_positions)`` pairs, best first.

    Each candidate is probed against an evenly spaced sample of *worlds*
    until its first rejection.  A candidate admitted by every sampled
    world — the plausibly-certain kind — is yielded *immediately*, so
    confirmation starts streaming after microseconds instead of waiting
    behind a global ordering pass (whose up-front cost would eat exactly
    the tight-deadline budget the ordering exists to serve).  A
    candidate a sampled world rejects needs no further attention at all:
    the probe *is* a world membership test, so the rejecting world is a
    certificate that the candidate is not certain.  It is counted in
    ``stats.sample_refuted`` and dropped — the expensive verification
    loop only ever sees sample survivors.

    The sample shrinks as the candidate pool grows so total probes stay
    under :data:`SCORE_PROBE_BUDGET` (early exit keeps the spend far
    lower in practice).  With no worlds, a single candidate, or a pool
    so large that not even one probe per candidate fits the budget,
    candidates stream unscored in seeding order and all of them are
    verified.

    Either way no candidate is ever dropped *unexamined*, so soundness
    and completeness are untouched.  After a deadline or cancellation
    hit the remainder streams unscored in seeding order — the
    verification loop is about to stop at its own check anyway.
    """
    n = len(candidates)
    sample_size = (
        min(SCORE_SAMPLE_WORLDS, len(worlds), SCORE_PROBE_BUDGET // n) if n > 1 else 0
    )
    if sample_size <= 0:
        for candidate in candidates:
            yield candidate, [
                i for i, value in enumerate(candidate) if is_null(value)
            ]
        return
    out_of_budget = False
    position = 0
    ticks = _CLOCK_EVERY  # first candidate reads the clock
    step = max(1, len(worlds) // sample_size)
    sample = worlds[::step][:sample_size]
    stats.sampled_worlds = full = len(sample)
    for position, candidate in enumerate(candidates):
        if cancel is not None and cancel.cancelled:
            out_of_budget = True
        elif cutoff is not None:
            ticks += 1
            if ticks >= _CLOCK_EVERY:
                ticks = 0
                if time.monotonic() > cutoff:
                    out_of_budget = True
        if out_of_budget:
            break
        null_pos = [i for i, value in enumerate(candidate) if is_null(value)]
        hits = 0
        if null_pos:
            image = list(candidate)
            for v, rows in sample:
                stats.score_probes += 1
                mapping = v.mapping
                for i in null_pos:
                    image[i] = mapping[candidate[i]]
                if tuple(image) not in rows:
                    break
                hits += 1
        else:
            for _v, rows in sample:
                stats.score_probes += 1
                if candidate not in rows:
                    break
                hits += 1
        if hits == full:
            yield candidate, null_pos
        else:
            stats.sample_refuted += 1
    if out_of_budget:
        for candidate in candidates[position:]:
            yield candidate, [
                i for i, value in enumerate(candidate) if is_null(value)
            ]


def certain_answers_with_nulls(
    query: Expr,
    db: Database,
    attributes: Optional[Tuple[str, ...]] = None,
    extra_constants: Optional[int] = None,
    prune: bool = True,
    deadline: Optional[float] = None,
    deadline_scope: str = "call",
    order: str = "best-first",
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

    With ``prune=True`` (the default) the candidate set is seeded from
    the first world's answers instead of all of ``adom^arity``, and each
    candidate is abandoned at the first world that rejects it; the
    result is provably identical to the exhaustive search
    (``prune=False``), which is kept for cross-checking.  Search effort
    is reported in :data:`LAST_SEARCH`.

    ``order`` picks the exploration order.  ``"best-first"`` (default)
    verifies plausible candidates first — scored by survival in a small
    world sample plus answer-frequency signals — and promotes rejecting
    worlds by kill rate; ``"eager"`` keeps the deterministic seeding
    order (answer-row-major, pool-minor).
    The *returned* relation lists confirmed tuples in the canonical
    sorted order either way, so complete searches are row-identical
    across orders; the exploration order only decides *which* sound
    subset survives a cut.

    ``deadline`` (seconds) makes the search *anytime*: when the budget
    runs out, the sound subset of certain answers confirmed so far is
    returned — a tuple is only ever emitted after surviving **every**
    world, so partial results contain no false positives (they may miss
    certain answers).  ``deadline_scope`` says what the budget covers:
    ``"call"`` (default) counts from call entry, ``"search"`` starts the
    clock after the world-evaluation preamble — a fixed cost both
    exploration orders pay identically before any tuple *can* be
    confirmed, whose run-to-run jitter would otherwise drown tight
    budgets (anytime benchmarks compare orders this way).  ``cancel``
    accepts a
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
    if order not in ("best-first", "eager"):
        raise ValueError(f"unknown search order {order!r}")
    if deadline_scope not in ("call", "search"):
        raise ValueError(f"unknown deadline scope {deadline_scope!r}")
    start = time.monotonic()
    search_scoped = deadline_scope == "search"
    # A search-scoped budget leaves the world preamble unmetered; its
    # cutoff is fixed only once the preamble's actual cost is known.
    cutoff = None if deadline is None or search_scoped else start + deadline
    # One world per renaming class of the fresh constants; identical
    # worlds share one evaluation.
    world_answers = _WorldAnswers(query, db)
    worlds: List[Tuple[Valuation, Set[Row]]] = []
    result_attrs: Optional[Tuple[str, ...]] = attributes
    cancelled = False
    timed_out = False
    for v in _orbit_valuations(query, db, extra_constants):
        if cancel is not None and cancel.cancelled:
            cancelled = True
            if worlds:
                break
        if cutoff is not None and worlds and time.monotonic() > cutoff:
            # Without every world no candidate can be *confirmed*
            # certain; the sound subset at this point is empty.  (The
            # first world is always evaluated so the result relation
            # keeps its attributes.)
            timed_out = True
            break
        worlds.append((v, world_answers(v)))
        if result_attrs is None:
            result_attrs = world_answers.attributes
        if cancelled:
            break
    if result_attrs is None:  # pragma: no cover - no valuations is impossible
        raise RuntimeError("no valuations produced")
    world_elapsed = time.monotonic() - start
    if deadline is not None and search_scoped:
        cutoff = start + world_elapsed + deadline
    arity = len(result_attrs)
    stats = SearchStats(
        arity=arity,
        pruned=prune,
        exhaustive_candidates=len(db.active_domain()) ** arity,
        strategy=order,
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
    if prune:
        # Seeding already enforces membership in the first world.
        candidates = _seed_candidates(db, worlds[0])
        remaining = worlds[1:]
    else:
        candidates = sorted(_candidate_tuples(db, arity), key=repr)
        remaining = worlds
    stats.candidates_considered = len(candidates)
    best_first = order == "best-first"
    if best_first:
        candidate_iter: Iterable[Tuple[Row, List[int]]] = _best_first_stream(
            candidates, remaining, stats, cutoff, cancel
        )
    else:
        candidate_iter = (
            (c, [i for i, value in enumerate(c) if is_null(value)])
            for c in candidates
        )
    # Mutable [kills, valuation, rows] entries so the rejecting-world
    # queue can be promoted as worlds prove their kill power.
    queue: List[List[object]] = [[0, v, rows] for v, rows in remaining]
    certain: List[Row] = []
    ticks = _CLOCK_EVERY  # first candidate reads the clock
    for candidate, null_pos in candidate_iter:
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
                if best_first and index:
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
    # Canonical order regardless of exploration order: complete searches
    # are row-identical across strategies, partial ones deterministic.
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
