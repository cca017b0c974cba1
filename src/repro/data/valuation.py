"""Valuations of nulls: maps ``Null(D) → Const`` and their enumeration.

Under the closed-world, missing-value interpretation the semantics of an
incomplete database ``D`` is ``{v(D) | v a valuation}``.  Certain
answers quantify over *all* valuations — an infinite set — but for
first-order queries genericity lets us restrict attention to valuations
into ``Const(D)`` extended with one fresh constant per null: any two
valuations with the same equality pattern on that domain produce the
same (isomorphic) complete database, and FO queries cannot distinguish
isomorphic databases beyond the constants they mention.  The brute-force
layer in :mod:`repro.certain` relies on this.

Genericity goes one step further.  Renaming the fresh constants among
themselves (a permutation ``π`` fixing ``Const(D)``) maps the world
``v(D)`` to the isomorphic world ``(π∘v)(D)``, and a query that compares
fresh constants only by equality answers the renamed world with the
renamed answers.  :func:`canonical_valuations` therefore yields one
valuation per renaming class: walking the sorted nulls, the next fresh
constant used is always the lowest one not used yet.  It enumerates in
the same order as :func:`enumerate_valuations`, skipping the
non-canonical valuations, so both start with the same valuation.
Queries that *can* tell fresh constants apart (``LIKE`` reads their
string form) need :func:`enumerate_valuations` itself.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.data.database import Database
from repro.data.nulls import Null, is_null
from repro.data.relation import Relation

__all__ = [
    "Valuation",
    "enumerate_valuations",
    "canonical_valuations",
    "sample_valuations",
    "fresh_constants",
]


class Valuation:
    """A total map from a set of nulls to constants."""

    __slots__ = ("mapping",)

    def __init__(self, mapping: Dict[Null, object]):
        for null, value in mapping.items():
            if not is_null(null):
                raise TypeError(f"valuation key {null!r} is not a null")
            if is_null(value):
                raise TypeError(f"valuation value {value!r} is not a constant")
        self.mapping = dict(mapping)

    @classmethod
    def _unchecked(cls, mapping: Dict[Null, object]) -> "Valuation":
        """Wrap *mapping* as is.  For enumerators whose keys are the
        database's nulls and whose values are constants by construction;
        the checks in ``__init__`` dominate enumerating small domains."""
        valuation = cls.__new__(cls)
        valuation.mapping = mapping
        return valuation

    def __call__(self, value: object) -> object:
        """Apply to a single value: nulls map through, constants fixed."""
        if is_null(value):
            try:
                return self.mapping[value]
            except KeyError:
                raise KeyError(f"valuation is not defined on {value!r}") from None
        return value

    def apply_row(self, row: Sequence[object]) -> Tuple[object, ...]:
        return tuple(self(v) for v in row)

    def apply_relation(self, relation: Relation) -> Relation:
        return Relation(
            relation.attributes, (self.apply_row(row) for row in relation.rows)
        )

    def apply_database(self, db: Database) -> Database:
        return db.map_rows(self.apply_row)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k!r}→{v!r}" for k, v in self.mapping.items())
        return f"Valuation({pairs})"


class _Fresh:
    """A constant guaranteed not to collide with database constants."""

    __slots__ = ("tag", "_hash")

    def __init__(self, tag: int):
        self.tag = tag
        self._hash = hash(("fresh", tag))  # cached: hot in world answer sets

    def __eq__(self, other):
        return isinstance(other, _Fresh) and self.tag == other.tag

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"c•{self.tag}"


def fresh_constants(count: int) -> List[object]:
    """*count* pairwise-distinct constants outside any database domain."""
    return [_Fresh(i) for i in range(count)]


def _default_domain(
    db: Database, extra_constants: Optional[int]
) -> Tuple[List[Null], List[object], List[object]]:
    """Sorted nulls, sorted ``Const(D)`` and the fresh constants.

    ``extra_constants`` defaults to one fresh constant per null, the
    generic sufficiency bound.  A database without constants gets at
    least one fresh constant, so every null has a value.
    """
    nulls = sorted(db.nulls(), key=lambda n: repr(n.label))
    if extra_constants is None:
        extra_constants = len(nulls)
    constants = sorted(db.constants(), key=repr)
    if not constants and not extra_constants:
        extra_constants = 1
    return nulls, constants, fresh_constants(extra_constants)


def enumerate_valuations(
    db: Database,
    extra_constants: Optional[int] = None,
    domain: Optional[Iterable[object]] = None,
) -> Iterator[Valuation]:
    """All valuations of ``Null(D)`` into a finite, sufficient domain.

    The domain defaults to ``Const(D)`` plus ``extra_constants`` fresh
    values (default: one per null, the generic sufficiency bound).  The
    number of valuations is ``|domain| ** |Null(D)|`` — intended for the
    small instances used as ground truth in tests and experiments.
    """
    nulls, constants, fresh = _default_domain(db, extra_constants)
    if not nulls:
        yield Valuation({})
        return
    if domain is None:
        domain_list = constants + fresh
    else:
        domain_list = list(domain) or fresh_constants(1)
    for combo in itertools.product(domain_list, repeat=len(nulls)):
        yield Valuation(dict(zip(nulls, combo)))


def canonical_valuations(
    db: Database, extra_constants: Optional[int] = None
) -> Iterator[Valuation]:
    """One valuation per renaming class of the fresh constants.

    Same domain and order as :func:`enumerate_valuations`, but a null
    may take a fresh constant only if every lower fresh constant is
    already used by an earlier null.  With ``n`` nulls, ``b`` constants
    and ``m`` fresh constants that leaves
    ``Σ_k C(n, k) · b^(n−k) · #partitions(k into ≤ m blocks)``
    valuations instead of ``(b + m)^n``.
    """
    nulls, constants, fresh = _default_domain(db, extra_constants)
    combo: List[object] = []

    def extend(used: int) -> Iterator[Valuation]:
        if len(combo) == len(nulls):
            yield Valuation._unchecked(dict(zip(nulls, combo)))
            return
        for value in constants:
            combo.append(value)
            yield from extend(used)
            combo.pop()
        for tag in range(min(used + 1, len(fresh))):
            combo.append(fresh[tag])
            yield from extend(max(used, tag + 1))
            combo.pop()

    yield from extend(0)


def sample_valuations(
    db: Database,
    count: int,
    rng: Optional[random.Random] = None,
    extra_constants: int = 2,
) -> Iterator[Valuation]:
    """Random valuations (for probabilistic property tests)."""
    rng = rng or random.Random(0)
    nulls, constants, fresh = _default_domain(db, extra_constants)
    domain = constants + fresh
    for _ in range(count):
        yield Valuation({n: rng.choice(domain) for n in nulls})
