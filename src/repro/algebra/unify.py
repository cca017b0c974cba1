"""Tuple unification (Definition 2) and the unification join condition.

Two tuples ``r̄`` and ``s̄`` of the same length are *unifiable*
(``r̄ ⇑ s̄``) if some valuation of nulls makes them equal.  With marked
nulls this is a unification problem: build the equivalence classes
induced by the positional equalities and check that no class contains
two distinct constants.

For Codd nulls (no repetition) the check degenerates to the per-position
test "equal constants, or at least one null" — but the general algorithm
below is correct for both, and the paper's translations are stated for
the general case.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.data.nulls import Null, is_null

__all__ = ["unifiable", "unify_rows", "positionwise_unifiable"]


class _UnionFind:
    """Tiny union-find over hashable items."""

    def __init__(self) -> None:
        self.parent: Dict[object, object] = {}

    def find(self, x: object) -> object:
        parent = self.parent
        parent.setdefault(x, x)
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    def union(self, a: object, b: object) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def unifiable(r: Sequence[object], s: Sequence[object]) -> bool:
    """Return ``True`` iff ``r ⇑ s`` (some valuation makes them equal)."""
    if len(r) != len(s):
        return False
    uf: Optional[_UnionFind] = None
    mixed = []  # constants unioned with a null
    for a, b in zip(r, s):
        a_null, b_null = isinstance(a, Null), isinstance(b, Null)
        if not a_null and not b_null:
            if a != b:
                return False
            continue
        if uf is None:  # the first null: null-free pairs never get here
            uf = _UnionFind()
        uf.union(_key(a), _key(b))
        if a_null != b_null:
            mixed.append(b if a_null else a)
    if uf is None:  # null-free: equal at every position
        return True
    # A class with two distinct constants is contradictory.  A constant
    # joins another's class only through a null, so the constants
    # unioned with a null are the only ones to check.
    constant_of: Dict[object, object] = {}
    for v in mixed:
        if constant_of.setdefault(uf.find(_key(v)), v) != v:
            return False
    return True


def _key(value: object) -> object:
    """Union-find key: nulls by identity-label, constants tagged."""
    if is_null(value):
        return ("⊥", value.label)
    return ("c", value)


def unify_rows(
    r: Sequence[object], s: Sequence[object]
) -> Optional[Dict[Null, object]]:
    """A most-general unifier as a partial valuation, or ``None``.

    Nulls forced to a constant map to that constant; nulls only equated
    with other nulls map to a representative null of their class (so the
    returned mapping is not a valuation in the strict sense, but it
    witnesses unifiability and is convenient for diagnostics).
    """
    if len(r) != len(s):
        return None
    if not unifiable(r, s):
        return None
    uf = _UnionFind()
    for a, b in zip(r, s):
        if is_null(a) or is_null(b):
            uf.union(_key(a), _key(b))
    constant_of: Dict[object, object] = {}
    null_of: Dict[object, Null] = {}
    for a, b in zip(r, s):
        for v in (a, b):
            root = uf.find(_key(v))
            if is_null(v):
                null_of.setdefault(root, v)
            else:
                constant_of[root] = v
    mapping: Dict[Null, object] = {}
    for a, b in zip(r, s):
        for v in (a, b):
            if is_null(v):
                root = uf.find(_key(v))
                mapping[v] = constant_of.get(root, null_of[root])
    return mapping


def positionwise_unifiable(r: Sequence[object], s: Sequence[object]) -> bool:
    """The Codd-null shortcut: per position, equal or at least one null.

    Sound and complete when no null repeats across the two tuples; an
    over-approximation of :func:`unifiable` otherwise (it may declare
    unifiable a pair that marked-null semantics rejects -- acceptable in
    the translations by Corollary 1, which allows weakening the ``Q?``
    side).
    """
    if len(r) != len(s):
        return False
    for a, b in zip(r, s):
        if is_null(a) or is_null(b):
            continue
        if a != b:
            return False
    return True
