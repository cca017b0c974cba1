"""The key rule, a post-translation simplification (Section 7).

If ``R`` has a (non-null) primary key and ``S ⊆ R``, then
``R ▷⇑ S = R − S``: two distinct tuples of ``R`` cannot unify, as their
keys would have to coincide.  This is exactly the observation the paper
uses to turn the translated ``Q+3`` into a plain ``NOT EXISTS`` query.
Containment ``S ⊆ R`` is established by a conservative structural
analysis (selections, intersections and differences preserve it; a
projection of a product onto ``R``'s attributes yields tuples of ``R``;
and so on).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.algebra.expr import (
    AntiJoin,
    Difference,
    Expr,
    Intersection,
    Join,
    Product,
    Projection,
    RelationRef,
    Selection,
    SemiJoin,
    Union,
    UnifAntiJoin,
    UnifSemiJoin,
)
from repro.data.schema import DatabaseSchema

__all__ = ["key_antijoin_to_difference"]


# ---------------------------------------------------------------------------
# Structural containment for the key rule
# ---------------------------------------------------------------------------


def _is_base(expr: Expr, name: str) -> bool:
    return isinstance(expr, RelationRef) and expr.name == name


def _contained_in(expr: Expr, name: str, attrs: Tuple[str, ...]) -> bool:
    """Conservatively decide ``expr ⊆ R`` for base relation ``R = name``.

    ``attrs`` are ``R``'s attribute names; a projection counts only if
    it re-emits exactly those attributes in order.
    """
    if _is_base(expr, name):
        return True
    if isinstance(expr, Selection):
        return _contained_in(expr.child, name, attrs)
    if isinstance(expr, Difference):
        return _contained_in(expr.left, name, attrs)
    if isinstance(expr, Intersection):
        return _contained_in(expr.left, name, attrs) or _contained_in(
            expr.right, name, attrs
        )
    if isinstance(expr, Union):
        return _contained_in(expr.left, name, attrs) and _contained_in(
            expr.right, name, attrs
        )
    if isinstance(expr, (SemiJoin, AntiJoin, UnifSemiJoin, UnifAntiJoin)):
        return _contained_in(expr.left, name, attrs)
    if isinstance(expr, Projection):
        if expr.attributes != attrs:
            return False
        return _product_contains(expr.child, name, attrs)
    return False


def _product_contains(expr: Expr, name: str, attrs: Tuple[str, ...]) -> bool:
    """Does ``expr`` contain base ``R`` as a product/join factor, so that
    projecting onto ``R``'s attributes yields a subset of ``R``?"""
    if _is_base(expr, name):
        return True
    if isinstance(expr, Selection):
        return _product_contains(expr.child, name, attrs)
    if isinstance(expr, (Product, Join)):
        return _product_contains(expr.left, name, attrs) or _product_contains(
            expr.right, name, attrs
        )
    if isinstance(expr, (SemiJoin, AntiJoin, UnifSemiJoin, UnifAntiJoin)):
        return _product_contains(expr.left, name, attrs)
    if isinstance(expr, Projection):
        if set(attrs) <= set(expr.attributes):
            return _product_contains(expr.child, name, attrs)
        return False
    return False


def key_antijoin_to_difference(
    expr: Expr, schema: DatabaseSchema
) -> Optional[Difference]:
    """Apply ``R ▷⇑ S → R − S`` if the side conditions hold, else ``None``."""
    if not isinstance(expr, UnifAntiJoin):
        return None
    left = expr.left
    if not isinstance(left, RelationRef):
        return None
    rel_schema = schema.get(left.name)
    if rel_schema is None or not rel_schema.key:
        return None
    if _contained_in(expr.right, left.name, rel_schema.attribute_names):
        return Difference(expr.left, expr.right)
    return None
