"""Static inference of output attributes for algebra expressions.

The translations of Figures 2 and 3 need to know the arity and
attribute names of every subexpression *without* evaluating it (e.g. to
build ``adom^ar(Q)`` or to check semijoin compatibility).  This module
derives them from a name → attributes lookup, which can be a
:class:`~repro.data.database.Database`, a
:class:`~repro.data.schema.DatabaseSchema`, or a plain dict.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple, Union as TUnion

from repro.algebra.expr import (
    AdomPower,
    AntiJoin,
    Difference,
    Division,
    Expr,
    Intersection,
    Join,
    Literal,
    Product,
    Projection,
    RelationRef,
    Rename,
    Selection,
    SemiJoin,
    Union,
    UnifAntiJoin,
    UnifSemiJoin,
)
from repro.data.database import Database
from repro.data.schema import DatabaseSchema

__all__ = ["output_attributes", "arity_of", "attribute_lookup"]

Lookup = Callable[[str], Tuple[str, ...]]


def attribute_lookup(source: TUnion[Database, DatabaseSchema, Dict[str, Tuple[str, ...]]]) -> Lookup:
    """Normalise a schema source into a ``name -> attributes`` function."""
    if isinstance(source, Database):
        def lookup(name: str) -> Tuple[str, ...]:
            return source[name].attributes
        return lookup
    if isinstance(source, DatabaseSchema):
        def lookup(name: str) -> Tuple[str, ...]:
            return source[name].attribute_names
        return lookup
    if isinstance(source, dict):
        def lookup(name: str) -> Tuple[str, ...]:
            return tuple(source[name])
        return lookup
    raise TypeError(f"cannot derive attribute lookup from {type(source).__name__}")


def output_attributes(expr: Expr, source) -> Tuple[str, ...]:
    """Attribute names of the relation *expr* evaluates to."""
    lookup = source if callable(source) else attribute_lookup(source)
    return _infer(expr, lookup)


def arity_of(expr: Expr, source) -> int:
    return len(output_attributes(expr, source))


def _infer(expr: Expr, lookup: Lookup) -> Tuple[str, ...]:
    if isinstance(expr, RelationRef):
        return tuple(lookup(expr.name))
    if isinstance(expr, Literal):
        return expr.relation.attributes
    if isinstance(expr, AdomPower):
        return expr.attributes
    if isinstance(expr, Selection):
        return _infer(expr.child, lookup)
    if isinstance(expr, Projection):
        return expr.attributes
    if isinstance(expr, Rename):
        mapping = expr.mapping_dict()
        return tuple(mapping.get(a, a) for a in _infer(expr.child, lookup))
    if isinstance(expr, (Product, Join)):
        return _infer(expr.left, lookup) + _infer(expr.right, lookup)
    if isinstance(expr, (Union, Intersection, Difference)):
        return _infer(expr.left, lookup)
    if isinstance(expr, (SemiJoin, AntiJoin, UnifSemiJoin, UnifAntiJoin)):
        return _infer(expr.left, lookup)
    if isinstance(expr, Division):
        left = _infer(expr.left, lookup)
        right = set(_infer(expr.right, lookup))
        return tuple(a for a in left if a not in right)
    raise TypeError(f"cannot infer attributes of {type(expr).__name__}")
