"""Selection conditions: terms, comparisons, null tests, Boolean structure.

The paper's condition language is positive Boolean combinations of
(dis)equalities, closed under negation by pushing ``¬`` to the atoms
(Section 2).  We additionally support order comparisons and ``LIKE``
because the TPC-H queries use them; the translations treat them exactly
like equality/disequality (Section 7, "Translating additional
features").

Two evaluation functions are provided:

* :func:`eval_naive` — Boolean; marked nulls behave as ordinary values,
  so ``⊥ = ⊥`` is true for the *same* null and false otherwise;
* :func:`eval_3vl`  — SQL's three-valued logic; any comparison with a
  null operand is *unknown*.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import FrozenSet, Mapping, Tuple, Union

from repro.data.nulls import is_null
from repro.algebra.threevl import FALSE, TRUE, UNKNOWN, ThreeValued, from_bool

__all__ = [
    "Attr",
    "Const",
    "Term",
    "Comparison",
    "NullTest",
    "And",
    "Or",
    "Not",
    "TrueCond",
    "FalseCond",
    "Condition",
    "eq",
    "neq",
    "negate",
    "attrs_in",
    "eval_naive",
    "eval_3vl",
    "like_match",
    "COMPARISON_OPS",
    "NEGATED_OP",
]

# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Attr:
    """An attribute reference (fully-qualified at algebra level)."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    """A constant literal."""

    value: object

    def __repr__(self) -> str:
        return repr(self.value)


Term = Union[Attr, Const]


def _resolve(term: Term, row: Mapping[str, object]) -> object:
    if isinstance(term, Attr):
        try:
            return row[term.name]
        except KeyError:
            raise KeyError(
                f"attribute {term.name!r} not bound; have {sorted(row)}"
            ) from None
    return term.value


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------

COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=", "like", "not like")

NEGATED_OP = {
    "=": "<>",
    "<>": "=",
    "<": ">=",
    "<=": ">",
    ">": "<=",
    ">=": "<",
    "like": "not like",
    "not like": "like",
}


@dataclass(frozen=True)
class Comparison:
    """``left op right`` where *op* is one of :data:`COMPARISON_OPS`."""

    op: str
    left: Term
    right: Term

    def __post_init__(self):
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class NullTest:
    """``null(term)`` when ``is_null`` else ``const(term)``.

    Corresponds to SQL's ``term IS NULL`` / ``term IS NOT NULL``.
    """

    term: Term
    is_null: bool

    def __repr__(self) -> str:
        name = "null" if self.is_null else "const"
        return f"{name}({self.term!r})"


# ---------------------------------------------------------------------------
# Boolean structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class And:
    items: Tuple["Condition", ...]

    def __init__(self, *items: "Condition"):
        flattened = []
        for item in items:
            if isinstance(item, And):
                flattened.extend(item.items)
            else:
                flattened.append(item)
        object.__setattr__(self, "items", tuple(flattened))

    def __repr__(self) -> str:
        return "(" + " ∧ ".join(map(repr, self.items)) + ")"


@dataclass(frozen=True)
class Or:
    items: Tuple["Condition", ...]

    def __init__(self, *items: "Condition"):
        flattened = []
        for item in items:
            if isinstance(item, Or):
                flattened.extend(item.items)
            else:
                flattened.append(item)
        object.__setattr__(self, "items", tuple(flattened))

    def __repr__(self) -> str:
        return "(" + " ∨ ".join(map(repr, self.items)) + ")"


@dataclass(frozen=True)
class Not:
    item: "Condition"

    def __repr__(self) -> str:
        return f"¬{self.item!r}"


@dataclass(frozen=True)
class TrueCond:
    def __repr__(self) -> str:
        return "⊤"


@dataclass(frozen=True)
class FalseCond:
    def __repr__(self) -> str:
        return "⊥cond"


Condition = Union[Comparison, NullTest, And, Or, Not, TrueCond, FalseCond]


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------


def _term(x: object) -> Term:
    if isinstance(x, (Attr, Const)):
        return x
    if isinstance(x, str):
        return Attr(x)
    return Const(x)


def eq(left: object, right: object) -> Comparison:
    """``left = right``; bare strings are attributes, other values constants."""
    return Comparison("=", _term(left), _term(right))


def neq(left: object, right: object) -> Comparison:
    return Comparison("<>", _term(left), _term(right))


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------


def attrs_in(cond: Condition) -> FrozenSet[str]:
    """All attribute names mentioned in *cond*."""
    if isinstance(cond, Comparison):
        names = set()
        for t in (cond.left, cond.right):
            if isinstance(t, Attr):
                names.add(t.name)
        return frozenset(names)
    if isinstance(cond, NullTest):
        return frozenset({cond.term.name}) if isinstance(cond.term, Attr) else frozenset()
    if isinstance(cond, (And, Or)):
        result: FrozenSet[str] = frozenset()
        for item in cond.items:
            result |= attrs_in(item)
        return result
    if isinstance(cond, Not):
        return attrs_in(cond.item)
    return frozenset()


def negate(cond: Condition) -> Condition:
    """``¬cond`` with the negation pushed down to atoms.

    Comparisons flip their operator (``=`` ↔ ``<>`` etc.), ``null`` and
    ``const`` interchange, and De Morgan's laws apply to ∧/∨ — exactly
    the closure property of the paper's condition language.
    """
    if isinstance(cond, Comparison):
        return Comparison(NEGATED_OP[cond.op], cond.left, cond.right)
    if isinstance(cond, NullTest):
        return NullTest(cond.term, not cond.is_null)
    if isinstance(cond, And):
        return Or(*[negate(c) for c in cond.items])
    if isinstance(cond, Or):
        return And(*[negate(c) for c in cond.items])
    if isinstance(cond, Not):
        return cond.item
    if isinstance(cond, TrueCond):
        return FalseCond()
    if isinstance(cond, FalseCond):
        return TrueCond()
    raise TypeError(f"cannot negate {cond!r}")


# ---------------------------------------------------------------------------
# LIKE
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1024, typed=True)
def _like_regex(pattern: object) -> "re.Pattern[str]":
    """Regex for a ``LIKE`` pattern; a non-text pattern is matched as
    its text, as SQL engines do (``12 LIKE 1`` is false, ``1 LIKE 1``
    true).  Typed cache, so ``1`` and ``True`` do not share a regex."""
    out = []
    for ch in str(pattern):
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


def like_match(value: object, pattern: object) -> bool:
    """SQL ``LIKE`` with ``%`` and ``_`` wildcards, over the text of
    both operands."""
    return _like_regex(pattern).match(str(value)) is not None


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _compare_constants(op: str, a: object, b: object) -> bool:
    if op == "=":
        return a == b
    if op == "<>":
        return a != b
    if op == "like":
        return like_match(a, b)
    if op == "not like":
        return not like_match(a, b)
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    raise ValueError(f"unknown operator {op!r}")  # pragma: no cover


def eval_naive(cond: Condition, row: Mapping[str, object]) -> bool:
    """Naive (marked-null) Boolean evaluation.

    ``⊥ = c`` is false; ``⊥ = ⊥'`` is true iff the two nulls are the
    same element of ``Null``; ``⊥ <> x`` is the complement of equality.
    Order comparisons and ``LIKE`` involving a null are false — the
    theoretical development only uses (dis)equalities on nulls, and this
    choice keeps naive evaluation monotone for the positive fragment.
    """
    if isinstance(cond, TrueCond):
        return True
    if isinstance(cond, FalseCond):
        return False
    if isinstance(cond, And):
        return all(eval_naive(c, row) for c in cond.items)
    if isinstance(cond, Or):
        return any(eval_naive(c, row) for c in cond.items)
    if isinstance(cond, Not):
        return not eval_naive(cond.item, row)
    if isinstance(cond, NullTest):
        value = _resolve(cond.term, row)
        return is_null(value) == cond.is_null
    if isinstance(cond, Comparison):
        a = _resolve(cond.left, row)
        b = _resolve(cond.right, row)
        if cond.op == "=":
            return a == b  # marked-null label equality
        if cond.op == "<>":
            return a != b
        if is_null(a) or is_null(b):
            return False
        return _compare_constants(cond.op, a, b)
    raise TypeError(f"cannot evaluate {cond!r}")


def eval_3vl(cond: Condition, row: Mapping[str, object]) -> ThreeValued:
    """SQL three-valued evaluation (``EvalSQL`` semantics)."""
    if isinstance(cond, TrueCond):
        return TRUE
    if isinstance(cond, FalseCond):
        return FALSE
    if isinstance(cond, And):
        result = TRUE
        for c in cond.items:
            v = eval_3vl(c, row)
            if v is FALSE:
                return FALSE
            if v is UNKNOWN:
                result = UNKNOWN
        return result
    if isinstance(cond, Or):
        result = FALSE
        for c in cond.items:
            v = eval_3vl(c, row)
            if v is TRUE:
                return TRUE
            if v is UNKNOWN:
                result = UNKNOWN
        return result
    if isinstance(cond, Not):
        return ~eval_3vl(cond.item, row)
    if isinstance(cond, NullTest):
        value = _resolve(cond.term, row)
        return from_bool(is_null(value) == cond.is_null)
    if isinstance(cond, Comparison):
        a = _resolve(cond.left, row)
        b = _resolve(cond.right, row)
        if is_null(a) or is_null(b):
            return UNKNOWN
        return from_bool(_compare_constants(cond.op, a, b))
    raise TypeError(f"cannot evaluate {cond!r}")
