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

Both read a row by attribute name.  Their one implementation is the
position-bound form, :func:`bind_naive` / :func:`bind_3vl`: a condition
bound once to a row layout, then called per row tuple, which is how the
algebra evaluator runs selections and joins.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

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
    "bind_naive",
    "bind_3vl",
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

Row = Tuple[object, ...]

#: How two constants compare under each operator.
_CONSTANT_OPS: Dict[str, Callable[[object, object], object]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "like": like_match,
    "not like": lambda a, b: not like_match(a, b),
}


def _naive_comparison(op: str) -> Callable[[object, object], bool]:
    if op in ("=", "<>"):
        return _CONSTANT_OPS[op]  # type: ignore[return-value]  # label equality
    compare = _CONSTANT_OPS[op]

    def test(a: object, b: object) -> bool:
        if is_null(a) or is_null(b):
            return False
        return bool(compare(a, b))

    return test


def _3vl_comparison(op: str) -> Callable[[object, object], ThreeValued]:
    compare = _CONSTANT_OPS[op]

    def test(a: object, b: object) -> ThreeValued:
        if is_null(a) or is_null(b):
            return UNKNOWN
        return TRUE if compare(a, b) else FALSE

    return test


class _Binder:
    """Compiles a condition into a closure over rows of fixed layout.

    Each attribute is looked up once, at bind time; the closure reads
    row positions.  ``naive`` selects the Boolean semantics, else SQL's
    three-valued one.
    """

    def __init__(self, attributes: Sequence[str], naive: bool):
        self.attributes = attributes
        self.positions = {name: i for i, name in enumerate(attributes)}
        self.naive = naive

    def slot(self, term: Term) -> Tuple[Optional[int], object]:
        """``(position, None)`` for an attribute, ``(None, value)`` for a
        constant."""
        if isinstance(term, Attr):
            try:
                return self.positions[term.name], None
            except KeyError:
                raise KeyError(
                    f"attribute {term.name!r} not bound; have {sorted(self.attributes)}"
                ) from None
        return None, term.value

    def constant(self, truth: bool) -> Callable[[Row], object]:
        value = truth if self.naive else from_bool(truth)
        return lambda row: value

    def bind(self, cond: Condition) -> Callable[[Row], object]:
        naive = self.naive
        if isinstance(cond, (TrueCond, FalseCond)):
            return self.constant(isinstance(cond, TrueCond))
        if isinstance(cond, (And, Or)):
            return self.connective(cond)
        if isinstance(cond, Not):
            inner = self.bind(cond.item)
            if naive:
                return lambda row: not inner(row)
            return lambda row: ~inner(row)  # type: ignore[operator]
        if isinstance(cond, NullTest):
            i, const = self.slot(cond.term)
            want = cond.is_null
            if i is None:
                return self.constant(is_null(const) == want)
            if naive:
                return lambda row: is_null(row[i]) == want
            return lambda row: TRUE if is_null(row[i]) == want else FALSE
        if isinstance(cond, Comparison):
            test = (_naive_comparison if naive else _3vl_comparison)(cond.op)
            i, a = self.slot(cond.left)
            j, b = self.slot(cond.right)
            if i is not None and j is not None:
                return lambda row: test(row[i], row[j])
            if i is not None:
                return lambda row: test(row[i], b)
            if j is not None:
                return lambda row: test(a, row[j])
            return lambda row: test(a, b)
        raise TypeError(f"cannot evaluate {cond!r}")

    def connective(self, cond: Union[And, Or]) -> Callable[[Row], object]:
        items = [self.bind(item) for item in cond.items]
        conjunction = isinstance(cond, And)
        if self.naive:
            if conjunction:

                def all_hold(row: Row) -> bool:
                    for item in items:
                        if not item(row):
                            return False
                    return True

                return all_hold

            def any_holds(row: Row) -> bool:
                for item in items:
                    if item(row):
                        return True
                return False

            return any_holds
        # Three-valued: the absorbing value stops the walk; UNKNOWN
        # beats the neutral one.
        stop, neutral = (FALSE, TRUE) if conjunction else (TRUE, FALSE)

        def combine(row: Row) -> ThreeValued:
            result = neutral
            for item in items:
                v = item(row)
                if v is stop:
                    return stop
                if v is UNKNOWN:
                    result = UNKNOWN
            return result

        return combine


def bind_naive(cond: Condition, attributes: Sequence[str]) -> Callable[[Row], bool]:
    """:func:`eval_naive` of *cond* as a closure over rows whose
    positions carry *attributes*.  An attribute missing from
    *attributes* raises ``KeyError`` here, not per row."""
    return _Binder(attributes, naive=True).bind(cond)  # type: ignore[return-value]


def bind_3vl(
    cond: Condition, attributes: Sequence[str]
) -> Callable[[Row], ThreeValued]:
    """:func:`eval_3vl` of *cond* as a closure over rows whose positions
    carry *attributes*."""
    return _Binder(attributes, naive=False).bind(cond)  # type: ignore[return-value]


def eval_naive(cond: Condition, row: Mapping[str, object]) -> bool:
    """Naive (marked-null) Boolean evaluation.

    ``⊥ = c`` is false; ``⊥ = ⊥'`` is true iff the two nulls are the
    same element of ``Null``; ``⊥ <> x`` is the complement of equality.
    Order comparisons and ``LIKE`` involving a null are false — the
    theoretical development only uses (dis)equalities on nulls, and this
    choice keeps naive evaluation monotone for the positive fragment.
    An order comparison between constants Python cannot order (a fresh
    constant, say) raises ``TypeError``.
    """
    return bind_naive(cond, tuple(row))(tuple(row.values()))


def eval_3vl(cond: Condition, row: Mapping[str, object]) -> ThreeValued:
    """SQL three-valued evaluation (``EvalSQL`` semantics): any
    comparison with a null operand is ``UNKNOWN``."""
    return bind_3vl(cond, tuple(row))(tuple(row.values()))
