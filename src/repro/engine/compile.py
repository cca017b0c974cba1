"""Closure compilation: the engine's only evaluator.

:mod:`repro.engine.blocks` builds every predicate and scalar expression
as a tree of plain ``_Cond``/``_Expr`` IR nodes.  This module lowers
those trees, at prepare time, into plain Python closures
``fn(cursor, env)``:

* **operator specialization** — each comparison operator gets its own
  closure body, ``LIKE`` patterns against constants are compiled to a
  regex once, and boolean connectives unroll their 3VL short-circuit
  loops;
* **constant folding** — condition subtrees over constants collapse to
  a precomputed truth value at compile time;
* **null-check hoisting** — when the caller proves an operand non-null
  (data-driven: the filtered column vector contains no nulls, see
  :class:`repro.engine.stats.SourceStats`), the per-row ``is_null``
  test disappears from the closure;
* **row tests for pushed filters** — each pushed single-table filter
  becomes one ``row → keep?`` test (:func:`row_tests`) that reads its
  cells directly where the shape allows; the block runs one pass over
  its row list per conjunct, and the bucket path runs the same tests
  on a bucket's rows.

Subquery nodes keep their state (decorrelated probe tables, memo
caches, cached uncorrelated results) on the IR node, so recompiling a
condition after a replan reuses it; their closures call into that
state (``_Exists.answer``, ``_InSubquery.answer``) with the operand
expressions compiled here.  The engine's independent references are
the algebra evaluator (``tests/engine/test_vs_algebra_property.py``)
and the brute-force certain-answer oracle.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, List, Optional, Sequence, Tuple

from repro.algebra.conditions import _like_regex, like_match
from repro.algebra.threevl import FALSE, TRUE, UNKNOWN
from repro.data.nulls import Null, fresh_null
from repro.engine import blocks as B
from repro.engine.limits import EngineError

__all__ = [
    "compile_expr",
    "compile_cond",
    "row_tests",
]

Key = Tuple[str, str]
NonNull = FrozenSet[Key]
_EMPTY_NONNULL: NonNull = frozenset()
_EMPTY_ENV: dict = {}


def _proved_nonnull(expr: "B._Expr", nonnull: NonNull) -> bool:
    if isinstance(expr, B._Const):
        return not isinstance(expr.value, Null)
    if isinstance(expr, B._Col):
        return expr.depth == 0 and expr.key in nonnull
    return False


# ---------------------------------------------------------------------------
# Scalar expressions
# ---------------------------------------------------------------------------


def compile_expr(expr: "B._Expr", nonnull: NonNull = _EMPTY_NONNULL) -> Callable:
    if isinstance(expr, B._Const):
        value = expr.value

        def const(cursor, env, _v=value):
            return _v

        return const
    if isinstance(expr, B._Col):
        key = expr.key
        if expr.depth == 0:

            def local(cursor, env, _k=key):
                slotmap, row = cursor
                return row[slotmap[_k]]

            return local

        def outer(cursor, env, _k=key):
            return env[_k]

        return outer
    if isinstance(expr, B._Concat):
        parts = tuple(compile_expr(p, nonnull) for p in expr.parts)

        def concat(cursor, env):
            pieces = []
            for part in parts:
                value = part(cursor, env)
                if isinstance(value, Null):
                    # a value of its own, unknown against any other,
                    # even the null it was built from
                    return fresh_null()
                pieces.append(str(value))
            return "".join(pieces)

        return concat
    if isinstance(expr, B._ScalarSubquery):
        return _compile_scalar_subquery(expr)
    raise EngineError(f"cannot compile expression {expr!r}")  # pragma: no cover


def _compile_scalar_subquery(sub: "B._ScalarSubquery") -> Callable:
    """A closure that runs the inner block once per statement and then
    returns the aggregate cached on *sub*."""
    arg = None if sub.arg is None else compile_expr(sub.arg)
    func = sub.func

    def aggregate():
        slotmap, rows = sub.block.run({})
        count_star = len(rows)
        values = [] if arg is None else [arg((slotmap, row), _EMPTY_ENV) for row in rows]
        non_null = [v for v in values if not isinstance(v, Null)]
        if func == "count":
            return count_star if arg is None else len(non_null)
        if not non_null:
            return Null()  # SQL aggregates over nothing yield NULL
        if func == "avg":
            return sum(non_null) / len(non_null)
        if func == "sum":
            return sum(non_null)
        if func == "min":
            return min(non_null)
        if func == "max":
            return max(non_null)
        raise EngineError(f"unknown aggregate {func!r}")  # pragma: no cover

    def scalar(cursor, env):
        if not sub.computed:
            sub.value = aggregate()
            sub.computed = True
        return sub.value

    return scalar


# ---------------------------------------------------------------------------
# Conditions
# ---------------------------------------------------------------------------


def _const_result(value) -> Callable:
    def const_cond(cursor, env, _v=value):
        return _v

    return const_cond


def _compile_cmp(cond: "B._Cmp", nonnull: NonNull) -> Callable:
    op = cond.op
    if isinstance(cond.left, B._Const) and isinstance(cond.right, B._Const):
        return _const_result(
            B._compare(op, cond.left.value, cond.right.value, cond.marked)
        )
    left = compile_expr(cond.left, nonnull)
    right = compile_expr(cond.right, nonnull)
    if cond.marked:
        # Marked-null equality is label-sensitive; keep the shared
        # comparison kernel and only strip the dispatch layer.
        compare = B._compare

        def marked_cmp(cursor, env):
            return compare(op, left(cursor, env), right(cursor, env), True)

        return marked_cmp
    hoist = _proved_nonnull(cond.left, nonnull) and _proved_nonnull(
        cond.right, nonnull
    )
    if op == "=":
        if hoist:

            def eq_nn(cursor, env):
                return TRUE if left(cursor, env) == right(cursor, env) else FALSE

            return eq_nn

        def eq(cursor, env):
            a = left(cursor, env)
            b = right(cursor, env)
            if isinstance(a, Null) or isinstance(b, Null):
                return UNKNOWN
            return TRUE if a == b else FALSE

        return eq
    if op == "<>":
        if hoist:

            def ne_nn(cursor, env):
                return TRUE if left(cursor, env) != right(cursor, env) else FALSE

            return ne_nn

        def ne(cursor, env):
            a = left(cursor, env)
            b = right(cursor, env)
            if isinstance(a, Null) or isinstance(b, Null):
                return UNKNOWN
            return TRUE if a != b else FALSE

        return ne
    if op in ("like", "not like"):
        want = op == "like"
        if isinstance(cond.right, B._Const) and not isinstance(cond.right.value, Null):
            regex = _like_regex(cond.right.value)

            def like_const(cursor, env):
                a = left(cursor, env)
                if isinstance(a, Null):
                    return UNKNOWN
                hit = regex.match(str(a)) is not None
                return TRUE if hit == want else FALSE

            return like_const

        def like_dyn(cursor, env):
            a = left(cursor, env)
            b = right(cursor, env)
            if isinstance(a, Null) or isinstance(b, Null):
                return UNKNOWN
            return TRUE if like_match(a, b) == want else FALSE

        return like_dyn

    import operator as _operator

    cmp_fn = {
        "<": _operator.lt,
        "<=": _operator.le,
        ">": _operator.gt,
        ">=": _operator.ge,
    }[op]
    if hoist:

        def ord_nn(cursor, env):
            return TRUE if cmp_fn(left(cursor, env), right(cursor, env)) else FALSE

        return ord_nn

    def ord_(cursor, env):
        a = left(cursor, env)
        b = right(cursor, env)
        if isinstance(a, Null) or isinstance(b, Null):
            return UNKNOWN
        return TRUE if cmp_fn(a, b) else FALSE

    return ord_


def _compile_bool(cond: "B._Bool", nonnull: NonNull) -> Callable:
    fns: List[Callable] = []
    is_and = cond.op == "and"
    for item in cond.items:
        compiled = compile_cond(item, nonnull)
        if isinstance(item, B._BoolConst):
            # Constant folding: absorbing constants decide the result,
            # identity constants vanish.
            value = item.value
            if is_and and value is FALSE:
                return _const_result(FALSE)
            if not is_and and value is TRUE:
                return _const_result(TRUE)
            continue
        fns.append(compiled)
    if not fns:
        return _const_result(TRUE if is_and else FALSE)
    if len(fns) == 1:
        return fns[0]
    fns_t = tuple(fns)
    if is_and:

        def conj(cursor, env):
            result = TRUE
            for fn in fns_t:
                value = fn(cursor, env)
                if value is FALSE:
                    return FALSE
                if value is UNKNOWN:
                    result = UNKNOWN
            return result

        return conj

    def disj(cursor, env):
        result = FALSE
        for fn in fns_t:
            value = fn(cursor, env)
            if value is TRUE:
                return TRUE
            if value is UNKNOWN:
                result = UNKNOWN
        return result

    return disj


def compile_cond(cond: "B._Cond", nonnull: NonNull = _EMPTY_NONNULL) -> Callable:
    if isinstance(cond, B._BoolConst):
        return _const_result(cond.value)
    if isinstance(cond, B._Cmp):
        return _compile_cmp(cond, nonnull)
    if isinstance(cond, B._IsNull):
        expr_fn = compile_expr(cond.expr, nonnull)
        if _proved_nonnull(cond.expr, nonnull):
            return _const_result(TRUE if cond.negated else FALSE)
        if cond.negated:

            def notnull(cursor, env):
                return FALSE if isinstance(expr_fn(cursor, env), Null) else TRUE

            return notnull

        def isnull(cursor, env):
            return TRUE if isinstance(expr_fn(cursor, env), Null) else FALSE

        return isnull
    if isinstance(cond, B._Bool):
        return _compile_bool(cond, nonnull)
    if isinstance(cond, B._Not):
        inner = compile_cond(cond.item, nonnull)

        def negate(cursor, env):
            value = inner(cursor, env)
            if value is TRUE:
                return FALSE
            if value is FALSE:
                return TRUE
            return UNKNOWN

        return negate
    if isinstance(cond, B._InValues):
        membership = _compile_in_values(cond, nonnull)
        if cond.negated:

            def notin(cursor, env):
                value = membership(cursor, env)
                if value is TRUE:
                    return FALSE
                if value is FALSE:
                    return TRUE
                return UNKNOWN

            return notin
        return membership
    if isinstance(cond, B._InSubquery):
        expr_fn = compile_expr(cond.expr, nonnull)
        values = cond.answer
        marked = cond.marked
        if cond.negated:

            def not_in_subquery(cursor, env):
                return ~B._membership(expr_fn(cursor, env), values(cursor, env), marked)

            return not_in_subquery

        def in_subquery(cursor, env):
            return B._membership(expr_fn(cursor, env), values(cursor, env), marked)

        return in_subquery
    if isinstance(cond, B._Exists):
        return cond.answer
    raise EngineError(f"cannot compile condition {cond!r}")  # pragma: no cover


def _compile_in_values(cond: "B._InValues", nonnull: NonNull) -> Callable:
    """``x IN (v₁, …)`` over the node's pre-partitioned IN-list: an O(1)
    probe of the constant set, then the residual candidates one by one
    (the truth table of :func:`repro.engine.blocks._membership`)."""
    expr_fn = compile_expr(cond.expr, nonnull)
    residual = tuple(compile_expr(v, nonnull) for v in cond._residual)
    const_set = cond._const_set
    has_null_const = cond._has_null_const
    marked = cond.marked
    compare = B._compare

    def membership(cursor, env):
        x = expr_fn(cursor, env)
        if const_set:
            try:
                if x in const_set:
                    return TRUE
            except TypeError:  # unhashable probe value: linear fallback
                for value in const_set:
                    if compare("=", x, value, marked) is TRUE:
                        return TRUE
        saw_unknown = has_null_const
        if not saw_unknown and const_set and isinstance(x, Null):
            saw_unknown = True  # null vs. any non-null candidate
        for value_fn in residual:
            value = value_fn(cursor, env)
            candidates = value if isinstance(value, (list, tuple)) else (value,)
            for item in candidates:
                cmp = compare("=", x, item, marked)
                if cmp is TRUE:
                    return TRUE
                if cmp is UNKNOWN:
                    saw_unknown = True
        return UNKNOWN if saw_unknown else FALSE

    return membership


# ---------------------------------------------------------------------------
# Row tests for pushed filters
# ---------------------------------------------------------------------------


def _unary_test(cond: "B._Cond", source: "B._Source") -> Optional[Callable]:
    """``row → keep?`` for single-column filters, reading the one column.

    Returns ``None`` when *cond* does not specialize; the boolean
    predicate answers "does the condition evaluate to TRUE on this row".
    """
    binding = source.binding
    if isinstance(cond, B._IsNull) and isinstance(cond.expr, B._Col):
        if cond.expr.depth != 0 or cond.expr.key[0] != binding:
            return None
        p = source.columns.index(cond.expr.key[1])
        if cond.negated:
            return lambda row: not isinstance(row[p], Null)
        return lambda row: isinstance(row[p], Null)
    if isinstance(cond, B._Cmp):
        col, const = cond.left, cond.right
        flipped = False
        if not isinstance(col, B._Col):
            col, const, flipped = cond.right, cond.left, True
        if not isinstance(col, B._Col) or not isinstance(const, B._Const):
            return None
        if col.depth != 0 or col.key[0] != binding:
            return None
        p = source.columns.index(col.key[1])
        c = const.value
        op = cond.op
        if flipped:
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
            if cond.op in ("like", "not like"):
                # column used as the pattern — no precompiled regex
                return None
        if isinstance(c, Null):
            if cond.marked and op == "=":
                return lambda row: row[p] == c  # same-label marked null
            return lambda row: False  # never TRUE against a null
        if op == "=":
            return lambda row: row[p] == c
        if op == "<>":
            return lambda row: not isinstance((v := row[p]), Null) and v != c
        if op == "like" or op == "not like":
            regex = _like_regex(c)
            want = op == "like"
            return lambda row: (
                not isinstance((v := row[p]), Null)
                and (regex.match(str(v)) is not None) == want
            )
        import operator as _operator

        cmp_fn = {
            "<": _operator.lt,
            "<=": _operator.le,
            ">": _operator.gt,
            ">=": _operator.ge,
        }[op]
        return lambda row: not isinstance((v := row[p]), Null) and cmp_fn(v, c)
    if isinstance(cond, B._InValues) and not cond._residual:
        expr = cond.expr
        if not isinstance(expr, B._Col) or expr.depth != 0 or expr.key[0] != binding:
            return None
        p = source.columns.index(expr.key[1])
        const_set = cond._const_set
        has_null = cond._has_null_const
        marked = cond.marked
        if not cond.negated:
            if marked:
                return lambda row: row[p] in const_set
            return lambda row: not isinstance((v := row[p]), Null) and v in const_set
        # NOT IN is TRUE only when membership is definitely FALSE.
        if not const_set and not has_null:
            return lambda row: True  # empty IN list is FALSE
        if has_null:
            return lambda row: False  # a null candidate forces UNKNOWN
        return lambda row: not isinstance((v := row[p]), Null) and v not in const_set
    return None


def _binary_test(cond: "B._Cond", source: "B._Source") -> Optional[Callable]:
    """``row → keep?`` for local column-column filters.

    Covers comparisons between two columns of the *same* source (e.g.
    ``l_receiptdate > l_commitdate``): the test reads both cells and
    applies the C-level operator directly, behind the 3VL null guards.
    Marked-null equality stays on the generic path (same-label nulls
    compare TRUE there, which the plain operator plus null guard would
    get wrong).
    """
    if not isinstance(cond, B._Cmp):
        return None
    left, right = cond.left, cond.right
    if not (isinstance(left, B._Col) and isinstance(right, B._Col)):
        return None
    binding = source.binding
    if left.depth != 0 or right.depth != 0:
        return None
    if left.key[0] != binding or right.key[0] != binding:
        return None
    op = cond.op
    if op in ("like", "not like"):
        return None
    if cond.marked and op in ("=", "<>"):
        return None
    import operator as _operator

    cmp_fn = {
        "=": _operator.eq,
        "<>": _operator.ne,
        "<": _operator.lt,
        "<=": _operator.le,
        ">": _operator.gt,
        ">=": _operator.ge,
    }[op]
    p1 = source.columns.index(left.key[1])
    p2 = source.columns.index(right.key[1])
    return lambda row: (
        not isinstance((a := row[p1]), Null)
        and not isinstance((b := row[p2]), Null)
        and cmp_fn(a, b)
    )


def _or_test(cond: "B._Cond", source: "B._Source") -> Optional[Callable]:
    """``row → keep?`` for a two-arm ``OR`` of single-column filters."""
    if not (isinstance(cond, B._Bool) and cond.op == "or" and len(cond.items) == 2):
        return None
    k1, k2 = (_unary_test(item, source) for item in cond.items)
    if k1 is None or k2 is None:
        return None
    return lambda row: k1(row) or k2(row)


def row_tests(source: "B._Source", conds: Sequence["B._Cond"]) -> List[Callable]:
    """Compile pushed filters of *source* into ``row → keep?`` tests, one
    per conjunct, each true when its conjunct is TRUE on the row.

    Single-column filters, same-source column-column comparisons and
    two-arm ``OR``s of single-column filters read their cells directly;
    anything else calls the compiled condition with the source's slot
    map.  The block's filter passes and the bucket path both run them.
    """
    slotmap = source.slotmap
    tests: List[Callable] = []
    for cond in conds:
        test = (
            _unary_test(cond, source)
            or _binary_test(cond, source)
            or _or_test(cond, source)
        )
        if test is None:
            fn = compile_cond(cond)
            test = lambda row, _fn=fn: _fn((slotmap, row), _EMPTY_ENV) is TRUE
        tests.append(test)
    return tests
