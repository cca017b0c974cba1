"""Nullability analysis for the SQL rewriter.

The appendix rewrites of the paper add ``OR x IS NULL`` escapes only for
attributes that can actually be null at that point.  Two sources of
"cannot be null" are used:

1. the schema — key columns and ``NOT NULL`` declarations;
2. the enclosing *positive* context — under SQL's three-valued logic a
   top-level conjunct only selects rows where it is ``TRUE``, and a
   comparison can only be ``TRUE`` on non-null operands.  So in Q1, the
   outer conjunct ``s_suppkey = l1.l_suppkey`` forces ``l1.l_suppkey``
   non-null, which is why the appendix version of ``Q+1`` does *not* add
   ``OR l1.l_suppkey IS NULL`` inside the ``NOT EXISTS``.

This module provides the :class:`Catalog` (schema + ``WITH`` views), the
rewriter's :class:`Scope` (a :class:`~repro.sql.scope.BlockScope` that
also carries the catalog and the forced non-null facts) and
:func:`forced_nonnull` (the positive-context analysis).  Names resolve
and outputs are named by :mod:`repro.sql.scope`, as in the engine and
the algebra translator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, cast

from repro.data.schema import DatabaseSchema
from repro.sql import ast
from repro.sql.scope import BlockScope, Resolution, output_columns

__all__ = ["Catalog", "Scope", "forced_nonnull", "RewriteError", "columns_in_expr"]


class RewriteError(ValueError):
    """The query falls outside the rewritable fragment.

    Besides the message, the error records *where* the query left the
    fragment: ``node`` is the offending AST node (when one was at hand)
    and ``span`` its ``(start, end)`` source offsets — taken from the
    node when not given explicitly.  ``diagnostics`` is filled by
    :func:`repro.sql.rewrite.rewrite_certain` with the static analyzer's
    findings for the same query, so CLI and library callers can report
    locations uniformly (see :mod:`repro.analysis`).
    """

    def __init__(self, message, *, node=None, span=None):
        super().__init__(message)
        self.node = node
        if span is None and node is not None:
            span = getattr(node, "span", None)
        self.span = span
        self.diagnostics = []


class Catalog:
    """Column and nullability lookup over base tables and ``WITH`` views."""

    def __init__(self, schema: DatabaseSchema):
        self.schema = schema
        #: Output columns of views and of the base tables looked up so far.
        self._columns: Dict[str, Tuple[str, ...]] = {}
        self._view_nullable: Dict[str, Dict[str, bool]] = {}

    # ------------------------------------------------------------------
    def has_table(self, name: str) -> bool:
        return name in self._columns or name in self.schema

    def columns_of(self, name: str) -> Optional[Tuple[str, ...]]:
        """The columns of view or table *name*, or ``None`` if there is none."""
        columns = self._columns.get(name)
        if columns is None and name in self.schema:
            columns = self._columns[name] = self.schema[name].attribute_names
        return columns

    def is_nullable(self, table: str, column: str) -> bool:
        if table in self._view_nullable:
            return self._view_nullable[table][column]
        return self.schema[table].is_nullable(column)

    # ------------------------------------------------------------------
    def register_view(self, name: str, query: ast.Query) -> None:
        """Derive a view's output columns and their nullability."""
        columns, nullable = self._analyze_view(query)
        self._columns[name] = columns
        self._view_nullable[name] = dict(zip(columns, nullable))

    def _analyze_view(self, query: ast.Query) -> Tuple[Tuple[str, ...], List[bool]]:
        """The view's output columns and, by position, whether each may
        be null; set operands are merged by position, as SQL pairs them."""
        body = query.body
        if isinstance(body, ast.SetOp):
            columns, left = self._analyze_view(body.left)
            _right_columns, right = self._analyze_view(body.right)
            right += [True] * (len(left) - len(right))
            return columns, [lnull or rnull for lnull, rnull in zip(left, right)]
        assert isinstance(body, ast.Select)
        scope = Scope(body.tables, self)
        named = output_columns(body, scope)
        nullable = [
            self.nullable_at(scope.resolve(expr))
            if isinstance(expr, ast.ColumnRef)
            else True
            for _name, expr in named
        ]
        return tuple(name for name, _expr in named), nullable

    def nullable_at(self, resolved: Resolution) -> bool:
        """May the base column of a resolved reference hold a null?"""
        return self.is_nullable(resolved.scope.tables[resolved.binding], resolved.column)


class Scope(BlockScope):
    """FROM bindings of one SELECT block, chained to the enclosing block,
    with the catalog they resolve against and the columns the positive
    context forces non-null."""

    def __init__(
        self,
        tables: Tuple[ast.TableRef, ...],
        catalog: Catalog,
        parent: Optional["Scope"] = None,
    ):
        super().__init__(tables, catalog.columns_of, _rewrite_error, parent)
        self.catalog = catalog
        #: (binding, column) pairs proven non-null by the positive context.
        self.forced_nonnull: Set[Tuple[str, str]] = set()

    # ------------------------------------------------------------------
    def is_possibly_null(self, column: ast.ColumnRef) -> bool:
        """May this reference evaluate to NULL at this point in the query?"""
        return self.may_be_null(self.resolve(column))

    def may_be_null(self, resolved: Resolution, raw: bool = False) -> bool:
        """May a column this scope resolved be NULL here?  *raw* ignores
        the non-null facts of the positive context."""
        if not self.catalog.nullable_at(resolved):
            return False
        return raw or resolved.key not in cast("Scope", resolved.scope).forced_nonnull


def _rewrite_error(message: str, node: object) -> RewriteError:
    return RewriteError(message, node=node)


def columns_in_expr(expr: ast.SqlExpr) -> List[ast.ColumnRef]:
    """All column references syntactically inside a scalar expression."""
    if isinstance(expr, ast.ColumnRef):
        return [expr]
    if isinstance(expr, ast.Concat):
        refs: List[ast.ColumnRef] = []
        for part in expr.parts:
            refs.extend(columns_in_expr(part))
        return refs
    if isinstance(expr, ast.Aggregate) and expr.arg is not None:
        return columns_in_expr(expr.arg)
    # Literals, params and scalar subqueries contribute nothing: a scalar
    # subquery is the paper's black-box constant.
    return []


def forced_nonnull(where: Optional[ast.SqlCond], scope: Scope) -> None:
    """Populate ``forced_nonnull`` on *scope*.

    Walks the top-level conjuncts of a *positively evaluated* WHERE
    clause.  A conjunct that must be ``TRUE`` under 3VL forces its
    comparison operands non-null; positive ``EXISTS`` conjuncts force
    the columns of *scope* their own conjuncts compare (the subquery only
    passes if some inner row made those comparisons ``TRUE``).

    Only columns of *scope* itself are forced.  An enclosing block's
    rows are not filtered by this WHERE clause: when this block sits
    under ``NOT EXISTS`` or ``OR``, an enclosing row can carry the null
    and still pass.
    """
    if where is None:
        return
    conjuncts = (
        where.items if isinstance(where, ast.BoolOp) and where.op == "and" else (where,)
    )
    for item in conjuncts:
        if isinstance(item, ast.Comparison):
            _force_expr(item.left, scope)
            _force_expr(item.right, scope)
        elif isinstance(item, ast.IsNull) and item.negated:
            _force_expr(item.expr, scope)
        elif isinstance(item, ast.InPredicate) and not item.negated:
            _force_expr(item.expr, scope)
            if item.query is not None:
                _force_subquery(item.query, scope, scope)
        elif isinstance(item, ast.Exists) and not item.negated:
            _force_subquery(item.query, scope, scope)
        # OR blocks, negated predicates and literals force nothing.


def _force_columns(columns: List[ast.ColumnRef], scope: Scope, target: Scope) -> None:
    """Force the *columns* (resolved from *scope*) that belong to *target*."""
    for column in columns:
        try:
            resolved = scope.resolve(column)
        except RewriteError:
            continue
        if resolved.scope is target:
            target.forced_nonnull.add(resolved.key)


def _force_expr(expr: ast.SqlExpr, scope: Scope) -> None:
    _force_columns(columns_in_expr(expr), scope, scope)


def _force_subquery(query: ast.Query, outer: Scope, target: Scope) -> None:
    """Record columns of *target* forced by a positive subquery's
    conjuncts (the subquery's own rows are witnesses, not outputs)."""
    body = query.body
    if not isinstance(body, ast.Select):
        return
    try:
        scope = Scope(body.tables, outer.catalog, parent=outer)
    except RewriteError:
        return
    if body.where is None:
        return
    conjuncts = (
        body.where.items
        if isinstance(body.where, ast.BoolOp) and body.where.op == "and"
        else (body.where,)
    )
    for item in conjuncts:
        if isinstance(item, ast.Comparison):
            _force_columns(
                columns_in_expr(item.left) + columns_in_expr(item.right), scope, target
            )
        elif isinstance(item, ast.Exists) and not item.negated:
            _force_subquery(item.query, scope, target)
