"""Translate the SQL fragment into relational algebra.

The paper follows [Van den Bussche & Vansummeren 2009] to express its
SQL queries in algebra before applying the Figure 3 translation; we do
the same.  ``EXISTS`` / ``NOT EXISTS`` and ``IN`` / ``NOT IN``
subqueries become condition semijoins / antijoins whose right side is
the subquery's ``FROM`` product and whose condition is the subquery's
``WHERE`` clause (which may reference the enclosing block — one level of
correlation, which covers the paper's queries; a reference two or more
blocks out raises :class:`AlgebraTranslationError`).

Names resolve through :mod:`repro.sql.scope`, as in the engine and the
rewriter.  Attributes are qualified as ``binding.column`` throughout and
renamed at the top of each block to the output names of
:func:`~repro.sql.scope.output_columns`, so translated queries evaluate
to relations with the engine's column names.

Scalar aggregate subqueries are not first-order; per Section 7 they are
treated as black-box constants, supplied via ``scalar_resolver``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union as TUnion

from repro.algebra import conditions as AC
from repro.algebra.expr import (
    AntiJoin,
    Difference,
    Expr,
    Intersection,
    Projection,
    Product,
    RelationRef,
    Rename,
    Selection,
    SemiJoin,
    Union,
)
from repro.algebra.infer import attribute_lookup
from repro.sql import ast
from repro.sql.scope import BlockScope, output_columns

__all__ = ["sql_to_algebra", "AlgebraTranslationError"]


class AlgebraTranslationError(ValueError):
    """The query falls outside the algebra-translatable fragment."""


def _translation_error(message: str, node: object) -> AlgebraTranslationError:
    return AlgebraTranslationError(message)


def _qualified(scope: BlockScope, column: ast.ColumnRef) -> Tuple[str, int]:
    """The ``binding.column`` attribute *column* names and its scope
    depth (0 = this block)."""
    resolved = scope.resolve(column)
    return f"{resolved.binding}.{resolved.column}", resolved.depth


class _Translator:
    def __init__(
        self,
        schema_source,
        params: Optional[Dict[str, object]] = None,
        scalar_resolver: Optional[Callable[[ast.Query], object]] = None,
    ):
        self._base_lookup = attribute_lookup(schema_source) if not callable(
            schema_source
        ) else schema_source
        self.params = dict(params or {})
        self.scalar_resolver = scalar_resolver
        # name -> (algebra, output attribute names) for WITH views.
        self.ctes: Dict[str, Tuple[Expr, Tuple[str, ...]]] = {}

    # ------------------------------------------------------------------
    def attrs_of(self, table: str) -> Optional[Tuple[str, ...]]:
        if table in self.ctes:
            return self.ctes[table][1]
        try:
            return tuple(self._base_lookup(table))
        except KeyError:
            return None

    def from_clause(
        self, select: ast.Select, outer: Optional[BlockScope]
    ) -> Tuple[BlockScope, Expr]:
        """The block's scope and the product of its ``FROM`` tables, each
        attribute qualified by its binding."""
        scope = BlockScope(select.tables, self.attrs_of, _translation_error, outer)
        expr: Optional[Expr] = None
        for binding, table_name in scope.tables.items():
            table = (
                self.ctes[table_name][0]
                if table_name in self.ctes
                else RelationRef(table_name)
            )
            table = Rename(
                table, {attr: f"{binding}.{attr}" for attr in scope.columns[binding]}
            )
            expr = table if expr is None else Product(expr, table)
        if expr is None:
            raise AlgebraTranslationError("FROM clause is empty")
        return scope, expr

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self, query: ast.Query, scope: Optional[BlockScope] = None
    ) -> Tuple[Expr, Tuple[str, ...]]:
        saved = dict(self.ctes)
        try:
            for name, sub in query.ctes:
                self.ctes[name] = self.query(sub)
            return self.body(query.body, scope)
        finally:
            self.ctes = saved

    def body(
        self, body: TUnion[ast.Select, ast.SetOp], scope: Optional[BlockScope]
    ) -> Tuple[Expr, Tuple[str, ...]]:
        if isinstance(body, ast.Select):
            return self.select(body, scope)
        left, left_attrs = self.query(body.left, scope)
        right, right_attrs = self.query(body.right, scope)
        if len(left_attrs) != len(right_attrs):
            raise AlgebraTranslationError("set operands have different arity")
        node = {"union": Union, "intersect": Intersection, "except": Difference}[
            body.op
        ]
        return node(left, right), left_attrs

    # ------------------------------------------------------------------
    def select(
        self, select: ast.Select, outer: Optional[BlockScope]
    ) -> Tuple[Expr, Tuple[str, ...]]:
        scope, expr = self.from_clause(select, outer)

        if select.where is not None:
            expr = self.apply_condition(expr, select.where, scope)

        return self.project(expr, select, scope)

    def project(
        self, expr: Expr, select: ast.Select, scope: BlockScope
    ) -> Tuple[Expr, Tuple[str, ...]]:
        star = any(isinstance(col, ast.Star) for col in select.columns)
        if star and len(select.columns) > 1:
            raise AlgebraTranslationError("* mixed with explicit columns")
        qualified: List[str] = []
        output: List[str] = []
        for name, column in output_columns(select, scope):
            if not isinstance(column, ast.ColumnRef):
                raise AlgebraTranslationError(
                    "only plain columns are supported in SELECT lists of the "
                    "algebra-translatable fragment"
                )
            attr, depth = _qualified(scope, column)
            if depth != 0:
                raise AlgebraTranslationError(
                    f"SELECT list references outer column {column.display!r}"
                )
            if attr in qualified:
                raise AlgebraTranslationError(
                    f"duplicate output column {attr!r}: a projection cannot "
                    "repeat an attribute"
                )
            qualified.append(attr)
            output.append(name)
        # A lone * keeps every attribute of the FROM product, which is
        # already a set: only the names change.
        projected = expr if star else Projection(expr, tuple(qualified))
        return Rename(projected, dict(zip(qualified, output))), tuple(output)

    # ------------------------------------------------------------------
    # Conditions
    # ------------------------------------------------------------------
    def apply_condition(self, expr: Expr, cond: ast.SqlCond, scope: BlockScope) -> Expr:
        """Apply *cond* to *expr*: subquery predicates become semi/anti
        joins, everything else one selection."""
        conjuncts = cond.items if isinstance(cond, ast.BoolOp) and cond.op == "and" else (cond,)
        flat: List[AC.Condition] = []
        for item in conjuncts:
            if isinstance(item, ast.Exists):
                expr = self.exists_join(expr, item, scope)
            elif isinstance(item, ast.InPredicate) and item.query is not None:
                expr = self.in_join(expr, item, scope)
            else:
                flat.append(self.condition(item, scope))
        if flat:
            expr = Selection(expr, AC.And(*flat) if len(flat) > 1 else flat[0])
        return expr

    def exists_join(self, expr: Expr, pred: ast.Exists, scope: BlockScope) -> Expr:
        sub_expr, sub_cond, _output = self.subquery_base(pred.query, scope)
        node = AntiJoin if pred.negated else SemiJoin
        return node(expr, sub_expr, sub_cond)

    def in_join(self, expr: Expr, pred: ast.InPredicate, scope: BlockScope) -> Expr:
        assert pred.query is not None
        sub_expr, sub_cond, sub_attrs = self.subquery_base(
            pred.query, scope, keep_output=True
        )
        if len(sub_attrs) != 1:
            raise AlgebraTranslationError("IN subquery must return one column")
        # The semijoin's left side is this block alone: no outer columns.
        left_term = self.term(pred.expr, scope, max_depth=0)
        membership = AC.Comparison("=", left_term, AC.Attr(sub_attrs[0]))
        cond = AC.And(sub_cond, membership) if not isinstance(sub_cond, AC.TrueCond) else membership
        node = AntiJoin if pred.negated else SemiJoin
        return node(expr, sub_expr, cond)

    def subquery_base(
        self, query: ast.Query, outer: BlockScope, keep_output: bool = False
    ) -> Tuple[Expr, AC.Condition, Tuple[str, ...]]:
        """The subquery as (FROM-product expression, WHERE condition).

        The condition may reference the enclosing block's attributes —
        they are in scope on the left side of the semijoin.  Nested
        subqueries *inside* the subquery are folded into its expression
        recursively.
        """
        if query.ctes:
            raise AlgebraTranslationError("WITH inside subqueries is not supported")
        body = query.body
        if not isinstance(body, ast.Select):
            raise AlgebraTranslationError("set operations under EXISTS/IN are not supported")
        scope, expr = self.from_clause(body, outer)
        flat: List[AC.Condition] = []
        if body.where is not None:
            conjuncts = (
                body.where.items
                if isinstance(body.where, ast.BoolOp) and body.where.op == "and"
                else (body.where,)
            )
            for item in conjuncts:
                if isinstance(item, ast.Exists):
                    expr = self.exists_join(expr, item, scope)
                elif isinstance(item, ast.InPredicate) and item.query is not None:
                    expr = self.in_join(expr, item, scope)
                else:
                    flat.append(self.condition(item, scope))
        output: Tuple[str, ...] = ()
        if keep_output:
            if len(body.columns) == 1 and not isinstance(body.columns[0], ast.Star):
                col = body.columns[0]
                assert isinstance(col, ast.OutputColumn)
                if not isinstance(col.expr, ast.ColumnRef):
                    raise AlgebraTranslationError("IN subquery output must be a column")
                name, depth = _qualified(scope, col.expr)
                if depth != 0:
                    raise AlgebraTranslationError("IN subquery output from outer scope")
                output = (name,)
            else:
                raise AlgebraTranslationError("IN subquery must select one column")
        cond = AC.And(*flat) if len(flat) > 1 else (flat[0] if flat else AC.TrueCond())
        return expr, cond, output

    # ------------------------------------------------------------------
    def condition(self, cond: ast.SqlCond, scope: BlockScope) -> AC.Condition:
        if isinstance(cond, ast.BoolOp):
            node = AC.And if cond.op == "and" else AC.Or
            return node(*[self.condition(item, scope) for item in cond.items])
        if isinstance(cond, ast.NotOp):
            return AC.negate(self.condition(cond.item, scope))
        if isinstance(cond, ast.BoolLiteral):
            return AC.TrueCond() if cond.value else AC.FalseCond()
        if isinstance(cond, ast.IsNull):
            return AC.NullTest(self.term(cond.expr, scope), is_null=not cond.negated)
        if isinstance(cond, ast.Comparison):
            return AC.Comparison(
                cond.op, self.term(cond.left, scope), self.term(cond.right, scope)
            )
        if isinstance(cond, ast.InPredicate) and cond.values is not None:
            term = self.term(cond.expr, scope)
            disjuncts = []
            for value in cond.values:
                value_term = self.term(value, scope)
                if isinstance(value_term, AC.Const) and isinstance(value_term.value, (list, tuple)):
                    disjuncts.extend(
                        AC.Comparison("=", term, AC.Const(v)) for v in value_term.value
                    )
                else:
                    disjuncts.append(AC.Comparison("=", term, value_term))
            membership = AC.Or(*disjuncts) if len(disjuncts) != 1 else disjuncts[0]
            return AC.negate(membership) if cond.negated else membership
        if isinstance(cond, (ast.Exists, ast.InPredicate)):
            raise AlgebraTranslationError(
                "subquery predicate under OR/NOT is outside the supported fragment"
            )
        raise AlgebraTranslationError(f"cannot translate condition {cond!r}")

    def term(self, expr: ast.SqlExpr, scope: BlockScope, max_depth: int = 1) -> AC.Term:
        """*expr* as an algebra term.  A condition sees its own block and
        the one enclosing it (the left side of its semijoin), so a column
        more than *max_depth* blocks out is not bound where it is used."""
        if isinstance(expr, ast.ColumnRef):
            name, depth = _qualified(scope, expr)
            if depth > max_depth:
                raise AlgebraTranslationError(
                    f"column {expr.display!r} is not bound where it is used: "
                    "only one level of correlation is supported"
                )
            return AC.Attr(name)
        if isinstance(expr, ast.Literal):
            return AC.Const(expr.value)
        if isinstance(expr, ast.Param):
            if expr.name not in self.params:
                raise AlgebraTranslationError(f"unbound parameter ${expr.name}")
            return AC.Const(self.params[expr.name])
        if isinstance(expr, ast.Concat):
            parts = []
            for part in expr.parts:
                folded = self.term(part, scope, max_depth)
                if not isinstance(folded, AC.Const):
                    raise AlgebraTranslationError(
                        "|| is only supported over literals and parameters"
                    )
                parts.append(str(folded.value))
            return AC.Const("".join(parts))
        if isinstance(expr, ast.ScalarSubquery):
            if self.scalar_resolver is None:
                raise AlgebraTranslationError(
                    "scalar subqueries need a scalar_resolver (the paper treats "
                    "them as black-box constants)"
                )
            return AC.Const(self.scalar_resolver(expr.query))
        raise AlgebraTranslationError(f"cannot translate expression {expr!r}")


def sql_to_algebra(
    query: TUnion[ast.Query, ast.Select, ast.SetOp],
    schema_source,
    params: Optional[Dict[str, object]] = None,
    scalar_resolver: Optional[Callable[[ast.Query], object]] = None,
) -> Expr:
    """Translate a SQL AST into a relational algebra expression."""
    translator = _Translator(schema_source, params=params, scalar_resolver=scalar_resolver)
    expr, _attrs = translator.query(ast.query_of(query))
    return expr
