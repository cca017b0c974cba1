"""Direct SQL-to-SQL rewriting with correctness guarantees.

This implements the paper's translation ``Q → Q+`` directly on SQL ASTs
(the "direct SQL rewriting" Section 8 calls for), in three passes:

**Pass 1 — mode-based condition rewriting.**  Every condition is
rewritten in one of two modes mirroring Figure 3:

* mode ``+`` (certain): the condition must hold under every valuation.
  Under SQL's 3VL the adjusted ``θ*`` is what the engine already
  evaluates (a comparison is ``TRUE`` only on constants), so
  comparisons stay unchanged; ``EXISTS`` keeps mode ``+`` and
  ``NOT EXISTS`` flips its subquery into mode ``?``.
* mode ``?`` (possible): the condition must hold under *some*
  valuation.  Comparisons are weakened with ``OR x IS NULL`` escapes
  for every operand that may actually be null — consulting the schema
  *and* the non-null facts forced by the enclosing positive context
  (:mod:`repro.sql.nullability`); ``NOT EXISTS`` flips back to ``+``.

**Pass 2 — dimension view folding** (the Q+4 treatment).  Inside a
``NOT EXISTS``, a cluster of tables attached to the correlated anchor
table through a single weakened join ``(x = t.k OR x IS NULL)`` is
replaced by a ``WITH`` view computing the possible key set, turning the
appendix's ``part_view`` / ``supp_view`` out of Q4 automatically.

**Pass 3 — disjunction splitting** (the Q+2/Q+4 treatment).  A
``NOT EXISTS (… WHERE c1 AND (a OR b) …)`` is split into a conjunction
of ``NOT EXISTS`` blocks, one per disjunct; tables no longer referenced
in a block are dropped from its ``FROM`` with an ``EXISTS`` guard
(``AND EXISTS (SELECT * FROM t)``) preserving semantics.  Splitting is
applied when it decorrelates a block (Q2 — enabling the engine's
short-circuit) or when the ``OR`` blocks an equi-join (Q4 — restoring
hash joins); Q1/Q3-style residual ``OR``\\ s are left inline, matching
the appendix.

``rewrite_certain(..., tune=False)`` runs pass 1 only: the naive
translation whose optimizer breakdown on Q4 Section 7 describes, kept
for the A1 ablation and the EXPLAIN cost story.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union as TUnion

from repro.data.schema import DatabaseSchema
from repro.sql import ast
from repro.sql.nullability import (
    Catalog,
    RewriteError,
    Scope,
    columns_in_expr,
    forced_nonnull,
)

__all__ = ["rewrite_certain", "rewrite_possible", "RewriteError"]

CERTAIN = "+"
POSSIBLE = "?"

_MAX_SPLIT_COMBOS = 16

_NEGATED_OP = {
    "=": "<>",
    "<>": "=",
    "<": ">=",
    "<=": ">",
    ">": "<=",
    ">=": "<",
    "like": "not like",
    "not like": "like",
}


def _conjuncts(cond: Optional[ast.SqlCond]) -> Tuple[ast.SqlCond, ...]:
    if cond is None:
        return ()
    if isinstance(cond, ast.BoolOp) and cond.op == "and":
        return cond.items
    return (cond,)


def _and(conds: Sequence[ast.SqlCond]) -> Optional[ast.SqlCond]:
    conds = [c for c in conds if not (isinstance(c, ast.BoolLiteral) and c.value)]
    if not conds:
        return None
    if len(conds) == 1:
        return conds[0]
    return ast.BoolOp("and", *conds)


def negate_sql(cond: ast.SqlCond) -> ast.SqlCond:
    """Push a negation through a SQL condition."""
    if isinstance(cond, ast.Comparison):
        return ast.Comparison(_NEGATED_OP[cond.op], cond.left, cond.right)
    if isinstance(cond, ast.IsNull):
        return ast.IsNull(cond.expr, negated=not cond.negated)
    if isinstance(cond, ast.Exists):
        return ast.Exists(cond.query, negated=not cond.negated)
    if isinstance(cond, ast.InPredicate):
        return ast.InPredicate(
            expr=cond.expr,
            values=cond.values,
            query=cond.query,
            negated=not cond.negated,
        )
    if isinstance(cond, ast.BoolOp):
        flipped = "or" if cond.op == "and" else "and"
        return ast.BoolOp(flipped, *[negate_sql(item) for item in cond.items])
    if isinstance(cond, ast.NotOp):
        return cond.item
    if isinstance(cond, ast.BoolLiteral):
        return ast.BoolLiteral(not cond.value)
    raise RewriteError(f"cannot negate {cond!r}", node=cond)


# ---------------------------------------------------------------------------
# Pass 1: mode-based rewriting
# ---------------------------------------------------------------------------


class _ModeRewriter:
    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    # -- queries --------------------------------------------------------
    def query(self, query: ast.Query, outer: Optional[Scope], mode: str) -> ast.Query:
        if query.ctes:
            raise RewriteError("WITH views must be handled by the caller")
        return ast.Query(body=self.body(query.body, outer, mode))

    def body(self, body, outer: Optional[Scope], mode: str):
        if isinstance(body, ast.Select):
            return self.select(body, outer, mode)
        assert isinstance(body, ast.SetOp)
        if body.op == "union":
            # (Q1 ∪ Q2)+ and (Q1 ∪ Q2)? are both component-wise.
            return ast.SetOp(
                op="union",
                left=ast.Query(self.body(body.left.body, outer, mode)),
                right=ast.Query(self.body(body.right.body, outer, mode)),
                all=body.all,
            )
        if body.op == "except" and mode == CERTAIN:
            return self._except_certain(body, outer)
        if body.op == "except" and mode == POSSIBLE:
            # (Q1 − Q2)? = Q1? − Q2+ ; tuple matching in the engine's
            # EXCEPT is exact (marked-null labels), i.e. set difference.
            return ast.SetOp(
                op="except",
                left=ast.Query(self.body(body.left.body, outer, POSSIBLE)),
                right=ast.Query(self.body(body.right.body, outer, CERTAIN)),
                all=body.all,
            )
        if body.op == "intersect" and mode == CERTAIN:
            return self._intersect_certain(body, outer)
        raise RewriteError(
            f"{body.op.upper()} in a {'negative' if mode == POSSIBLE else 'positive'} "
            "context is outside the rewritable fragment",
            node=body,
        )

    def _simple_select_columns(self, query: ast.Query, what: str) -> Tuple[ast.Select, List[ast.ColumnRef]]:
        """Return the SELECT block and its output columns, *requalified*
        with their binding so they cannot be captured when moved into a
        subquery over the other operand's tables."""
        body = query.body
        if query.ctes or not isinstance(body, ast.Select):
            raise RewriteError(
                f"{what} operands must be plain SELECT blocks", node=body
            )
        scope = Scope(body.tables, self.catalog)
        refs: List[ast.ColumnRef] = []
        for col in body.columns:
            if isinstance(col, ast.Star) or not isinstance(col.expr, ast.ColumnRef):
                raise RewriteError(
                    f"{what} operands must select plain columns", node=body
                )
            resolved = scope.resolve(col.expr)
            refs.append(ast.ColumnRef(name=resolved.column, qualifier=resolved.binding))
        return body, refs

    @staticmethod
    def _check_disjoint_bindings(left: ast.Select, right: ast.Select, what: str) -> None:
        shared = {t.binding for t in left.tables} & {t.binding for t in right.tables}
        if shared:
            raise RewriteError(
                f"{what} operands share table bindings {sorted(shared)}; "
                "alias one side so the rewrite can correlate them"
            )

    def _except_certain(self, body: ast.SetOp, outer: Optional[Scope]) -> ast.Select:
        """``(Q1 − Q2)+ = Q1+ ▷⇑ Q2?`` as a ``NOT EXISTS`` on Q1+.

        The anti-unification condition per output column ``c`` is the
        weakened equality ``l.c = r.c OR l.c IS NULL OR r.c IS NULL``.
        """
        left_sel, left_cols = self._simple_select_columns(body.left, "EXCEPT")
        right_sel, right_cols = self._simple_select_columns(body.right, "EXCEPT")
        if len(left_cols) != len(right_cols):
            raise RewriteError("EXCEPT operands have different arity")
        self._check_disjoint_bindings(left_sel, right_sel, "EXCEPT")
        left_plus = self.select(left_sel, outer, CERTAIN)
        left_scope = Scope(left_sel.tables, self.catalog, parent=outer)
        forced_nonnull(left_sel.where, left_scope)
        right_scope = Scope(right_sel.tables, self.catalog, parent=left_scope)
        matches: List[ast.SqlCond] = []
        for lcol, rcol in zip(left_cols, right_cols):
            disjuncts: List[ast.SqlCond] = [ast.Comparison("=", lcol, rcol)]
            if left_scope.is_possibly_null(lcol):
                disjuncts.append(ast.IsNull(lcol))
            if right_scope.is_possibly_null(rcol):
                disjuncts.append(ast.IsNull(rcol))
            matches.append(
                disjuncts[0] if len(disjuncts) == 1 else ast.BoolOp("or", *disjuncts)
            )
        inner_where = _and(
            list(_conjuncts(self._rewrite_where(right_sel, left_scope, POSSIBLE)))
            + matches
        )
        anti = ast.Exists(
            ast.Query(
                ast.Select(
                    columns=(ast.Star(),),
                    tables=right_sel.tables,
                    where=inner_where,
                )
            ),
            negated=True,
        )
        return ast.Select(
            columns=left_plus.columns,
            tables=left_plus.tables,
            where=_and(list(_conjuncts(left_plus.where)) + [anti]),
            distinct=True,
        )

    def _intersect_certain(self, body: ast.SetOp, outer: Optional[Scope]) -> ast.Select:
        """``(Q1 ∩ Q2)+`` as a strengthened semijoin (sound; complete on
        null-free outputs — SQL cannot assert that two nulls denote the
        same value, see the Section 7 discussion of SQL vs Codd nulls)."""
        left_sel, left_cols = self._simple_select_columns(body.left, "INTERSECT")
        right_sel, right_cols = self._simple_select_columns(body.right, "INTERSECT")
        if len(left_cols) != len(right_cols):
            raise RewriteError("INTERSECT operands have different arity")
        self._check_disjoint_bindings(left_sel, right_sel, "INTERSECT")
        left_plus = self.select(left_sel, outer, CERTAIN)
        right_plus = self.select(right_sel, outer, CERTAIN)
        matches: List[ast.SqlCond] = [
            ast.Comparison("=", lcol, rcol)
            for lcol, rcol in zip(left_cols, right_cols)
        ]
        semi = ast.Exists(
            ast.Query(
                ast.Select(
                    columns=(ast.Star(),),
                    tables=right_plus.tables,
                    where=_and(list(_conjuncts(right_plus.where)) + matches),
                )
            ),
            negated=False,
        )
        return ast.Select(
            columns=left_plus.columns,
            tables=left_plus.tables,
            where=_and(list(_conjuncts(left_plus.where)) + [semi]),
            distinct=True,
        )

    # -- selects --------------------------------------------------------
    def select(self, select: ast.Select, outer: Optional[Scope], mode: str) -> ast.Select:
        if mode == POSSIBLE:
            for ref in select.tables:
                if not self.catalog.has_table(ref.name):
                    raise RewriteError(f"unknown table {ref.name!r}", node=ref)
                if ref.name not in self.catalog.schema:
                    raise RewriteError(
                        f"view {ref.name!r} referenced in a negative context; "
                        "views are rewritten for certainty and cannot soundly "
                        "over-approximate there — inline it first",
                        node=ref,
                    )
        scope = Scope(select.tables, self.catalog, parent=outer)
        if mode == CERTAIN:
            forced_nonnull(select.where, scope)
        where = self._rewrite_where(select, scope, mode, prebuilt_scope=True)
        return ast.Select(
            columns=select.columns,
            tables=select.tables,
            where=where,
            distinct=select.distinct,
        )

    def _rewrite_where(
        self,
        select: ast.Select,
        scope_or_outer,
        mode: str,
        prebuilt_scope: bool = False,
    ) -> Optional[ast.SqlCond]:
        if prebuilt_scope:
            scope = scope_or_outer
        else:
            scope = Scope(select.tables, self.catalog, parent=scope_or_outer)
            if mode == CERTAIN:
                forced_nonnull(select.where, scope)
        if select.where is None:
            return None
        return self.condition(select.where, scope, mode)

    # -- conditions -----------------------------------------------------
    def condition(self, cond: ast.SqlCond, scope: Scope, mode: str) -> ast.SqlCond:
        if isinstance(cond, ast.BoolOp):
            return ast.BoolOp(
                cond.op, *[self.condition(item, scope, mode) for item in cond.items]
            )
        if isinstance(cond, ast.NotOp):
            return self.condition(negate_sql(cond.item), scope, mode)
        if isinstance(cond, ast.BoolLiteral):
            return cond
        if isinstance(cond, ast.IsNull):
            # θ*(null(A)) = θ**(null(A)) = false; dually for const(A):
            # possible worlds contain no nulls.
            return ast.BoolLiteral(cond.negated)
        if isinstance(cond, ast.Comparison):
            return self.comparison(cond, scope, mode)
        if isinstance(cond, ast.Exists):
            sub_mode = (
                _flip(mode) if cond.negated else mode
            )
            rewritten = self.subquery(cond.query, scope, sub_mode)
            return ast.Exists(rewritten, negated=cond.negated)
        if isinstance(cond, ast.InPredicate):
            return self.in_predicate(cond, scope, mode)
        raise RewriteError(f"cannot rewrite condition {cond!r}", node=cond)

    def comparison(self, comp: ast.Comparison, scope: Scope, mode: str) -> ast.SqlCond:
        self._check_operand(comp.left, scope, mode)
        self._check_operand(comp.right, scope, mode)
        if mode == CERTAIN:
            # SQL-adjusted θ*: 3VL only selects TRUE comparisons, which
            # already implies both operands are non-null constants.
            return comp
        escapes: List[ast.SqlCond] = []
        for side in (comp.left, comp.right):
            columns = columns_in_expr(side)
            if columns and any(scope.is_possibly_null(c) for c in columns):
                escapes.append(ast.IsNull(side))
        if not escapes:
            return comp
        return ast.BoolOp("or", comp, *escapes)

    def _check_operand(self, expr: ast.SqlExpr, scope: Scope, mode: str) -> None:
        """Resolve columns early (clear errors) — scalar subqueries are
        the paper's black boxes and stay untouched in either mode."""
        for column in columns_in_expr(expr):
            scope.resolve(column)

    def in_predicate(self, pred: ast.InPredicate, scope: Scope, mode: str) -> ast.SqlCond:
        if pred.values is not None:
            if mode == CERTAIN:
                return pred
            base = ast.InPredicate(
                expr=pred.expr, values=pred.values, negated=pred.negated
            )
            if pred.negated:
                # x NOT IN (c1..cn) possibly holds unless x certainly
                # equals some ci; a null x possibly differs from all.
                escapes = self._expr_escape(pred.expr, scope)
                return ast.BoolOp("or", base, *escapes) if escapes else base
            escapes = self._expr_escape(pred.expr, scope)
            return ast.BoolOp("or", base, *escapes) if escapes else base
        # Subquery IN.
        assert pred.query is not None
        if not pred.negated and mode == CERTAIN:
            return ast.InPredicate(
                expr=pred.expr, query=self.subquery(pred.query, scope, CERTAIN)
            )
        # Remaining cases need the membership comparison inside the
        # subquery, where it can be strengthened/weakened uniformly.
        exists = self._in_to_exists(pred, scope)
        return self.condition(exists, scope, mode)

    def _expr_escape(self, expr: ast.SqlExpr, scope: Scope) -> List[ast.SqlCond]:
        columns = columns_in_expr(expr)
        if columns and any(scope.is_possibly_null(c) for c in columns):
            return [ast.IsNull(expr)]
        return []

    def _in_to_exists(self, pred: ast.InPredicate, scope: Scope) -> ast.Exists:
        """``x [NOT] IN (SELECT y FROM …)`` → ``[NOT] EXISTS (… AND x = y)``.

        Equivalent under the certain-answer (first-order) semantics the
        rewriting targets; the rewriter then applies the usual mode
        rules to the equality.
        """
        query = pred.query
        assert query is not None
        if query.ctes or not isinstance(query.body, ast.Select):
            raise RewriteError("IN subquery must be a plain SELECT block", node=pred)
        sub = query.body
        if len(sub.columns) != 1 or isinstance(sub.columns[0], ast.Star):
            raise RewriteError("IN subquery must select exactly one column", node=pred)
        out = sub.columns[0]
        assert isinstance(out, ast.OutputColumn)
        # Re-qualify outer columns so they cannot be captured by the
        # subquery's own bindings.
        sub_scope = Scope(sub.tables, self.catalog, parent=scope)
        outer_expr = self._requalify(pred.expr, scope, sub_scope)
        membership = ast.Comparison("=", outer_expr, out.expr)
        new_where = _and(list(_conjuncts(sub.where)) + [membership])
        return ast.Exists(
            ast.Query(
                ast.Select(columns=(ast.Star(),), tables=sub.tables, where=new_where)
            ),
            negated=pred.negated,
        )

    def _requalify(self, expr: ast.SqlExpr, scope: Scope, sub_scope: Scope) -> ast.SqlExpr:
        if isinstance(expr, ast.ColumnRef):
            resolved = scope.resolve(expr)
            if resolved.binding in sub_scope.bindings:
                raise RewriteError(
                    f"binding {resolved.binding!r} is shadowed inside the IN "
                    "subquery; alias one of the tables",
                    node=expr,
                )
            return ast.ColumnRef(name=resolved.column, qualifier=resolved.binding)
        if isinstance(expr, ast.Concat):
            return ast.Concat(
                tuple(self._requalify(p, scope, sub_scope) for p in expr.parts)
            )
        return expr

    def subquery(self, query: ast.Query, outer: Scope, mode: str) -> ast.Query:
        if query.ctes:
            raise RewriteError("WITH inside subqueries is not supported", node=query.body)
        if not isinstance(query.body, ast.Select):
            raise RewriteError(
                "set operations inside subqueries are not supported", node=query.body
            )
        return ast.Query(body=self.select(query.body, outer, mode))


def _flip(mode: str) -> str:
    return POSSIBLE if mode == CERTAIN else CERTAIN


# ---------------------------------------------------------------------------
# Passes 2 and 3: structural transformations on NOT EXISTS subqueries
# ---------------------------------------------------------------------------


class _StructuralPasses:
    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self.new_ctes: List[Tuple[str, ast.Query]] = []
        self._taken_names: Set[str] = set()

    # ------------------------------------------------------------------
    def process_body(self, body, outer: Optional[Scope]):
        if isinstance(body, ast.SetOp):
            return ast.SetOp(
                op=body.op,
                left=ast.Query(self.process_body(body.left.body, outer)),
                right=ast.Query(self.process_body(body.right.body, outer)),
                all=body.all,
            )
        assert isinstance(body, ast.Select)
        return self.process_select(body, outer)

    def process_select(self, select: ast.Select, outer: Optional[Scope]) -> ast.Select:
        scope = Scope(select.tables, self.catalog, parent=outer)
        if select.where is None:
            return select
        where = self.process_condition(select.where, scope)
        return ast.Select(
            columns=select.columns,
            tables=select.tables,
            where=where,
            distinct=select.distinct,
        )

    def process_condition(self, cond: ast.SqlCond, scope: Scope) -> ast.SqlCond:
        if isinstance(cond, ast.BoolOp):
            return ast.BoolOp(
                cond.op, *[self.process_condition(item, scope) for item in cond.items]
            )
        if isinstance(cond, ast.NotOp):
            return ast.NotOp(self.process_condition(cond.item, scope))
        if isinstance(cond, ast.Exists):
            processed = self._process_subquery(cond.query, scope)
            pred = ast.Exists(processed, negated=cond.negated)
            if cond.negated:
                return self._transform_not_exists(pred, scope)
            return pred
        if isinstance(cond, ast.InPredicate) and cond.query is not None:
            return ast.InPredicate(
                expr=cond.expr,
                query=self._process_subquery(cond.query, scope),
                negated=cond.negated,
            )
        return cond

    def _process_subquery(self, query: ast.Query, outer: Scope) -> ast.Query:
        if query.ctes or not isinstance(query.body, ast.Select):
            return query
        return ast.Query(body=self.process_select(query.body, outer))

    # ------------------------------------------------------------------
    def _transform_not_exists(self, pred: ast.Exists, outer: Scope) -> ast.SqlCond:
        return self._split_disjunctions(self._fold_dimension_views(pred, outer), outer)

    # -- resolution helpers ---------------------------------------------
    def _cond_refs(self, cond: ast.SqlCond, scope: Scope):
        """(local bindings, has outer refs, is complex) for a condition."""
        bindings: Set[str] = set()
        outer_ref = False
        complex_cond = False

        def visit(c: ast.SqlCond):
            nonlocal outer_ref, complex_cond
            if isinstance(c, ast.BoolOp):
                for item in c.items:
                    visit(item)
            elif isinstance(c, ast.NotOp):
                visit(c.item)
            elif isinstance(c, ast.Comparison):
                visit_exprs(c.left, c.right)
            elif isinstance(c, ast.IsNull):
                visit_exprs(c.expr)
            elif isinstance(c, ast.InPredicate):
                visit_exprs(c.expr)
                if c.query is not None:
                    complex_cond = True
                else:
                    visit_exprs(*(c.values or ()))
            elif isinstance(c, ast.Exists):
                complex_cond = True

        def visit_exprs(*exprs: ast.SqlExpr):
            nonlocal outer_ref
            for expr in exprs:
                for column in columns_in_expr(expr):
                    resolved = scope.resolve(column)
                    if resolved.depth == 0:
                        bindings.add(resolved.binding)
                    else:
                        outer_ref = True

        visit(cond)
        return bindings, outer_ref, complex_cond

    def _open_block(self, pred: ast.Exists, outer: Scope):
        """``(select, scope, conjuncts, info)`` for a ``NOT EXISTS`` over a
        plain ``SELECT … WHERE``, with :meth:`_cond_refs` of each
        conjunct; ``None`` when the passes leave the block alone (a
        ``WITH`` or set operation, no ``WHERE``, an unresolvable column)."""
        select = pred.query.body
        if pred.query.ctes or not isinstance(select, ast.Select) or select.where is None:
            return None
        scope = Scope(select.tables, self.catalog, parent=outer)
        conjuncts = list(_conjuncts(select.where))
        try:
            info = [self._cond_refs(c, scope) for c in conjuncts]
        except RewriteError:
            return None
        return select, scope, conjuncts, info

    # ------------------------------------------------------------------
    # Pass 2: dimension view folding
    # ------------------------------------------------------------------
    def _fold_dimension_views(self, pred: ast.Exists, outer: Scope) -> ast.Exists:
        block = self._open_block(pred, outer)
        if block is None:
            return pred
        select, scope, conjuncts, info = block
        if len(select.tables) < 2 or any(complex_cond for _, _, complex_cond in info):
            return pred

        anchors: Set[str] = set()
        for (bindings, outer_ref, _), _c in zip(info, conjuncts):
            if outer_ref:
                anchors |= bindings
        if not anchors:
            return pred
        others = [t.binding for t in select.tables if t.binding not in anchors]
        if not others:
            return pred

        clusters = self._connected_components(others, info)
        tables = list(select.tables)
        remaining = list(conjuncts)
        for cluster in clusters:
            folded = self._try_fold_cluster(
                cluster, tables, remaining, info, scope, anchors
            )
            if folded is None:
                continue
            tables, remaining = folded
            info = [self._cond_refs(c, scope) for c in remaining]

        if tables == list(select.tables):
            return pred
        new_select = ast.Select(
            columns=select.columns,
            tables=tuple(tables),
            where=_and(remaining),
            distinct=select.distinct,
        )
        return ast.Exists(ast.Query(body=new_select), negated=True)

    def _connected_components(self, bindings: List[str], info) -> List[Set[str]]:
        neighbours: Dict[str, Set[str]] = {b: set() for b in bindings}
        pool = set(bindings)
        for cond_bindings, outer_ref, _ in info:
            local = cond_bindings & pool
            if len(local) >= 2 and not outer_ref:
                for a in local:
                    neighbours[a] |= local - {a}
        components: List[Set[str]] = []
        seen: Set[str] = set()
        for b in bindings:
            if b in seen:
                continue
            stack, component = [b], set()
            while stack:
                current = stack.pop()
                if current in component:
                    continue
                component.add(current)
                stack.extend(neighbours[current] - component)
            seen |= component
            components.append(component)
        return components

    def _try_fold_cluster(
        self,
        cluster: Set[str],
        tables: List[ast.TableRef],
        conjuncts: List[ast.SqlCond],
        info,
        scope: Scope,
        anchors: Set[str],
    ) -> Optional[Tuple[List[ast.TableRef], List[ast.SqlCond]]]:
        bridges: List[int] = []
        internal: List[int] = []
        for i, (bindings, outer_ref, _) in enumerate(info):
            touches = bindings & cluster
            if not touches:
                continue
            if outer_ref:
                return None  # cluster condition correlated with outer scope
            if bindings <= cluster:
                internal.append(i)
            elif bindings - cluster <= anchors:
                bridges.append(i)
            else:
                return None  # tangled with another cluster
        if len(bridges) != 1:
            return None
        bridge = conjuncts[bridges[0]]
        parsed = self._parse_bridge(bridge, scope, cluster)
        if parsed is None:
            return None
        anchor_expr, cluster_col = parsed

        cluster_tables = [t for t in tables if t.binding in cluster]
        view_where = _and([conjuncts[i] for i in internal])
        view_name = self._fresh_view_name(cluster_col)
        resolved = scope.resolve(cluster_col)
        out_col = ast.ColumnRef(name=resolved.column, qualifier=cluster_col.qualifier)
        view_select = ast.Select(
            columns=(ast.OutputColumn(expr=out_col),),
            tables=tuple(cluster_tables),
            where=view_where,
        )
        view_query = self._unionize(view_select)
        self.catalog.register_view(view_name, view_query)
        self.new_ctes.append((view_name, view_query))

        new_tables = [t for t in tables if t.binding not in cluster]
        new_tables.append(ast.TableRef(name=view_name))
        drop = set(bridges) | set(internal)
        new_conjuncts = [c for i, c in enumerate(conjuncts) if i not in drop]
        new_bridge = ast.BoolOp(
            "or",
            ast.Comparison("=", anchor_expr, ast.ColumnRef(name=resolved.column)),
            ast.IsNull(anchor_expr),
        )
        new_conjuncts.append(new_bridge)
        return new_tables, new_conjuncts

    def _parse_bridge(
        self, cond: ast.SqlCond, scope: Scope, cluster: Set[str]
    ) -> Optional[Tuple[ast.SqlExpr, ast.ColumnRef]]:
        """Match ``(x = k OR x IS NULL)`` with ``x`` outside and ``k``
        inside the cluster; return ``(x, k)``."""
        if not isinstance(cond, ast.BoolOp) or cond.op != "or" or len(cond.items) != 2:
            return None
        comparison = escape = None
        for item in cond.items:
            if isinstance(item, ast.Comparison) and item.op == "=":
                comparison = item
            elif isinstance(item, ast.IsNull) and not item.negated:
                escape = item
        if comparison is None or escape is None:
            return None
        sides = [comparison.left, comparison.right]
        if not all(isinstance(s, ast.ColumnRef) for s in sides):
            return None
        resolved = [scope.resolve(s) for s in sides]  # type: ignore[arg-type]
        in_cluster = [r.depth == 0 and r.binding in cluster for r in resolved]
        if in_cluster == [False, True]:
            anchor, cluster_col = sides
        elif in_cluster == [True, False]:
            cluster_col, anchor = sides
        else:
            return None
        if not isinstance(escape.expr, ast.ColumnRef):
            return None
        if scope.resolve(escape.expr).key != scope.resolve(anchor).key:  # type: ignore[arg-type]
            return None
        return anchor, cluster_col  # type: ignore[return-value]

    def _fresh_view_name(self, cluster_col: ast.ColumnRef) -> str:
        stem = cluster_col.name
        for prefix in ("p_", "s_", "c_", "o_", "l_", "n_", "r_", "ps_"):
            if stem.startswith(prefix):
                stem = stem[len(prefix):]
                break
        stem = stem.replace("key", "") or "dim"
        base = f"{stem}_view"
        name, i = base, 2
        while name in self._taken_names or self.catalog.has_table(name):
            name = f"{base}{i}"
            i += 1
        self._taken_names.add(name)
        return name

    # ------------------------------------------------------------------
    # Pass 3: disjunction splitting
    # ------------------------------------------------------------------
    def _split_disjunctions(self, pred: ast.Exists, outer: Scope) -> ast.SqlCond:
        block = self._open_block(pred, outer)
        if block is None:
            return pred
        select, scope, conjuncts, info = block

        split_idx = [
            i
            for i, cond in enumerate(conjuncts)
            if isinstance(cond, ast.BoolOp)
            and cond.op == "or"
            and self._worth_splitting(i, conjuncts, info, scope)
        ]
        if not split_idx:
            return pred

        combo_count = 1
        for i in split_idx:
            combo_count *= len(conjuncts[i].items)  # type: ignore[union-attr]
        if combo_count > _MAX_SPLIT_COMBOS:
            return pred

        kept = [c for i, c in enumerate(conjuncts) if i not in split_idx]
        choices = [conjuncts[i].items for i in split_idx]  # type: ignore[union-attr]
        blocks: List[ast.SqlCond] = []
        for combo in itertools.product(*choices):
            block_conds = list(kept)
            for chosen in combo:
                if isinstance(chosen, ast.BoolOp) and chosen.op == "and":
                    block_conds.extend(chosen.items)
                else:
                    block_conds.append(chosen)
            blocks.append(self._build_block(select, block_conds, scope))
        return blocks[0] if len(blocks) == 1 else ast.BoolOp("and", *blocks)

    def _worth_splitting(self, i: int, conjuncts, info, scope: Scope) -> bool:
        """The paper's two reasons to split: decorrelation and join ORs."""
        or_cond = conjuncts[i]
        assert isinstance(or_cond, ast.BoolOp)
        # (b) the OR blocks an equi-join between two subquery tables.
        for item in or_cond.items:
            if isinstance(item, ast.Comparison):
                bindings, _outer_ref, _ = self._cond_refs(item, scope)
                if len(bindings) >= 2:
                    return True
        # (a) some disjunct is uncorrelated while the block otherwise has
        # no mandatory correlation: splitting yields a decorrelated
        # NOT EXISTS the engine can evaluate once and short-circuit on.
        others_correlated = any(
            outer_ref for j, (_b, outer_ref, _c) in enumerate(info) if j != i
        )
        if others_correlated:
            return False
        _bindings, this_correlated, _ = info[i]
        if not this_correlated:
            return False
        for item in or_cond.items:
            _b, outer_ref, _c = self._cond_refs(item, scope)
            if not outer_ref:
                return True
        return False

    def _build_block(
        self, select: ast.Select, conds: List[ast.SqlCond], scope: Scope
    ) -> ast.Exists:
        referenced = self._referenced_bindings(conds, scope)
        if referenced is None:
            referenced = {t.binding for t in select.tables}
        elif not referenced:
            referenced = {select.tables[0].binding}  # a block keeps one table
        tables, where = _guarded_from(select.tables, conds, referenced)
        return ast.Exists(
            ast.Query(ast.Select(columns=(ast.Star(),), tables=tables, where=where)),
            negated=True,
        )

    def _referenced_bindings(
        self, conds: List[ast.SqlCond], scope: Scope
    ) -> Optional[Set[str]]:
        referenced: Set[str] = set()
        for cond in conds:
            try:
                bindings, _outer, complex_cond = self._cond_refs(cond, scope)
            except RewriteError:
                return None
            if complex_cond:
                return None
            referenced |= bindings
        return referenced

    # ------------------------------------------------------------------
    # View bodies as UNIONs of null/match branches
    # ------------------------------------------------------------------
    def _unionize(self, select: ast.Select) -> ast.Query:
        scope = Scope(select.tables, self.catalog)
        body = self._unionize_body(select, scope)
        return ast.Query(body=body)

    def _unionize_body(self, select: ast.Select, scope: Scope):
        conjuncts = list(_conjuncts(select.where))
        for i, cond in enumerate(conjuncts):
            if isinstance(cond, ast.BoolOp) and cond.op == "or":
                branches = []
                for disjunct in cond.items:
                    rest = conjuncts[:i] + [disjunct] + conjuncts[i + 1 :]
                    branch = self._prune_select(
                        ast.Select(
                            columns=select.columns,
                            tables=select.tables,
                            where=_and(rest),
                        ),
                        scope,
                    )
                    branches.append(self._unionize_body(branch, scope))
                result = branches[0]
                for branch in branches[1:]:
                    result = ast.SetOp(
                        op="union",
                        left=ast.query_of(result),
                        right=ast.query_of(branch),
                    )
                return result
        return select

    def _prune_select(self, select: ast.Select, scope: Scope) -> ast.Select:
        """Drop FROM tables unreferenced by conditions *and* outputs,
        guarding each with EXISTS to preserve emptiness semantics."""
        conds = list(_conjuncts(select.where))
        referenced = self._referenced_bindings(conds, scope)
        if referenced is None:
            return select
        for col in select.columns:
            if isinstance(col, ast.Star):
                return select
            for ref in columns_in_expr(col.expr):
                resolved = scope.resolve(ref)
                if resolved.depth == 0:
                    referenced.add(resolved.binding)
        if not referenced or all(t.binding in referenced for t in select.tables):
            return select
        tables, where = _guarded_from(select.tables, conds, referenced)
        return ast.Select(
            columns=select.columns,
            tables=tables,
            where=where,
            distinct=select.distinct,
        )


def _guarded_from(
    tables: Sequence[ast.TableRef], conds: List[ast.SqlCond], referenced: Set[str]
) -> Tuple[Tuple[ast.TableRef, ...], Optional[ast.SqlCond]]:
    """``FROM`` and ``WHERE`` with the tables outside *referenced* dropped.

    Each dropped table ``t`` becomes a guard ``EXISTS (SELECT * FROM t)``,
    so an empty table still empties the block as it did in the product.
    """
    guards: List[ast.SqlCond] = [
        ast.Exists(
            ast.Query(
                ast.Select(
                    columns=(ast.Star(),),
                    tables=(ast.TableRef(name=t.name, alias=t.alias),),
                )
            ),
            negated=False,
        )
        for t in tables
        if t.binding not in referenced
    ]
    kept = tuple(t for t in tables if t.binding in referenced)
    return kept, _and(conds + guards)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def rewrite_certain(
    query: TUnion[ast.Query, ast.Select, ast.SetOp],
    schema: DatabaseSchema,
    *,
    tune: bool = True,
) -> ast.Query:
    """Rewrite *query* into its certain-answer version ``Q+`` (SQL level).

    The result, executed under standard SQL three-valued semantics,
    returns only certain answers of the original query (Theorem 1 with
    the Section 7 SQL adjustment); on databases without nulls it returns
    exactly the original answers.  ``tune=False`` stops after pass 1,
    giving Section 7's naive form (no view folding, no splitting).
    """
    query = ast.query_of(query)
    catalog = Catalog(schema)

    try:
        rewriter = _ModeRewriter(catalog)
        user_ctes: List[Tuple[str, ast.Query]] = []
        for name, sub in query.ctes:
            body = rewriter.body(sub.body, None, CERTAIN)
            rewritten_view = ast.Query(body=body)
            catalog.register_view(name, rewritten_view)
            user_ctes.append((name, rewritten_view))

        body = rewriter.body(query.body, None, CERTAIN)
    except RewriteError as err:
        raise _enrich_rewrite_error(err, query, schema)

    if not tune:
        return ast.Query(body=body, ctes=tuple(user_ctes))
    passes = _StructuralPasses(catalog)
    for name, _view in user_ctes:
        passes._taken_names.add(name)
    body = passes.process_body(body, None)

    return ast.Query(body=body, ctes=tuple(user_ctes + passes.new_ctes))


def _enrich_rewrite_error(
    err: RewriteError, query: ast.Query, schema: DatabaseSchema
) -> RewriteError:
    """Attach static-analyzer fragment diagnostics to a rewrite failure.

    The analyzer walks the whole query without bailing on the first
    problem, so the enriched error names *every* construct that left the
    rewritable fragment, each with its source span.  Imported lazily:
    :mod:`repro.analysis` sits above this module in the layering.
    """
    from repro.analysis.fragment import fragment_diagnostics

    try:
        err.diagnostics = fragment_diagnostics(query, schema)
    except Exception:  # pragma: no cover - analysis must never mask the error
        return err
    return err


def rewrite_possible(
    query: TUnion[ast.Query, ast.Select, ast.SetOp],
    schema: DatabaseSchema,
) -> ast.Query:
    """Rewrite *query* into its potential-answer version ``Q?``.

    Executed under standard SQL semantics, the result contains every
    tuple that could be an answer under *some* interpretation of the
    nulls (it represents potential answers in the sense of
    Definition 3).  Useful as the "maybe" companion of
    :func:`rewrite_certain`: ``Q?(D) ⊇ Q(D) ⊇ Q+(D)`` up to the usual
    SQL-null caveats.  ``WITH`` views are not supported here (they would
    need over-approximating view bodies).
    """
    query = ast.query_of(query)
    if query.ctes:
        raise RewriteError("WITH views are not supported by rewrite_possible")
    catalog = Catalog(schema)
    rewriter = _ModeRewriter(catalog)
    body = rewriter.body(query.body, None, POSSIBLE)
    return ast.Query(body=body)
