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

Pass 1 is also the static analyzer's walk.  Run in *report mode*
(:func:`pass1_findings`) it records a :class:`Finding` at every site
where it decides something — a null escape added, an ``IS [NOT] NULL``
folded to a constant, a construct outside the fragment — and walks on
past fragment exits; :mod:`repro.analysis` turns the findings into
diagnostics.  A failed :func:`rewrite_certain` re-runs it that way to
name every offending construct.

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
from typing import (
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union as TUnion,
)

from repro.data.schema import DatabaseSchema
from repro.sql import ast
from repro.sql.nullability import (
    Catalog,
    RewriteError,
    Scope,
    columns_in_expr,
    forced_nonnull,
)
from repro.sql.scope import output_columns

__all__ = [
    "rewrite_certain",
    "rewrite_possible",
    "RewriteError",
    "Finding",
    "pass1_findings",
]

CERTAIN = "+"
POSSIBLE = "?"

#: A mode's name as a polarity, in findings.
_POLARITY = {CERTAIN: "positive", POSSIBLE: "negative"}

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


class Finding(NamedTuple):
    """One decision of pass 1, recorded in report mode.

    ``rule`` is the :mod:`repro.analysis` rule id, ``node`` the AST node
    the decision was made at, and ``facts`` what decided it: the
    possibly-null ``columns`` (``ColumnRef``\\ s, or output names for
    SA202), the ``polarity`` (``"positive"`` for mode ``+``,
    ``"negative"`` for ``?``), the comparison ``op``, an ``escaped``
    side, or a fragment exit's ``message``.  ``boxed`` marks a finding
    inside a scalar subquery, which the engine evaluates as a black-box
    constant.  The analysis layer turns findings into diagnostics.
    """

    rule: str
    node: object
    facts: Dict[str, object]
    boxed: bool


def _subexpressions(expr: ast.SqlExpr) -> Iterator[ast.SqlExpr]:
    yield expr
    if isinstance(expr, ast.Concat):
        for part in expr.parts:
            yield from _subexpressions(part)
    elif isinstance(expr, ast.Aggregate) and expr.arg is not None:
        yield from _subexpressions(expr.arg)


def _plain_columns(expr: ast.SqlExpr) -> List[ast.ColumnRef]:
    """The column references of a SELECT-list expression outside
    aggregates and scalar subqueries."""
    if isinstance(expr, ast.ColumnRef):
        return [expr]
    if isinstance(expr, ast.Concat):
        return [column for part in expr.parts for column in _plain_columns(part)]
    return []


class _ModeRewriter:
    """The one polarity walk (Figure 3's modes), in one of two modes.

    In *rewrite mode* (``findings is None``) it builds ``Q+``/``Q?`` and
    raises :class:`RewriteError` at the first fragment exit.  In *report
    mode* it still builds the rewrite, but records a :class:`Finding` at
    every site where it decides something — a null escape added, an
    ``IS [NOT] NULL`` folded to a constant, a fragment exit (SA301) —
    and keeps walking past fragment exits.  Report mode also runs the
    checks only the analyzer needs: aggregates (SA201), ``DISTINCT`` and
    set operations (SA202), and scalar subqueries, walked as black boxes.
    """

    def __init__(self, catalog: Catalog, findings: Optional[List[Finding]] = None):
        self.catalog = catalog
        self.findings = findings
        #: >0 while walking a scalar subquery (report mode only).
        self._boxed = 0
        #: The ``x = y`` synthesized from the ``x IN (SELECT y …)`` being
        #: walked (report mode only); the IN predicate carries its finding.
        self._membership: Optional[ast.Comparison] = None

    # -- findings -------------------------------------------------------
    def _note(self, rule: str, node: object, **facts: object) -> None:
        self.findings.append(Finding(rule, node, facts, self._boxed > 0))

    def _exit(self, err: RewriteError, node: object = None) -> None:
        """A fragment exit: raise it, or in report mode record it (SA301)."""
        if self.findings is None:
            raise err
        self._note("SA301", err.node if err.node is not None else node, message=str(err))

    def _possibly_null(
        self, expr: ast.SqlExpr, scope: Scope, raw: bool = False
    ) -> List[Tuple[ast.ColumnRef, int]]:
        """The columns of *expr* that may be NULL here, with their depth.

        Every column is resolved; one that does not resolve is a fragment
        exit.  *raw* ignores the non-null facts of the positive context.
        """
        found = []
        for column in columns_in_expr(expr):
            try:
                resolved = scope.resolve(column)
            except RewriteError as err:
                self._exit(err, column)
                continue
            if scope.may_be_null(resolved, raw):
                found.append((column, resolved.depth))
        return found

    # -- queries --------------------------------------------------------
    def body(self, body, outer: Optional[Scope], mode: str):
        if isinstance(body, ast.Select):
            return self.select(body, outer, mode)
        assert isinstance(body, ast.SetOp)
        if self.findings is not None and not body.all:
            self._check_set_op(body)
        try:
            if body.op == "except" and mode == CERTAIN:
                return self._except_certain(body, outer)
            if body.op == "intersect" and mode == CERTAIN:
                return self._intersect_certain(body, outer)
            if body.op == "intersect":
                raise RewriteError(
                    "INTERSECT in a negative context is outside the rewritable fragment",
                    node=body,
                )
        except RewriteError as err:
            self._exit(err, body)
            if body.op == "except" and mode == CERTAIN and self.findings is not None:
                # The fallback below keeps EXCEPT's tuple match, which a
                # null fails naively and some valuation satisfies.
                nullable = self._nullable_outputs(body.left.body)
                nullable += self._nullable_outputs(body.right.body)
                if nullable:
                    self._note(
                        "SA102", body, columns=sorted(set(nullable)),
                        operator="except", polarity="negative",
                    )
        # (Q1 ∪ Q2)+ and (Q1 ∪ Q2)? are component-wise; (Q1 − Q2)? =
        # Q1? − Q2+, and tuple matching in the engine's EXCEPT is exact
        # (marked-null labels), i.e. set difference.
        right_mode = _flip(mode) if body.op == "except" else mode
        return ast.SetOp(
            op=body.op,
            left=ast.Query(self.body(body.left.body, outer, mode)),
            right=ast.Query(self.body(body.right.body, outer, right_mode)),
            all=body.all,
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
        escaped: List[ast.ColumnRef] = []
        for lcol, rcol in zip(left_cols, right_cols):
            disjuncts: List[ast.SqlCond] = [ast.Comparison("=", lcol, rcol)]
            for col, scope in ((lcol, left_scope), (rcol, right_scope)):
                if scope.is_possibly_null(col):
                    disjuncts.append(ast.IsNull(col))
                    escaped.append(col)
            matches.append(
                disjuncts[0] if len(disjuncts) == 1 else ast.BoolOp("or", *disjuncts)
            )
        if escaped and self.findings is not None:
            self._note("SA102", body, columns=escaped, operator="except", polarity="negative")
        right_poss = self.select(right_sel, left_scope, POSSIBLE)
        anti = ast.Exists(
            ast.Query(
                ast.Select(
                    columns=(ast.Star(),),
                    tables=right_sel.tables,
                    where=_and(list(_conjuncts(right_poss.where)) + matches),
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
                    self._exit(RewriteError(f"unknown table {ref.name!r}", node=ref))
                elif ref.name not in self.catalog.schema:
                    self._exit(RewriteError(
                        f"view {ref.name!r} referenced in a negative context; "
                        "views are rewritten for certainty and cannot soundly "
                        "over-approximate there — inline it first",
                        node=ref,
                    ))
        try:
            scope = Scope(select.tables, self.catalog, parent=outer)
        except RewriteError as err:
            self._exit(err, select)
            return select
        if mode == CERTAIN:
            forced_nonnull(select.where, scope)
        self._resolve_outputs(select, scope)
        if self.findings is not None:
            self._check_outputs(select, scope)
        return ast.Select(
            columns=select.columns,
            tables=select.tables,
            where=None if select.where is None else self.condition(select.where, scope, mode),
            distinct=select.distinct,
        )

    def _resolve_outputs(self, select: ast.Select, scope: Scope) -> None:
        """Every plain column of the SELECT list resolves in *scope*, or
        it is a fragment exit.  Columns under aggregates and scalar
        subqueries are resolved where report mode walks them."""
        for col in select.columns:
            if isinstance(col, ast.Star):
                continue
            for column in _plain_columns(col.expr):
                try:
                    scope.resolve(column)
                except RewriteError as err:
                    self._exit(err, column)

    def subquery(self, query: ast.Query, outer: Scope, mode: str) -> ast.Query:
        if query.ctes:
            self._exit(RewriteError("WITH inside subqueries is not supported", node=query.body))
            return query
        if not isinstance(query.body, ast.Select):
            self._exit(RewriteError(
                "set operations inside subqueries are not supported", node=query.body
            ))
            return ast.Query(body=self.body(query.body, outer, mode))
        return ast.Query(body=self.select(query.body, outer, mode))

    # -- conditions -----------------------------------------------------
    def condition(self, cond: ast.SqlCond, scope: Scope, mode: str) -> ast.SqlCond:
        if isinstance(cond, ast.BoolOp):
            if cond.op == "or" and mode == POSSIBLE:
                return self._or_block(cond, scope)
            return ast.BoolOp(
                cond.op, *[self.condition(item, scope, mode) for item in cond.items]
            )
        if isinstance(cond, ast.NotOp):
            try:
                pushed = negate_sql(cond.item)
            except RewriteError as err:
                self._exit(err, cond)
                return cond
            return self.condition(pushed, scope, mode)
        if isinstance(cond, ast.BoolLiteral):
            return cond
        if isinstance(cond, ast.IsNull):
            if self.findings is not None:
                self._null_test(cond, scope, mode)
            return _fold_null_test(cond)
        if isinstance(cond, ast.Comparison):
            return self.comparison(cond, scope, mode)
        if isinstance(cond, ast.Exists):
            sub_mode = _flip(mode) if cond.negated else mode
            rewritten = self.subquery(cond.query, scope, sub_mode)
            return ast.Exists(rewritten, negated=cond.negated)
        if isinstance(cond, ast.InPredicate):
            return self.in_predicate(cond, scope, mode)
        self._exit(RewriteError(f"cannot rewrite condition {cond!r}", node=cond))
        return cond

    def _or_block(self, cond: ast.BoolOp, scope: Scope) -> ast.SqlCond:
        """An ``OR`` in mode ``?``.  An ``x IS NULL`` disjunct beside a
        comparison on ``x`` is that comparison's own escape, so report
        mode reports the pair once, as the weakened comparison, and
        reports the null test only when no comparison used it."""
        escapes = frozenset(
            item.expr for item in cond.items if isinstance(item, ast.IsNull) and not item.negated
        )
        used: Set[ast.SqlExpr] = set()
        items: List[ast.SqlCond] = []
        for item in cond.items:
            if isinstance(item, ast.Comparison):
                items.append(self.comparison(item, scope, POSSIBLE, escapes, used))
            elif isinstance(item, ast.IsNull) and not item.negated:
                items.append(_fold_null_test(item))
            else:
                items.append(self.condition(item, scope, POSSIBLE))
        if self.findings is not None:
            for item in cond.items:
                if isinstance(item, ast.IsNull) and not item.negated and item.expr not in used:
                    self._null_test(item, scope, POSSIBLE)
        return ast.BoolOp("or", *items)

    def comparison(
        self,
        comp: ast.Comparison,
        scope: Scope,
        mode: str,
        escapes: frozenset = frozenset(),
        used: Optional[Set[ast.SqlExpr]] = None,
    ) -> ast.SqlCond:
        """In mode ``?``, *comp* OR an ``IS NULL`` escape per possibly-null
        side.  In mode ``+`` the SQL-adjusted ``θ*`` is *comp* itself: 3VL
        only selects TRUE comparisons, which already implies non-null
        operands.  Scalar subqueries are black boxes, untouched in either
        mode."""
        report = self.findings is not None and comp is not self._membership
        rewritten: List[ast.SqlCond] = [comp]
        for side in (comp.left, comp.right):
            if report:
                self._check_expr(side, scope)
            hazard = self._possibly_null(side, scope)
            if not hazard:
                continue
            if mode == POSSIBLE:
                rewritten.append(ast.IsNull(side))
            if report:
                self._note_comparison(comp, side, hazard, mode, escapes, used)
        return rewritten[0] if len(rewritten) == 1 else ast.BoolOp("or", *rewritten)

    def _note_comparison(self, comp, side, hazard, mode, escapes, used) -> None:
        local = [column for column, depth in hazard if depth == 0]
        outer = [column for column, depth in hazard if depth > 0]
        facts = {"op": comp.op, "polarity": _POLARITY[mode]}
        if mode == CERTAIN:
            self._note("SA203", comp, columns=local + outer, **facts)
        elif side in escapes:
            used.add(side)
            self._note("SA203", comp, columns=local + outer, escaped=side, **facts)
        else:
            if outer:
                self._note("SA105", comp, columns=outer, **facts)
            if local:
                rule = "SA103" if comp.op in ("like", "not like") else "SA101"
                self._note(rule, comp, columns=local, **facts)

    def _null_test(self, cond: ast.IsNull, scope: Scope, mode: str) -> None:
        # Deliberately *raw* schema nullability: ``b IS NOT NULL`` forces
        # b itself, which must not talk the test out of its own hazard.
        hazard = [column for column, _ in self._possibly_null(cond.expr, scope, raw=True)]
        self._check_expr(cond.expr, scope)
        if hazard:
            # IS NULL in mode + and IS NOT NULL in mode ? select *because*
            # of the null (false positives); the duals only drop tuples.
            rule = "SA104" if cond.negated == (mode == POSSIBLE) else "SA203"
            self._note(rule, cond, columns=hazard, polarity=_POLARITY[mode])

    def in_predicate(self, pred: ast.InPredicate, scope: Scope, mode: str) -> ast.SqlCond:
        if self.findings is not None:
            self._check_expr(pred.expr, scope)
        if pred.values is not None:
            operands = (pred.expr,) + pred.values
            hazards = [self._possibly_null(operand, scope) for operand in operands]
            if self.findings is not None:
                for value in pred.values:
                    self._check_expr(value, scope)
                self._note_membership(pred, [h for hazard in hazards for h in hazard], mode)
            if mode == CERTAIN:
                return pred
            # x [NOT] IN (v1..vn) possibly holds when x or some vi is null.
            base = ast.InPredicate(expr=pred.expr, values=pred.values, negated=pred.negated)
            escapes = [ast.IsNull(o) for o, hazard in zip(operands, hazards) if hazard]
            return ast.BoolOp("or", base, *escapes) if escapes else base
        # Subquery IN.  It is three-valued, so even ``x NOT IN (…)`` fails
        # closed in mode +: the membership's hazard is the current mode's,
        # while the subquery's WHERE runs in the flipped mode when negated
        # (a filtered-out member admits answers under NOT IN).
        query = pred.query
        assert query is not None
        try:
            sub, sub_scope = self._in_block(pred, scope)
            failure = None
        except RewriteError as err:
            sub = sub_scope = None
            failure = err
        if self.findings is not None:
            hazard = self._possibly_null(pred.expr, scope)
            if sub is not None:
                hazard += self._possibly_null(sub.columns[0].expr, sub_scope)
            self._note_membership(pred, hazard, mode)
        if not pred.negated and mode == CERTAIN:
            return ast.InPredicate(expr=pred.expr, query=self.subquery(query, scope, CERTAIN))
        # Remaining cases need the membership comparison inside the
        # subquery, where it can be strengthened/weakened uniformly.
        try:
            if failure is not None:
                raise failure
            exists = self._in_to_exists(pred, sub, scope, sub_scope)
        except RewriteError as err:
            self._exit(err, pred)
            return pred
        if self.findings is None:
            return self.condition(exists, scope, mode)
        # The IN predicate carries the membership's finding, so the walk
        # does not report the synthesized ``x = y`` (the last conjunct).
        outer_membership = self._membership
        self._membership = _conjuncts(exists.query.body.where)[-1]
        try:
            return self.condition(exists, scope, mode)
        finally:
            self._membership = outer_membership

    def _note_membership(self, pred: ast.InPredicate, hazard, mode: str) -> None:
        if hazard:
            rule = "SA102" if mode == POSSIBLE else "SA203"
            columns = [column for column, _ in hazard]
            self._note(rule, pred, columns=columns, polarity=_POLARITY[mode])

    def _in_block(self, pred: ast.InPredicate, scope: Scope) -> Tuple[ast.Select, Scope]:
        """The ``SELECT y FROM …`` block of ``x [NOT] IN (SELECT y …)``
        and its scope, or :class:`RewriteError` when it is not one."""
        query = pred.query
        if query.ctes or not isinstance(query.body, ast.Select):
            raise RewriteError("IN subquery must be a plain SELECT block", node=pred)
        sub = query.body
        if len(sub.columns) != 1 or isinstance(sub.columns[0], ast.Star):
            raise RewriteError("IN subquery must select exactly one column", node=pred)
        return sub, Scope(sub.tables, self.catalog, parent=scope)

    def _in_to_exists(
        self, pred: ast.InPredicate, sub: ast.Select, scope: Scope, sub_scope: Scope
    ) -> ast.Exists:
        """``x [NOT] IN (SELECT y FROM …)`` → ``[NOT] EXISTS (… AND x = y)``.

        Equivalent under the certain-answer (first-order) semantics the
        rewriting targets; the rewriter then applies the usual mode
        rules to the equality.
        """
        out = sub.columns[0]
        assert isinstance(out, ast.OutputColumn)
        # Re-qualify outer columns so they cannot be captured by the
        # subquery's own bindings.
        outer_expr = self._requalify(pred.expr, scope, sub_scope)
        membership = ast.Comparison("=", outer_expr, out.expr)
        if self.findings is not None:
            self._check_outputs(sub, sub_scope)
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
            if resolved.binding in sub_scope.tables:
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

    # -- report-only checks ---------------------------------------------
    def _check_outputs(self, select: ast.Select, scope: Scope) -> None:
        for col in select.columns:
            if not isinstance(col, ast.Star):
                self._check_expr(col.expr, scope)
        if select.distinct:
            nullable = self._nullable_outputs(select)
            if nullable:
                self._note("SA202", select, columns=sorted(nullable), operator="distinct")

    def _check_set_op(self, body: ast.SetOp) -> None:
        for side in (body.left.body, body.right.body):
            nullable = self._nullable_outputs(side)
            if nullable:
                self._note("SA202", body, columns=sorted(nullable), operator=body.op)
                return

    def _check_expr(self, expr: ast.SqlExpr, scope: Scope) -> None:
        """Aggregates (SA201) and scalar subqueries, walked as black boxes."""
        for part in _subexpressions(expr):
            if isinstance(part, ast.Aggregate) and part.arg is not None:
                # COUNT(*) never skips rows for nulls.
                hazard = [column for column, _ in self._possibly_null(part.arg, scope)]
                if hazard:
                    self._note("SA201", part, columns=hazard, function=part.func)
            elif isinstance(part, ast.ScalarSubquery):
                self._boxed += 1
                try:
                    self.body(part.query.body, scope, CERTAIN)
                finally:
                    self._boxed -= 1

    def _nullable_outputs(self, body) -> List[str]:
        """Names of output columns that may carry nulls (best effort)."""
        if isinstance(body, ast.SetOp):
            return self._nullable_outputs(body.left.body)
        try:
            scope = Scope(body.tables, self.catalog)
        except RewriteError:
            return []
        nullable: List[str] = []
        for name, expr in output_columns(body, scope):
            if isinstance(expr, ast.ColumnRef):
                try:
                    if scope.is_possibly_null(expr):
                        nullable.append(name)
                except RewriteError:
                    continue
            elif not isinstance(expr, (ast.Literal, ast.Param)):
                # Concats, aggregates and scalar subqueries may be NULL.
                nullable.append(name)
        return nullable


def _fold_null_test(cond: ast.IsNull) -> ast.BoolLiteral:
    # θ*(null(A)) = θ**(null(A)) = false; dually for const(A): possible
    # worlds contain no nulls.
    return ast.BoolLiteral(cond.negated)


def _flip(mode: str) -> str:
    return POSSIBLE if mode == CERTAIN else CERTAIN


def _pass1(
    query: ast.Query, catalog: Catalog, findings: Optional[List[Finding]] = None
) -> Tuple[List[Tuple[str, ast.Query]], TUnion[ast.Select, ast.SetOp]]:
    """Pass 1 over *query*: its rewritten views (registered in *catalog*)
    and body."""
    rewriter = _ModeRewriter(catalog, findings)
    ctes: List[Tuple[str, ast.Query]] = []
    for name, sub in query.ctes:
        view = ast.Query(body=rewriter.body(sub.body, None, CERTAIN))
        try:
            catalog.register_view(name, view)
        except RewriteError as err:
            rewriter._exit(err, sub.body)
        ctes.append((name, view))
    return ctes, rewriter.body(query.body, None, CERTAIN)


def pass1_findings(
    query: TUnion[ast.Query, ast.Select, ast.SetOp], schema: DatabaseSchema
) -> List[Finding]:
    """Run pass 1 of :func:`rewrite_certain` in report mode.

    Never raises :class:`RewriteError`: every fragment exit becomes an
    SA301 finding and the walk goes on.  :mod:`repro.analysis` builds
    its diagnostics from the result.
    """
    findings: List[Finding] = []
    _pass1(ast.query_of(query), Catalog(schema), findings)
    return findings


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
        user_ctes, body = _pass1(query, catalog)
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
    """Attach the query's fragment diagnostics to a rewrite failure.

    Re-runs pass 1 in report mode, which walks past every fragment exit,
    so the error names *every* construct that left the fragment, each
    with its source span.  Imported lazily: :mod:`repro.analysis` sits
    above this module in the layering.
    """
    from repro.analysis.analyzer import fragment_diagnostics

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
