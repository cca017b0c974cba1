"""Top-level query execution: CTEs, set operations, output projection.

Two amortisation layers live here (see ``docs/engine.md``):

* :class:`PreparedQuery` separates compilation from execution, so a
  statement executed repeatedly (``repeats``/``param_draws`` loops in
  the experiment harness) compiles its blocks, join orders and hash
  indexes once and re-streams results on every :meth:`PreparedQuery.run`;
* a module-level LRU plan cache keyed on SQL text lets
  :func:`execute_sql` skip re-parsing repeated statements.

A block hands its SELECT list its slot map and its result rows.  A list
of plain columns (every paper query and every ``Q+``) projects them
with one ``itemgetter`` over their slots; any other expression goes
through its compiled closure.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple, Union as TUnion

from repro.data.database import Database
from repro.data.relation import Relation, checked_attributes
from repro.engine.blocks import CompiledBlock, ExecContext, _Col, _key_stream
from repro.engine.compile import compile_expr
from repro.engine.limits import EngineError, ResourceLimits
from repro.sql import ast
from repro.sql.parser import parse_sql
from repro.sql.scope import output_columns

__all__ = [
    "Executor",
    "PreparedQuery",
    "execute_sql",
    "execute_query",
    "parse_cached",
    "plan_cache_stats",
    "clear_plan_cache",
]

_EMPTY_ENV: Dict[Tuple[str, str], object] = {}


class PreparedQuery:
    """A compiled statement bound to one database and parameter set.

    ``run()`` may be called repeatedly; compilation artefacts (CTE
    materialisations, join orders, hash indexes, subquery probe tables
    and memo caches) persist across runs, so only the streaming work is
    repeated.  Instrumentation counters on :attr:`ctx` accumulate over
    runs.
    """

    __slots__ = ("executor", "_runner")

    def __init__(self, executor: "Executor", runner: Callable[[], Relation]):
        self.executor = executor
        self._runner = runner

    @property
    def ctx(self) -> ExecContext:
        return self.executor.ctx

    def run(self) -> Relation:
        # Each run gets a fresh wall-clock deadline (row budgets, being
        # cumulative work counters, deliberately persist across runs).
        self.executor.ctx.arm()
        return self._runner()

    def explain(self) -> str:
        """Cost-annotated plan of this statement: the ``WITH`` views it
        materialised, then one plan per block (``WITH`` view, set
        operand or body) and the total estimated cost.

        Each step reports the join order's estimated rows and — once
        the block has run — the rows it actually produced.  Costs are
        in rows examined (see :mod:`repro.engine.explain`).
        """
        from repro.engine.explain import render_plans

        return render_plans(self.ctx.ctes, self.executor.blocks)


class Executor:
    """Executes parsed queries against a database.

    One executor instance corresponds to one statement: CTEs are
    materialised once, uncorrelated subqueries are cached, and the
    ``rows_examined`` / probe-cache counters on :attr:`ctx` report how
    much work evaluation did (used by tests and the benchmarks).
    Correlated subqueries take the bucket path over a kept index (one
    source) or a probe table (several), falling back to memoized
    probing when either goes over the ``limits`` budget or the
    correlation has another shape.  :meth:`prepare` compiles without executing
    and returns a re-runnable :class:`PreparedQuery`.
    """

    def __init__(
        self,
        db: Database,
        params: Optional[Dict[str, object]] = None,
        marked_nulls: bool = False,
        limits: Optional[ResourceLimits] = None,
    ):
        self.ctx = ExecContext(db, params, marked_nulls=marked_nulls, limits=limits)
        #: top-level blocks compiled by this executor, ``WITH`` views
        #: first (what :meth:`PreparedQuery.explain` plans)
        self.blocks: List[CompiledBlock] = []

    # ------------------------------------------------------------------
    def prepare(self, query: TUnion[ast.Query, ast.Select, ast.SetOp]) -> PreparedQuery:
        """Compile *query* into a re-runnable :class:`PreparedQuery`
        under the executor's resource limits, which are fixed for its
        life: a run under other limits takes a new :class:`Executor`."""
        query = ast.query_of(query)
        seen = set()
        for name, sub in query.ctes:
            if name in seen:
                raise EngineError(f"duplicate WITH view {name!r}")
            seen.add(name)
            # Idempotent per statement: re-preparing (as PreparedQuery
            # invites) reuses the materialisation instead of erroring.
            if name not in self.ctx.ctes:
                self.ctx.ctes[name] = self._run_query(sub)
        return PreparedQuery(self, self._plan_body(query.body))

    def execute(self, query: TUnion[ast.Query, ast.Select, ast.SetOp]) -> Relation:
        return self.prepare(query).run()

    # ------------------------------------------------------------------
    def _run_query(self, query: ast.Query) -> Relation:
        return self._plan_query(query)()

    def _plan_query(self, query: ast.Query) -> Callable[[], Relation]:
        if query.ctes:
            raise EngineError("nested WITH is not supported")
        return self._plan_body(query.body)

    def _plan_body(self, body: TUnion[ast.Select, ast.SetOp]) -> Callable[[], Relation]:
        if isinstance(body, ast.Select):
            return self._plan_select(body)
        assert isinstance(body, ast.SetOp)
        left_plan = self._plan_query(body.left)
        right_plan = self._plan_query(body.right)
        op, keep_all = body.op, body.all

        def run_setop() -> Relation:
            left = left_plan()
            right = right_plan()
            if left.arity != right.arity:
                raise EngineError(
                    f"{op.upper()} operands have arity {left.arity} and {right.arity}"
                )
            # Both operands' rows are tuples of the common arity.
            if op == "union":
                rows = left.rows + right.rows
                if not keep_all:
                    rows = list(dict.fromkeys(rows))
                return Relation._unchecked(left.attributes, rows)
            right_set = set(right.rows)
            if op == "intersect":
                rows = [r for r in dict.fromkeys(left.rows) if r in right_set]
            else:
                rows = [r for r in dict.fromkeys(left.rows) if r not in right_set]
            return Relation._unchecked(left.attributes, rows)

        return run_setop

    def _plan_select(self, select: ast.Select) -> Callable[[], Relation]:
        block = CompiledBlock(select, self.ctx, parent=None)
        self.blocks.append(block)
        if len(select.columns) > 1 and any(
            isinstance(col, ast.Star) for col in select.columns
        ):
            raise EngineError("* mixed with explicit output columns")
        outputs = [
            (name, block._expr(expr)) for name, expr in output_columns(select, block.scope)
        ]
        names = checked_attributes(name for name, _expr in outputs)
        exprs = [expr for _name, expr in outputs]
        distinct = select.distinct
        if exprs and all(isinstance(expr, _Col) and expr.depth == 0 for expr in exprs):
            # Plain columns: one itemgetter over their slots.
            keys = [expr.key for expr in exprs]

            def project(slotmap, rows):
                if not rows:
                    return []
                return list(_key_stream(rows, [slotmap[key] for key in keys]))

        else:
            fns = [compile_expr(expr) for expr in exprs]

            def project(slotmap, rows):
                return [tuple(fn((slotmap, row), _EMPTY_ENV) for fn in fns) for row in rows]

        def run_select() -> Relation:
            # ``project`` builds tuples of the output width.
            rows = project(*block.run({}))
            if distinct:
                rows = list(dict.fromkeys(rows))
            return Relation._unchecked(names, rows)

        return run_select


# ---------------------------------------------------------------------------
# Plan cache: SQL text → parsed AST
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def parse_cached(sql: str) -> ast.Query:
    """Parse *sql* through the shared plan cache.

    Compiled blocks bind parameter values and per-database runtime state,
    so the artefact cached *across* databases, parameter sets and null
    semantics is the parse tree; per-statement compiled state is reused
    through :class:`PreparedQuery` instead.
    """
    return ast.query_of(parse_sql(sql))


def plan_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters of the shared SQL-text plan cache."""
    info = parse_cached.cache_info()
    return {
        "size": info.currsize,
        "maxsize": info.maxsize,
        "hits": info.hits,
        "misses": info.misses,
    }


def clear_plan_cache() -> None:
    """Drop all cached plans and reset the counters (test isolation)."""
    parse_cached.cache_clear()


def execute_query(
    db: Database,
    query: TUnion[ast.Query, ast.Select, ast.SetOp],
    params: Optional[Dict[str, object]] = None,
    marked_nulls: bool = False,
    limits: Optional[ResourceLimits] = None,
) -> Relation:
    """Execute a parsed query; returns a :class:`Relation`.

    ``marked_nulls=True`` switches equality on the *same* null from
    unknown to true — the Section 8 "marked nulls" evaluation mode.
    ``limits`` attaches a deadline/row budget to the run (see
    :mod:`repro.engine.limits`); exceeding a hard cap raises
    :class:`~repro.engine.limits.ResourceError`, while an over-budget
    probe-table build degrades to memoized probing with the same
    result (``ResourceLimits(max_probe_build_rows=0)`` forces that
    fallback everywhere it can trip).
    """
    return Executor(db, params, marked_nulls=marked_nulls, limits=limits).execute(
        ast.query_of(query)
    )


def execute_sql(
    db: Database,
    sql: TUnion[str, ast.Query, ast.Select, ast.SetOp],
    params: Optional[Dict[str, object]] = None,
    marked_nulls: bool = False,
    limits: Optional[ResourceLimits] = None,
) -> Relation:
    """Parse (if necessary, through the plan cache) and execute SQL."""
    if isinstance(sql, str):
        sql = parse_cached(sql)
    return execute_query(db, sql, params, marked_nulls=marked_nulls, limits=limits)
