"""EXPLAIN: the plan the engine runs, costed in the rows it examines.

There is one cardinality model: a join step's estimate is the one the
selectivity-driven planner ordered it by
(:func:`repro.engine.stats.choose_join_order`, reached through
``CompiledBlock._join_model``), and a step costs those rows — the unit
of ``ExecContext.rows_examined``.  Subquery predicates cost what the
engine does with them: a bucket-path one reads one bucket of a kept
index per row of the step it is attached to; a probe-table one builds
its table once (the unit of ``probe_build_rows``) and is listed with
the per-row plan it falls back to over budget, uncounted; a memoized
one runs its plan once per row of that step; an uncorrelated one runs
once.  That is enough to *show* the Section 7 optimizer story: without
disjunction splitting, ``Q+4``'s subquery joins its tables by nested
loops, and its estimated cost is orders of magnitude above both the
original query's and the split rewriting's.

EXPLAIN reads each block through a throwaway copy, planned the way its
first run plans it, so it changes no state a later run reads.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence, Tuple, Union as TUnion

from repro.data.database import Database
from repro.engine.blocks import (
    CompiledBlock,
    _Bool,
    _Cmp,
    _Cond,
    _CorrelatedSubquery,
    _Exists,
    _Not,
    _ScalarSubquery,
    _constant_free,
)
from repro.engine.executor import Executor
from repro.sql import ast
from repro.sql.parser import parse_sql

__all__ = ["explain_sql", "PlanNode", "estimate_block"]


class PlanNode:
    """One plan line: a block, a join step or a subquery predicate.

    A line costs its own ``cost`` plus its children's, the children
    ``repeat`` times (a correlated subquery's estimated invocations).
    A step's own cost is its estimated rows.
    """

    def __init__(
        self,
        description: str,
        est_rows: float,
        children: Optional[List["PlanNode"]] = None,
        repeat: float = 1.0,
        cost: float = 0.0,
        step: bool = False,
        actual_rows: Optional[int] = None,
    ):
        self.description = description
        self.est_rows = est_rows
        self.children = children or []
        self.repeat = repeat
        self.cost = est_rows if step else cost
        self.step = step
        #: rows the step actually produced (before attached residuals),
        #: accumulated across runs; ``None`` until the block has run
        self.actual_rows = actual_rows

    def total_cost(self) -> float:
        return self.cost + self.repeat * sum(child.total_cost() for child in self.children)

    def render(self, depth: int = 0) -> str:
        line = "  " * depth + self.description + "  "
        if self.step:
            line += f"[order est≈{self.est_rows:.0f}"
            if self.actual_rows is not None:
                line += f", actual {self.actual_rows}"
            line += "]"
        else:
            line += f"(rows≈{self.est_rows:.0f}, cost≈{self.total_cost():.0f})"
        return "\n".join([line] + [child.render(depth + 1) for child in self.children])


def _planned(
    block: CompiledBlock,
    probes: Optional[Sequence[Tuple[object, object]]],
    env_available: bool,
) -> CompiledBlock:
    """A throwaway copy of *block* with the plan it runs (the one it has,
    or the one its first run will make), or with a fresh plan over other
    *probes*."""
    plan = copy.copy(block)
    plan._filtered = {}
    if probes is not None:
        plan.probes = list(probes)
        plan._order = None
    plan._prepare(env_available)  # a no-op once the block has run
    return plan


def estimate_block(
    block: CompiledBlock,
    correlated: bool = False,
    probes: Optional[Sequence[Tuple[object, object]]] = None,
) -> PlanNode:
    """The plan of one block (children: its steps, then its subquery
    predicates).  *probes* plans it afresh over other equality probes,
    as a decorrelated predicate's probe-table build does."""
    env_available = correlated or bool(block.probes if probes is None else probes)
    plan = _planned(block, probes, env_available)
    estimates = plan._order_estimates
    if estimates is None:  # a single source runs without the model
        _order, estimates, _stats = plan._join_model(plan.probes, env_available)
    ran = probes is None and block._order is not None
    actual = block._step_actual if ran else None

    children: List[PlanNode] = []
    for i, (binding, keys) in enumerate(plan._order):
        table = plan.sources[binding].table
        if keys:
            how = f"hash probe {table} [{', '.join(col for col, _src in keys)}]"
        else:
            how = f"{'scan' if i == 0 else 'nested loop'} {table}"
        rows = None if actual is None else actual[i]
        children.append(PlanNode(how, estimates[i], step=True, actual_rows=rows))
    # Conditions without local columns run once per block invocation,
    # attached ones once per row of their step.
    attached = [(cond, 1.0) for cond in plan._pre]
    for i, conds in enumerate(plan._attached):
        attached.extend((cond, estimates[i]) for cond in conds)
    for cond, invocations in attached:
        children.extend(_subquery_node(sub, invocations) for sub in _subqueries_of(cond))

    return PlanNode(
        f"block over {', '.join(s.table for s in block.sources.values())}",
        estimates[-1],
        children,
    )


def _subquery_node(
    sub: TUnion[_CorrelatedSubquery, _ScalarSubquery], invocations: float
) -> PlanNode:
    """A subquery predicate's line: what the engine does with its block."""
    block = sub.block
    if isinstance(sub, _ScalarSubquery):
        label = f"scalar {sub.func.upper()}"
    else:
        kind = "EXISTS" if isinstance(sub, _Exists) else "IN"
        label = f"NOT {kind}" if sub.negated else kind
    if isinstance(sub, _CorrelatedSubquery) and sub.bucketed:
        # Each probe reads one bucket of the kept index: its rows are the
        # index's average bucket, and it finds one if its key is among
        # the index's keys (probe keys taken as distinct and covering
        # them, the foreign-key case).  The model lets residuals pass,
        # so an EXISTS examines one row of a found bucket (it stops at
        # the first witness) and an IN all of them.  Subqueries under
        # it run per examined row, per probe if they read only the
        # outer row, and once if they read neither.
        keys = sub.bucket_keys()
        rows, distinct = _index_size(block, keys)
        per_probe = rows / distinct
        found = min(1.0, distinct / max(invocations, 1.0)) if rows else 0.0
        examined = found * (1.0 if isinstance(sub, _Exists) else per_probe)
        nested = []
        for cond in block.residuals:
            if cond.local_keys:
                runs = invocations * examined
            else:
                runs = invocations if cond.has_outer else 1.0
            nested.extend(_subquery_node(inner, runs) for inner in _subqueries_of(cond))
        return PlanNode(
            f"{label} (kept index [{', '.join(col for _b, col in keys)}],"
            f" ×{invocations:.0f} probes)",
            per_probe,
            nested,
            cost=invocations * examined,
        )
    if isinstance(sub, _CorrelatedSubquery) and sub.decor is not None:
        # Costed as one pass over the block without its correlated
        # probes; listed with the per-row plan the predicate falls back
        # to when that build goes over budget, run zero times.
        kept = [(key, expr) for key, expr in block.probes if not expr.has_outer]
        build = estimate_block(block, True, kept)
        per_row = estimate_block(block, True, sub._saved_probes or block.probes)
        return PlanNode(
            f"{label} (probe table, one build)",
            build.est_rows,
            per_row.children,
            repeat=0.0,
            cost=build.total_cost(),
        )
    if block.external:
        how, repeat = f"×{invocations:.0f} invocations", invocations
    else:
        how, repeat = "×1 invocation", 1.0
    node = estimate_block(block, bool(block.external))
    return PlanNode(f"{label} ({how})", node.est_rows, node.children, repeat)


def _index_size(block: CompiledBlock, keys: Sequence[Tuple[str, str]]) -> Tuple[int, float]:
    """The rows of the index a bucket-path predicate reads (its source's
    constant-free-filtered rows) and its estimated number of keys (the
    join-order model's NDV product, between 1 and the rows)."""
    (source,) = block.sources.values()
    stats = block._kept_source(_constant_free(source))
    distinct = 1.0
    for _binding, col in keys:
        distinct *= stats.ndv(source.columns.index(col))
    return len(stats), max(1.0, min(float(max(len(stats), 1)), distinct))


def _subqueries_of(cond: _Cond) -> List[TUnion[_CorrelatedSubquery, _ScalarSubquery]]:
    if isinstance(cond, _CorrelatedSubquery):
        return [cond]
    if isinstance(cond, _Cmp):
        return [e for e in (cond.left, cond.right) if isinstance(e, _ScalarSubquery)]
    if isinstance(cond, _Bool):
        return [sub for item in cond.items for sub in _subqueries_of(item)]
    if isinstance(cond, _Not):
        return _subqueries_of(cond.item)
    return []


def explain_sql(
    db: Database,
    sql: TUnion[str, ast.Query, ast.Select, ast.SetOp],
    params: Optional[Dict[str, object]] = None,
) -> str:
    """Return the cost-annotated plan of a query (see
    :meth:`~repro.engine.executor.PreparedQuery.explain`)."""
    if isinstance(sql, str):
        sql = parse_sql(sql)
    return Executor(db, params).prepare(sql).explain()


def render_plans(ctes: Dict[str, object], blocks: Sequence[CompiledBlock]) -> str:
    """The ``WITH`` views a statement materialised, the plan of each of
    its blocks, and their total estimated cost."""
    lines = [f"-- WITH {name}: materialised ({len(rel)} rows)" for name, rel in ctes.items()]
    plans = [estimate_block(block) for block in blocks]
    lines.extend(plan.render() for plan in plans)
    lines.append(f"-- total estimated cost: {sum(p.total_cost() for p in plans):.0f}")
    return "\n".join(lines)
