"""A small executable SQL engine — the paper's PostgreSQL stand-in.

The engine executes the supported SQL fragment under standard SQL
three-valued semantics, with the physical behaviours the paper's
performance story depends on:

* hash equi-joins with greedy join ordering — so an ``OR … IS NULL`` on
  a join condition *genuinely* defeats the hash path and falls back to
  nested loops, exactly the Q4 phenomenon of Section 7;
* correlated subqueries probed through hash indexes on their
  correlation columns, with first-match short-circuiting (``EXISTS``);
* uncorrelated subquery predicates evaluated once, before the main
  join, short-circuiting the whole query — the source of ``Q+2``'s
  1000× speed-up;
* ``WITH`` views materialised once per query.

Use :func:`execute_sql` for text or parsed queries, and
:func:`explain_sql` for the cost-annotated plan (the "astronomical
estimates" of Section 7 are visible there for the unsplit ``Q+4``).
"""

from repro.engine.executor import (
    Executor,
    PreparedQuery,
    clear_plan_cache,
    execute_query,
    execute_sql,
    plan_cache_stats,
)
from repro.engine.explain import explain_sql
from repro.engine.limits import (
    CancelToken,
    QueryCancelled,
    QueryTimeout,
    ResourceError,
    ResourceLimits,
    RowBudgetExceeded,
)

__all__ = [
    "execute_sql",
    "execute_query",
    "Executor",
    "PreparedQuery",
    "explain_sql",
    "plan_cache_stats",
    "clear_plan_cache",
    "ResourceLimits",
    "ResourceError",
    "QueryTimeout",
    "RowBudgetExceeded",
    "QueryCancelled",
    "CancelToken",
]
