"""Experiment E2 — Figure 4: the price of correctness.

For each null rate, generate DBGen-style instances and measure the
ratio ``t+/t`` of the run time of the rewritten query ``Q+_i`` to the
original ``Q_i`` on the same engine (relative performance, as in the
paper).  A ratio near 1 means correctness is (almost) free; below 1 the
correct query is *faster* (Q2's short-circuit); above 1 it is slower
(Q4's extra correlated subqueries).
"""

from __future__ import annotations

import gc
import random
import time
from typing import Dict, Iterable, List, Optional, Tuple, Union as TUnion

from repro.data.database import Database
from repro.engine import Executor
from repro.engine.executor import parse_cached
from repro.engine.limits import CancelToken
from repro.sql import ast
from repro.sql.parser import parse_sql
from repro.sql.rewrite import rewrite_certain
from repro.testing.faults import check_task_fault
from repro.tpch.dbgen import generate_instance
from repro.tpch.nullify import inject_nulls
from repro.tpch.queries import QUERIES, sample_parameters, supplied_nations
from repro.tpch.schema import tpch_schema
from repro.experiments.report import format_ratio, render_run_footer, render_series
from repro.experiments.runner import RunReport, run_tasks

__all__ = [
    "run_price_of_correctness",
    "time_query",
    "rewritten_queries",
    "main",
]


def time_query(
    db: Database,
    query: TUnion[str, ast.Query, ast.Select, ast.SetOp],
    params: Dict[str, object],
    repeats: int = 3,
) -> Tuple[float, int]:
    """Best-of-*repeats* wall-clock execution time and result size.

    ``query`` may be SQL text or an already-parsed statement.  The
    statement is prepared once (through the plan cache when given as
    text) and re-run ``repeats`` times, so the repeats measure evaluation
    rather than parsing and recompilation.  As in :mod:`timeit`, the
    cyclic garbage collector is off while a run is timed: a collection
    of objects allocated before the run would otherwise land in it, and
    can take longer than a sub-millisecond query (``Q2+``).
    """
    if isinstance(query, str):
        query = parse_cached(query)
    prepared = Executor(db, params).prepare(ast.query_of(query))
    best = float("inf")
    size = 0
    for _ in range(repeats):
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            result = prepared.run()
            elapsed = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        best = min(best, elapsed)
        size = len(result)
    return best, size


def rewritten_queries(
    query_ids=("Q1", "Q2", "Q3", "Q4"),
) -> Dict[str, Tuple[ast.Query, ast.Query]]:
    """``{qid: (original AST, automatic Q+ AST)}``.

    Tests assert the automatic rewrites answer like the paper's appendix
    rewrites.
    """
    schema = tpch_schema()
    out: Dict[str, Tuple[ast.Query, ast.Query]] = {}
    for qid in query_ids:
        original = parse_sql(QUERIES[qid][0])
        out[qid] = (original, rewrite_certain(original, schema))
    return out


def _instance_ratios(task: tuple) -> Dict[str, object]:
    """One instance's worth of Figure 4 measurements (one task).

    Returns a JSON-serialisable ``{"ratios": {qid: [t+/t, …]},
    "discarded": n}`` so results survive checkpoint round-trips;
    ``discarded`` counts samples dropped by the ``t_orig > 0`` guard.
    """
    (
        key, rate, scale, instance_seed, null_seed, param_seed,
        query_ids, param_draws, repeats,
    ) = task
    check_task_fault(key)
    queries = rewritten_queries(query_ids)
    base = generate_instance(scale=scale, seed=instance_seed)
    db = inject_nulls(base, rate, seed=null_seed)
    rng = random.Random(param_seed)
    # At scale 1 most nations have no supplier, and Q1 and Q4 stop at
    # once for them: time the work the query does, not its overhead.
    nations = supplied_nations(db)
    ratios: Dict[str, List[float]] = {qid: [] for qid in query_ids}
    discarded = 0
    for qid in query_ids:
        original, plus = queries[qid]
        for _ in range(param_draws):
            params = sample_parameters(qid, db, rng=rng)
            if "nation" in params:
                params["nation"] = rng.choice(nations)
            t_orig, _n = time_query(db, original, params, repeats)
            t_plus, _n = time_query(db, plus, params, repeats)
            if t_orig > 0:
                ratios[qid].append(t_plus / t_orig)
            else:
                discarded += 1
    return {"ratios": ratios, "discarded": discarded}


def run_price_of_correctness(
    null_rates: Iterable[float] = (0.01, 0.02, 0.03, 0.04, 0.05),
    scale: float = 1.0,
    instances: int = 2,
    param_draws: int = 2,
    repeats: int = 2,
    seed: int = 0,
    query_ids=("Q1", "Q2", "Q3", "Q4"),
    workers: Optional[int] = None,
    task_timeout: Optional[float] = None,
    retries: int = 1,
    backoff: float = 0.1,
    checkpoint: Optional[str] = None,
    cancel: Optional[CancelToken] = None,
) -> Tuple[Dict[str, List[Tuple[float, float]]], RunReport]:
    """Return ``({query: [(null rate %, avg t+/t), …]}, report)`` (Figure 4).

    The paper uses 10 instances × 5 parameter draws × 3 runs per point
    on ≥1 GB databases; the defaults keep a bench run in seconds while
    preserving the relative-performance shape.

    Each instance is one task of the fault-tolerant task runner
    (:mod:`repro.experiments.runner`), with its instance, null and
    parameter seeds drawn from ``seed`` up front, so a seed gives the
    same instances and parameters for any ``workers``.  ``workers > 1``
    fans the tasks out over a process pool; otherwise they run one at a
    time in this process.  Each task gets a ``task_timeout``, up to
    ``retries`` re-submissions with jittered ``backoff``, and a failure
    is recorded in ``report.failed_instances`` (keyed
    ``"<rate>:<instance>"``) instead of sinking the run.  ``checkpoint``
    names a JSON file updated after every completed instance;
    re-running with the same file skips instances already measured.

    ``cancel`` accepts a :class:`~repro.engine.limits.CancelToken`
    another thread may fire (the CLI's ``--time-budget`` arms one on a
    timer): the harness stops at the next instance boundary, keeps the
    measurements (and checkpoint) completed so far, and reports
    ``report.cancelled = True``.
    """
    null_rates = tuple(null_rates)
    query_ids = tuple(query_ids)
    rng = random.Random(seed)
    tasks: Dict[str, tuple] = {}
    for rate in null_rates:
        for i in range(instances):
            key = f"{rate:g}:{i}"
            tasks[key] = (
                key, rate, scale, rng.randrange(2**31), rng.randrange(2**31),
                rng.randrange(2**31), query_ids, param_draws, repeats,
            )
    results, report = run_tasks(
        _instance_ratios,
        tasks,
        workers=workers,
        task_timeout=task_timeout,
        retries=retries,
        backoff=backoff,
        checkpoint=checkpoint,
        rng=random.Random(rng.randrange(2**31)),
        cancel=cancel,
    )
    series: Dict[str, List[Tuple[float, float]]] = {qid: [] for qid in query_ids}
    for rate in null_rates:
        per_instance = [
            results[f"{rate:g}:{i}"]
            for i in range(instances)
            if f"{rate:g}:{i}" in results
        ]
        report.discarded_samples += sum(res["discarded"] for res in per_instance)
        for qid in query_ids:
            values = [r for res in per_instance for r in res["ratios"][qid]]
            avg = sum(values) / len(values) if values else float("nan")
            series[qid].append((round(rate * 100, 2), avg))
    return series, report


def main(
    workers: Optional[int] = None,
    task_timeout: Optional[float] = None,
    retries: int = 1,
    checkpoint: Optional[str] = None,
    cancel: Optional[CancelToken] = None,
) -> str:
    series, report = run_price_of_correctness(
        workers=workers,
        task_timeout=task_timeout,
        retries=retries,
        checkpoint=checkpoint,
        cancel=cancel,
    )
    text = render_series(
        "Figure 4 — average relative performance t(Q+)/t(Q) per null rate",
        "null rate %",
        series,
        y_format=format_ratio,
    )
    text += render_run_footer(report, "instances", cancel)
    print(text)
    return text


if __name__ == "__main__":
    main()
