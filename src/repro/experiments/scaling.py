"""Experiment E3 — Table 1: relative performance across instance sizes.

The paper's hypothesis is that ``t+/t`` barely depends on instance size
(confirmed for Q1–Q3; Q4 degrades with size because its rewriting has
three extra lineitem-joining subqueries).  We reproduce the table with
scale units 1×/3×/6×/10× standing in for 1/3/6/10 GB.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Optional, Tuple

from repro.engine.limits import CancelToken
from repro.experiments.performance import rewritten_queries, time_query
from repro.experiments.report import format_ratio, render_run_footer, render_table
from repro.experiments.runner import RunReport, run_tasks
from repro.testing.faults import check_task_fault
from repro.tpch.dbgen import generate_instance
from repro.tpch.nullify import inject_nulls
from repro.tpch.queries import sample_parameters

__all__ = ["run_scaling_experiment", "main"]


def _scale_rate_averages(task: tuple) -> Dict[str, object]:
    """Per-(scale, rate) average ratios (one task).

    Returns JSON-serialisable ``{"averages": {qid: avg}, "discarded": n}``
    so results survive checkpoint round-trips.
    """
    (
        key, scale, rate, instance_seed, null_seed, param_seed,
        query_ids, param_draws, repeats, base_scale,
    ) = task
    check_task_fault(key)
    queries = rewritten_queries(query_ids)
    base = generate_instance(scale=scale * base_scale, seed=instance_seed)
    db = inject_nulls(base, rate, seed=null_seed)
    rng = random.Random(param_seed)
    averages: Dict[str, float] = {}
    discarded = 0
    for qid in query_ids:
        original, plus = queries[qid]
        ratios = []
        for _ in range(param_draws):
            params = sample_parameters(qid, db, rng=rng)
            t_orig, _ = time_query(db, original, params, repeats)
            t_plus, _ = time_query(db, plus, params, repeats)
            if t_orig > 0:
                ratios.append(t_plus / t_orig)
            else:
                discarded += 1
        if ratios:
            averages[qid] = sum(ratios) / len(ratios)
    return {"averages": averages, "discarded": discarded}


def run_scaling_experiment(
    scales: Iterable[float] = (1.0, 3.0, 6.0, 10.0),
    null_rates: Iterable[float] = (0.01, 0.03, 0.05),
    param_draws: int = 2,
    repeats: int = 1,
    seed: int = 0,
    query_ids=("Q1", "Q2", "Q3", "Q4"),
    base_scale: float = 0.5,
    workers: Optional[int] = None,
    task_timeout: Optional[float] = None,
    retries: int = 1,
    backoff: float = 0.1,
    checkpoint: Optional[str] = None,
    cancel: Optional[CancelToken] = None,
) -> Tuple[Dict[str, Dict[float, Tuple[float, float]]], RunReport]:
    """Return ``({query: {scale: (min avg ratio, max avg ratio)}}, report)``.

    For each scale, the ratio is averaged per null rate and the reported
    range is over null rates — exactly how Table 1 summarises Figure 4's
    data at larger sizes.  ``base_scale`` maps "1 GB" onto a generator
    scale unit.  Each (scale, null rate) cell is one task of the
    fault-tolerant task runner, with the same seeding and the same
    ``workers``/``task_timeout``/``retries``/``backoff``/``checkpoint``/
    ``cancel`` semantics as
    :func:`~repro.experiments.performance.run_price_of_correctness`
    (failures land in ``report.failed_instances`` keyed
    ``"<scale>:<rate>"``; cancellation stops at the next cell boundary).
    """
    scales = tuple(scales)
    null_rates = tuple(null_rates)
    query_ids = tuple(query_ids)
    rng = random.Random(seed)
    tasks: Dict[str, tuple] = {}
    for scale in scales:
        for rate in null_rates:
            key = f"{scale:g}:{rate:g}"
            tasks[key] = (
                key, scale, rate, rng.randrange(2**31), rng.randrange(2**31),
                rng.randrange(2**31), query_ids, param_draws, repeats,
                base_scale,
            )
    results, report = run_tasks(
        _scale_rate_averages,
        tasks,
        workers=workers,
        task_timeout=task_timeout,
        retries=retries,
        backoff=backoff,
        checkpoint=checkpoint,
        rng=random.Random(rng.randrange(2**31)),
        cancel=cancel,
    )
    table: Dict[str, Dict[float, Tuple[float, float]]] = {q: {} for q in query_ids}
    for scale in scales:
        cells = [
            results[f"{scale:g}:{rate:g}"]
            for rate in null_rates
            if f"{scale:g}:{rate:g}" in results
        ]
        report.discarded_samples += sum(cell["discarded"] for cell in cells)
        for qid in query_ids:
            values = [
                cell["averages"][qid] for cell in cells if qid in cell["averages"]
            ]
            if values:
                table[qid][scale] = (min(values), max(values))
    return table, report


def main(
    workers: Optional[int] = None,
    task_timeout: Optional[float] = None,
    retries: int = 1,
    checkpoint: Optional[str] = None,
    cancel: Optional[CancelToken] = None,
) -> str:
    results, report = run_scaling_experiment(
        workers=workers,
        task_timeout=task_timeout,
        retries=retries,
        checkpoint=checkpoint,
        cancel=cancel,
    )
    scales = sorted({s for per in results.values() for s in per})
    header = ["Query"] + [f"{s:g}x" for s in scales]
    rows = []
    for qid in sorted(results):
        row = [qid]
        for s in scales:
            lo_hi = results[qid].get(s)
            row.append(
                "—" if lo_hi is None else f"{format_ratio(lo_hi[0])} – {format_ratio(lo_hi[1])}"
            )
        rows.append(row)
    text = render_table(
        "Table 1 — ranges of average relative performance (Q+ vs Q) per size",
        header,
        rows,
    )
    text += render_run_footer(report, "cells", cancel)
    print(text)
    return text


if __name__ == "__main__":
    main()
