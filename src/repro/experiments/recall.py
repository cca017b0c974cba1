"""Experiment E5 — Section 7's precision and recall measurements.

Precision of the rewritten queries is 100% by Theorem 1; recall is
measured, as in the paper, against the certain answers that standard
SQL evaluation returns: run ``Q_i`` and ``Q+_i`` on DataFiller-style
instances, flag ``Q_i``'s false positives with the Section 4 detectors,
and check that ``Q+_i`` returned every remaining (certain) answer and
no flagged one.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List

from repro.certain.metrics import AnswerComparison, compare_answers
from repro.engine import execute_sql
from repro.fp.detectors import detector_for
from repro.tpch.datafiller import generate_small_instance
from repro.tpch.nullify import inject_nulls
from repro.tpch.queries import sample_parameters
from repro.experiments.performance import rewritten_queries
from repro.experiments.report import render_table

__all__ = ["run_recall_experiment", "main"]


def run_recall_experiment(
    null_rates: Iterable[float] = (0.01, 0.03, 0.05),
    instances: int = 3,
    param_draws: int = 3,
    scale: float = 0.05,
    seed: int = 0,
    query_ids=("Q1", "Q2", "Q3", "Q4"),
) -> Dict[str, List[AnswerComparison]]:
    """Return per-query :class:`AnswerComparison` lists over all runs."""
    rng = random.Random(seed)
    queries = rewritten_queries(query_ids)
    out: Dict[str, List[AnswerComparison]] = {qid: [] for qid in query_ids}

    for rate in null_rates:
        for _ in range(instances):
            base = generate_small_instance(scale=scale, seed=rng.randrange(2**31))
            db = inject_nulls(base, rate, seed=rng.randrange(2**31))
            for qid in query_ids:
                original, plus = queries[qid]
                detect = detector_for(qid)
                for _ in range(param_draws):
                    params = sample_parameters(qid, db, rng=rng)
                    sql_rows = execute_sql(db, original, params).rows
                    plus_rows = execute_sql(db, plus, params).rows
                    flagged = [r for r in sql_rows if detect(params, db, r)]
                    out[qid].append(compare_answers(sql_rows, plus_rows, flagged))
    return out


def main() -> str:
    results = run_recall_experiment()
    rows = []
    for qid in sorted(results):
        comparisons = results[qid]
        total_sql = sum(c.sql_returned for c in comparisons)
        total_fp = sum(c.sql_false_positives for c in comparisons)
        total_missed = sum(c.missed_certain for c in comparisons)
        recalls = [c.rewritten_recall for c in comparisons]
        rows.append(
            [
                qid,
                str(total_sql),
                str(total_fp),
                f"{100.0 * (1 - total_fp / total_sql) if total_sql else 100.0:.1f}%",
                str(total_missed),
                f"{100.0 * min(recalls):.1f}%" if recalls else "—",
            ]
        )
    text = render_table(
        "Section 7 — precision/recall: Q+ vs certain answers returned by SQL",
        ["Query", "SQL answers", "detected FPs", "SQL precision ≤", "missed certain", "Q+ recall ≥"],
        rows,
    )
    print(text)
    return text


if __name__ == "__main__":
    main()
