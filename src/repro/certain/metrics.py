"""Precision/recall bookkeeping for evaluation strategies (Section 7).

*Precision* is the fraction of returned tuples that are certain answers;
the paper's translations have precision 100% by construction (Theorem 1)
while plain SQL can drop close to zero (Q2).  *Recall*, in the paper's
scenario, is measured against the certain answers that standard SQL
evaluation returns — it stood at 100% in all their experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Set, Tuple

__all__ = [
    "precision",
    "recall",
    "AnswerComparison",
    "compare_answers",
]

Row = Tuple[object, ...]


def precision(returned: Iterable[Row], certain: Iterable[Row]) -> float:
    """|returned ∩ certain| / |returned| (1.0 for an empty return set)."""
    returned_set = set(returned)
    if not returned_set:
        return 1.0
    certain_set = set(certain)
    return len(returned_set & certain_set) / len(returned_set)


def recall(returned: Iterable[Row], relevant: Iterable[Row]) -> float:
    """|returned ∩ relevant| / |relevant| (1.0 for an empty relevant set)."""
    relevant_set = set(relevant)
    if not relevant_set:
        return 1.0
    returned_set = set(returned)
    return len(returned_set & relevant_set) / len(relevant_set)


@dataclass(frozen=True)
class AnswerComparison:
    """Side-by-side quality report of two evaluations of the same query."""

    sql_returned: int
    sql_false_positives: int
    rewritten_returned: int
    missed_certain: int

    @property
    def sql_precision(self) -> float:
        if self.sql_returned == 0:
            return 1.0
        return 1.0 - self.sql_false_positives / self.sql_returned

    @property
    def rewritten_recall(self) -> float:
        """Recall wrt the certain answers SQL returned (paper's measure)."""
        relevant = self.sql_returned - self.sql_false_positives
        if relevant == 0:
            return 1.0
        return (relevant - self.missed_certain) / relevant


def compare_answers(
    sql_rows: Iterable[Row],
    rewritten_rows: Iterable[Row],
    false_positive_rows: Iterable[Row],
) -> AnswerComparison:
    """Build an :class:`AnswerComparison` from raw answer sets.

    ``false_positive_rows`` are the SQL answers flagged by the
    Section 4 detectors (a *lower bound* on the true false positives).
    """
    sql_set: Set[Row] = set(sql_rows)
    rewritten_set: Set[Row] = set(rewritten_rows)
    fp_set: Set[Row] = set(false_positive_rows) & sql_set
    certain_in_sql = sql_set - fp_set
    return AnswerComparison(
        sql_returned=len(sql_set),
        sql_false_positives=len(fp_set),
        rewritten_returned=len(rewritten_set),
        missed_certain=len(certain_in_sql - rewritten_set),
    )
