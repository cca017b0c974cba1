"""Ground-truth certain answers and evaluation-quality metrics."""

from repro.certain.bruteforce import (
    SearchStats,
    certain_answers_with_nulls,
    certain_answers,
    possible_answer_union,
    represents_potential_answers,
    false_positives,
    false_negatives,
)
from repro.certain.metrics import (
    precision,
    recall,
    AnswerComparison,
    compare_answers,
)

__all__ = [
    "certain_answers_with_nulls",
    "certain_answers",
    "possible_answer_union",
    "represents_potential_answers",
    "false_positives",
    "false_negatives",
    "precision",
    "recall",
    "AnswerComparison",
    "compare_answers",
    "SearchStats",
]
