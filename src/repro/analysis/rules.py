"""The static soundness rule catalog.

Each rule describes one syntactic shape whose naive SQL evaluation can
diverge from certain answers on incomplete databases (Sections 3/4 of
the paper).  Rules come in two severities:

* ``unsound`` — the shape can produce **false positives**: naive SQL may
  return tuples that are not certain answers.  These are exactly the
  shapes behind the paper's Q1–Q4 false-positive measurements.
* ``suspect`` — the shape cannot produce false positives but breaks the
  ``naive == certain`` equality in other ways (false negatives, value
  drift in aggregates, null collapsing in ``DISTINCT``/set ops), or
  falls outside the fragment the rewriter can repair.

A query with *no* diagnostics at all earns the ``certified`` verdict:
its naive evaluation provably equals its certain answers with nulls
(every construct it contains is valuation-invariant).  The property
tests in ``tests/analysis/test_properties.py`` pin both directions
against :func:`repro.certain.certain_answers_with_nulls`.

``docs/analyzer.md`` renders this catalog; keep the two in sync.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["Rule", "RULES", "UNSOUND", "SUSPECT", "CERTIFIED", "rule"]

#: Verdict / severity levels, ordered from best to worst.
CERTIFIED = "certified"
SUSPECT = "suspect"
UNSOUND = "unsound"


@dataclass(frozen=True)
class Rule:
    """One entry of the rule catalog."""

    id: str
    slug: str
    severity: str
    title: str
    explanation: str


_CATALOG = (
    Rule(
        id="SA101",
        slug="nullable-comparison-under-negation",
        severity=UNSOUND,
        title="Comparison over a possibly-null column in a negated block",
        explanation=(
            "Inside NOT EXISTS (or a NOT IN subquery) a comparison whose "
            "operand may be NULL evaluates to UNKNOWN, so the witness row "
            "is missed and the negation succeeds — yet some valuation of "
            "the null makes the comparison TRUE, creating the witness and "
            "falsifying the answer.  This is the Q1/Q2/Q3 false-positive "
            "shape; the rewriter repairs it with an OR … IS NULL escape."
        ),
    ),
    Rule(
        id="SA102",
        slug="nullable-membership-under-negation",
        severity=UNSOUND,
        title=(
            "Membership (IN, or EXCEPT's tuple match) over possibly-null "
            "values under negation"
        ),
        explanation=(
            "An IN predicate inside a negated block compares the probe "
            "expression against member values; if either side may be NULL "
            "the membership test can be UNKNOWN naively while TRUE under "
            "some valuation, so the negation admits non-certain answers.  "
            "EXCEPT is the same shape: a left row survives naively when no "
            "right row matches it, yet a possibly-null column on either "
            "side can make some right row match under a valuation.  The "
            "rewriter repairs both with OR … IS NULL escapes."
        ),
    ),
    Rule(
        id="SA103",
        slug="nullable-like-under-negation",
        severity=UNSOUND,
        title="LIKE over a possibly-null column in a negated block",
        explanation=(
            "A LIKE whose string operand may be NULL is UNKNOWN naively; "
            "under a valuation the pattern may match, creating the excluded "
            "witness.  This is Q4's p_name LIKE '%$color%' shape, repaired "
            "in the appendix by the part_view null branch."
        ),
    ),
    Rule(
        id="SA104",
        slug="null-test-not-valuation-invariant",
        severity=UNSOUND,
        title="IS [NOT] NULL test whose truth is not valuation-invariant",
        explanation=(
            "IS NULL in a positive context selects rows precisely because a "
            "value is unknown, but every valuation replaces the null by a "
            "constant and the test turns FALSE — the selected tuple is "
            "never a certain answer.  Dually, IS NOT NULL inside a negated "
            "block misses witnesses that appear once the null is valuated.  "
            "(The rewriter's Figure 3 maps both to FALSE.)"
        ),
    ),
    Rule(
        id="SA105",
        slug="unforced-correlation",
        severity=UNSOUND,
        title="Correlation on an outer column not forced non-null",
        explanation=(
            "A correlation predicate inside a negated block references an "
            "outer column that is nullable and not forced non-null by the "
            "outer positive context.  When the outer row carries the null, "
            "the correlated comparison is UNKNOWN for every inner row, the "
            "negation succeeds vacuously, and the answer is falsifiable.  "
            "(In Q1 the outer conjunct s_suppkey = l1.l_suppkey forces "
            "l1.l_suppkey non-null, which is why Q1 does not trip this "
            "rule — the positive-context analysis of repro.sql.nullability "
            "is what decides it.)"
        ),
    ),
    Rule(
        id="SA201",
        slug="aggregate-over-nullable",
        severity=SUSPECT,
        title="Aggregate over a possibly-null column",
        explanation=(
            "SQL aggregates silently drop NULLs, so the aggregate value on "
            "the incomplete database can differ from its value in every "
            "completion.  The paper treats aggregate subqueries as black-box "
            "constants (Section 3), which keeps this sound for certainty "
            "but makes the computed constant itself debatable."
        ),
    ),
    Rule(
        id="SA202",
        slug="distinct-or-setop-over-nullable",
        severity=SUSPECT,
        title="DISTINCT or set operation over possibly-null output columns",
        explanation=(
            "DISTINCT, UNION, INTERSECT and EXCEPT compare whole tuples; "
            "SQL collapses NULLs as if equal while distinct marked nulls "
            "may denote different values, so deduplication can merge or "
            "separate tuples differently from every completion."
        ),
    ),
    Rule(
        id="SA203",
        slug="nullable-filter-false-negatives",
        severity=SUSPECT,
        title="Positive filter over a possibly-null column",
        explanation=(
            "A comparison in a positive context only selects rows where it "
            "is TRUE, which is sound — but rows carrying the null are "
            "dropped even when every valuation would satisfy the filter, so "
            "naive answers can miss certain answers (false negatives only)."
        ),
    ),
    Rule(
        id="SA301",
        slug="outside-rewrite-fragment",
        severity=SUSPECT,
        title="Construct outside the rewritable fragment",
        explanation=(
            "The construct falls outside the fragment repro.sql.rewrite "
            "can repair (and often outside what this analyzer can reason "
            "about), so neither a certainty guarantee nor an automatic "
            "rewriting is available for it."
        ),
    ),
)

RULES: Dict[str, Rule] = {r.id: r for r in _CATALOG}


def rule(rule_id: str) -> Rule:
    try:
        return RULES[rule_id]
    except KeyError:
        raise KeyError(f"unknown rule {rule_id!r}; have {sorted(RULES)}") from None
