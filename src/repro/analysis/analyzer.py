"""Entry points of the static query-soundness analyzer.

The analyzer is pass 1 of :func:`repro.sql.rewrite.rewrite_certain` run
in report mode (:func:`repro.sql.rewrite.pass1_findings`): the one walk
over Figure 3's ``+``/``?`` modes records a finding wherever it adds a
null escape, folds an ``IS [NOT] NULL`` or leaves the fragment.  This
module owns what the findings mean: rule severities, messages and the
demotion of findings inside scalar subqueries (black-box constants).
"""

from __future__ import annotations

from typing import List, Optional, Union as TUnion

from repro.analysis.diagnostics import AnalysisReport, Diagnostic
from repro.analysis.rules import RULES, SUSPECT
from repro.data.schema import DatabaseSchema
from repro.sql import ast
from repro.sql.parser import parse_sql
from repro.sql.rewrite import Finding, pass1_findings

__all__ = ["analyze_sql", "analyze_query", "fragment_diagnostics"]

_FALSE_NEGATIVES = "(false negatives only)"
_COLLAPSE = (
    "SQL collapses nulls as if equal, which no completion has to agree with"
)

#: Message templates by (rule, shape of the node the finding sits at).
_MESSAGES = {
    ("SA101", "Comparison"): (
        "comparison {node!r} sits in a negated block and {columns} may be "
        "NULL: the witness is missed naively but appears under some "
        "valuation (false-positive source; needs an OR … IS NULL escape)"
    ),
    ("SA103", "Comparison"): (
        "LIKE {node!r} sits in a negated block and {columns} may be NULL: "
        "the witness is missed naively but appears under some valuation "
        "(false-positive source; needs an OR … IS NULL escape)"
    ),
    ("SA105", "Comparison"): (
        "correlation {node!r} references outer column(s) {columns} that the "
        "outer positive context does not force non-null; when the outer row "
        "carries the null the negated block passes vacuously"
    ),
    ("SA203", "Comparison"): (
        "filter {node!r} drops rows where {columns} is NULL even when every "
        f"completion would satisfy it {_FALSE_NEGATIVES}"
    ),
    ("SA203", "Comparison/escaped"): (
        "comparison {node!r} is weakened by an OR … IS NULL escape on "
        "{escaped!r}: sound for certainty, but the block may still drop "
        f"certain answers {_FALSE_NEGATIVES}"
    ),
    ("SA104", "IsNull"): (
        "{node!r} in {where} holds on the incomplete database but flips once "
        "the null is replaced by a constant — its truth is not "
        "valuation-invariant"
    ),
    ("SA203", "IsNull"): (
        "{node!r} drops rows on the incomplete database that every "
        f"completion would keep {_FALSE_NEGATIVES}"
    ),
    ("SA102", "InPredicate/values"): (
        "membership {node!r} sits in a negated block and {columns} may be "
        "NULL: the test is UNKNOWN naively but TRUE under some valuation"
    ),
    ("SA203", "InPredicate/values"): (
        "membership {node!r} drops rows where {columns} is NULL even when "
        f"every completion would satisfy it {_FALSE_NEGATIVES}"
    ),
    ("SA102", "InPredicate"): (
        "membership {node!r} compares possibly-null column(s) {columns} "
        "under negation: the probe is missed naively but matches under some "
        "valuation"
    ),
    ("SA203", "InPredicate"): (
        "membership {node!r} over possibly-null column(s) {columns} can miss "
        f"matches the completions would all make {_FALSE_NEGATIVES}"
    ),
    ("SA102", "SetOp"): (
        "EXCEPT's tuple match compares possibly-null column(s) {columns} "
        "under negation: a left row that no right row matches naively is "
        "matched under some valuation"
    ),
    ("SA201", "Aggregate"): (
        "{function_upper} silently drops NULLs of {columns}; its value on the "
        "incomplete database need not match any completion"
    ),
    ("SA202", "Select"): (
        "DISTINCT deduplicates over output column(s) {columns} that may be "
        f"NULL; {_COLLAPSE}"
    ),
    ("SA202", "SetOp"): (
        "{operator_upper} compares whole tuples, but output column(s) "
        f"{{columns}} may be NULL; {_COLLAPSE}"
    ),
}


def _shape(finding: Finding) -> str:
    shape = type(finding.node).__name__
    if "escaped" in finding.facts:
        return shape + "/escaped"
    if isinstance(finding.node, ast.InPredicate) and finding.node.values is not None:
        return shape + "/values"
    return shape


def _diagnostic(finding: Finding) -> Diagnostic:
    """Format one pass-1 finding as a diagnostic."""
    rule, node, facts = finding.rule, finding.node, finding.facts
    names = [getattr(column, "display", column) for column in facts.get("columns", ())]
    context = {key: value for key, value in facts.items() if key != "message"}
    if names:
        context["columns"] = ",".join(names)
    if "escaped" in facts:
        context["escaped"] = "yes"
    if rule == "SA301":
        message = facts["message"]
    else:
        message = _MESSAGES[rule, _shape(finding)].format(
            node=node,
            columns=", ".join(names),
            escaped=facts.get("escaped"),
            where="a negated block" if facts.get("polarity") == "negative" else "a positive context",
            function_upper=str(facts.get("function", "")).upper(),
            operator_upper=str(facts.get("operator", "")).upper(),
        )
    severity = RULES[rule].severity
    if finding.boxed and severity != SUSPECT:
        severity = SUSPECT
        context["demoted"] = "scalar-subquery-black-box"
        message += (
            " — demoted to suspect: the construct sits inside a scalar "
            "subquery, which the engine evaluates as a black-box constant"
        )
    return Diagnostic(
        rule=rule,
        severity=severity,
        message=message,
        span=getattr(node, "span", None),
        context=tuple(sorted(context.items())),
    )


def analyze_sql(sql: str, schema: DatabaseSchema) -> AnalysisReport:
    """Parse *sql* and analyze it against *schema*.

    Returns an :class:`~repro.analysis.diagnostics.AnalysisReport` whose
    ``verdict`` is ``certified`` (naive evaluation provably equals the
    certain answers with nulls), ``suspect`` (no false positives unless
    an SA301 finding marks a construct outside the fragment, but the
    equality can fail in the false-negative or value direction) or
    ``unsound`` (naive evaluation can return non-certain answers).
    Syntax errors propagate as :class:`~repro.sql.lexer.SqlSyntaxError`.
    """
    return analyze_query(parse_sql(sql), schema, source=sql)


def analyze_query(
    query: TUnion[ast.Query, ast.Select, ast.SetOp],
    schema: DatabaseSchema,
    source: Optional[str] = None,
) -> AnalysisReport:
    """Analyze an already-parsed query; *source* enables pretty spans."""
    report = AnalysisReport(source=source)
    for finding in pass1_findings(query, schema):
        report.add(_diagnostic(finding))
    return report.finish()


def fragment_diagnostics(
    query: TUnion[ast.Query, ast.Select, ast.SetOp],
    schema: DatabaseSchema,
) -> List[Diagnostic]:
    """All SA301 findings for *query*: every construct outside the
    rewritable fragment.

    Non-empty whenever :func:`~repro.sql.rewrite.rewrite_certain` raises
    :class:`~repro.sql.rewrite.RewriteError` on *query*, since both run
    the same walk.  The converse fails only for names that the analyzer
    alone reads: inside ``IS [NOT] NULL`` tests (which the rewrite folds
    to constants), aggregates of a SELECT list and scalar subqueries.
    """
    return analyze_query(query, schema).by_rule("SA301")
