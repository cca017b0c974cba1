"""Static query-soundness analysis (``repro.analysis``).

A rule-based analyzer that reports where naive SQL evaluation can
diverge from certain answers with nulls — the divergence the paper
measures and repairs.  Its walk is the rewriter's pass 1 run in report
mode, so every finding sits where the rewrite decides something.  See ``docs/analyzer.md``
for the rule catalog and verdict semantics, and ``python -m repro lint``
for the CLI.
"""

from repro.analysis.analyzer import analyze_query, analyze_sql, fragment_diagnostics
from repro.analysis.diagnostics import AnalysisReport, Diagnostic, severity_rank
from repro.analysis.render import render_json, render_pretty
from repro.analysis.rules import CERTIFIED, RULES, Rule, SUSPECT, UNSOUND, rule

__all__ = [
    "AnalysisReport",
    "Diagnostic",
    "Rule",
    "RULES",
    "CERTIFIED",
    "SUSPECT",
    "UNSOUND",
    "analyze_query",
    "analyze_sql",
    "fragment_diagnostics",
    "render_json",
    "render_pretty",
    "rule",
    "severity_rank",
]
