"""Unit tests for the analyzer's rule catalog, one shape per rule."""

import re
from pathlib import Path

import pytest

from repro.analysis import (
    CERTIFIED,
    RULES,
    SUSPECT,
    UNSOUND,
    analyze_sql,
    render_json,
    render_pretty,
    severity_rank,
)
from repro.data.schema import DatabaseSchema, make_schema


@pytest.fixture()
def schema():
    s = DatabaseSchema()
    s.add(make_schema("t", [("a", "int"), ("b", "int")], key=("a",)))
    s.add(make_schema("s", [("c", "int"), ("d", "int")], key=("c",)))
    return s


def rules_of(report):
    return sorted({d.rule for d in report.diagnostics})


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


def test_certified_when_only_nonnullable_columns(schema):
    report = analyze_sql("SELECT a FROM t WHERE a = 1", schema)
    assert report.verdict == CERTIFIED
    assert report.diagnostics == []


def test_projection_of_nullable_column_is_certified(schema):
    # Marked nulls in the output are still certain answers: every
    # valuation maps the output tuple into the valuated answer set.
    report = analyze_sql("SELECT b FROM t", schema)
    assert report.verdict == CERTIFIED


def test_severity_order():
    assert severity_rank(CERTIFIED) < severity_rank(SUSPECT) < severity_rank(UNSOUND)


def test_catalog_is_consistent():
    for rule_id, rule in RULES.items():
        assert rule.id == rule_id
        assert rule.severity in (UNSOUND, SUSPECT)
        assert rule.slug and rule.title and rule.explanation


def test_docs_catalog_lists_exactly_the_rules():
    """docs/analyzer.md's rule table names every rule, with its slug and
    severity, and no other."""
    docs = Path(__file__).resolve().parents[2] / "docs" / "analyzer.md"
    rows = [
        tuple(cell.strip() for cell in line.strip("|").split("|")[:3])
        for line in docs.read_text(encoding="utf-8").splitlines()
        if re.match(r"\| SA\d{3} \|", line)
    ]
    assert sorted(rows) == sorted((r.id, r.slug, r.severity) for r in RULES.values())


# ---------------------------------------------------------------------------
# Unsound rules (SA1xx)
# ---------------------------------------------------------------------------


def test_sa101_nullable_comparison_under_negation(schema):
    report = analyze_sql(
        "SELECT a FROM t WHERE NOT EXISTS (SELECT * FROM s WHERE s.d = t.a)",
        schema,
    )
    assert report.verdict == UNSOUND
    assert rules_of(report) == ["SA101"]


def test_sa101_respects_forced_nonnull(schema):
    # The positive conjunct b = 1 forces t.b non-null (3VL TRUE needs
    # constants), so the correlated comparison is safe — the Q1 shape.
    report = analyze_sql(
        "SELECT a FROM t WHERE b = 1 "
        "AND NOT EXISTS (SELECT * FROM s WHERE s.c = t.b)",
        schema,
    )
    assert report.verdict != UNSOUND
    assert not report.by_rule("SA101") and not report.by_rule("SA105")


def test_top_level_not_in_fails_closed(schema):
    # IN is three-valued: a null member makes ``a NOT IN (…)`` UNKNOWN,
    # and UNKNOWN survives the NOT — the row is dropped, never returned.
    # Unlike NOT EXISTS there is no unknown→false absorption, so a
    # top-level NOT IN over a nullable column is sound (only false
    # negatives, SA203).
    report = analyze_sql(
        "SELECT a FROM t WHERE a NOT IN (SELECT d FROM s)", schema
    )
    assert report.verdict == SUSPECT
    assert report.unsound == []
    assert "SA203" in rules_of(report)


def test_sa102_in_subquery_inside_not_exists(schema):
    # Here the UNKNOWN membership is swallowed: the inner row fails to
    # witness the EXISTS, which the outer NOT turns into TRUE.
    report = analyze_sql(
        "SELECT a FROM t WHERE NOT EXISTS "
        "(SELECT * FROM s WHERE s.c IN (SELECT b FROM t))",
        schema,
    )
    assert report.verdict == UNSOUND
    assert "SA102" in rules_of(report)


def test_sa102_not_in_filtered_subquery_admits_answers(schema):
    # The subquery's own WHERE evaluates at the flipped polarity: an
    # UNKNOWN filter shrinks the member set, and a smaller set makes
    # NOT IN *more* likely true — a genuine false-positive channel.
    report = analyze_sql(
        "SELECT a FROM t WHERE a NOT IN (SELECT c FROM s WHERE s.d = 1)",
        schema,
    )
    assert report.verdict == UNSOUND


def test_sa102_in_values_inside_not_exists(schema):
    report = analyze_sql(
        "SELECT a FROM t WHERE NOT EXISTS (SELECT * FROM s WHERE s.d IN (1, 2))",
        schema,
    )
    assert report.verdict == UNSOUND
    assert "SA102" in rules_of(report)


def test_positive_in_subquery_is_not_unsound(schema):
    report = analyze_sql("SELECT a FROM t WHERE a IN (SELECT d FROM s)", schema)
    assert report.verdict == SUSPECT
    assert report.unsound == []


def test_sa103_like_under_negation(schema):
    report = analyze_sql(
        "SELECT a FROM t WHERE NOT EXISTS "
        "(SELECT * FROM s WHERE s.d LIKE '%x%')",
        schema,
    )
    assert report.verdict == UNSOUND
    assert "SA103" in rules_of(report)


def test_sa104_is_null_in_positive_context(schema):
    report = analyze_sql("SELECT a FROM t WHERE b IS NULL", schema)
    assert report.verdict == UNSOUND
    assert rules_of(report) == ["SA104"]


def test_sa104_is_not_null_under_negation(schema):
    report = analyze_sql(
        "SELECT a FROM t WHERE NOT EXISTS "
        "(SELECT * FROM s WHERE s.d IS NOT NULL)",
        schema,
    )
    assert report.verdict == UNSOUND
    assert rules_of(report) == ["SA104"]


def test_is_not_null_positive_is_only_suspect(schema):
    report = analyze_sql("SELECT a FROM t WHERE b IS NOT NULL", schema)
    assert report.verdict == SUSPECT
    assert rules_of(report) == ["SA203"]


def test_is_null_on_nonnullable_column_is_invariant(schema):
    report = analyze_sql("SELECT a FROM t WHERE a IS NULL", schema)
    assert report.verdict == CERTIFIED


def test_sa105_unforced_correlation(schema):
    report = analyze_sql(
        "SELECT a FROM t WHERE NOT EXISTS (SELECT * FROM s WHERE s.c = t.b)",
        schema,
    )
    assert report.verdict == UNSOUND
    assert rules_of(report) == ["SA105"]


def test_not_pushes_through_to_negative_polarity(schema):
    # NOT (EXISTS …) is NOT EXISTS after negation push-through.
    report = analyze_sql(
        "SELECT a FROM t WHERE NOT EXISTS (SELECT * FROM s WHERE s.d = 1)",
        schema,
    )
    via_not = analyze_sql(
        "SELECT a FROM t WHERE NOT (EXISTS (SELECT * FROM s WHERE s.d = 1))",
        schema,
    )
    assert rules_of(report) == rules_of(via_not) == ["SA101"]


# ---------------------------------------------------------------------------
# Suspect rules (SA2xx)
# ---------------------------------------------------------------------------


def test_sa201_aggregate_over_nullable(schema):
    report = analyze_sql("SELECT avg(b) x FROM t", schema)
    assert report.verdict == SUSPECT
    assert "SA201" in rules_of(report)


def test_count_star_is_not_flagged(schema):
    report = analyze_sql("SELECT count(*) x FROM t", schema)
    assert report.by_rule("SA201") == []


def test_sa202_distinct_over_nullable(schema):
    report = analyze_sql("SELECT DISTINCT b FROM t", schema)
    assert report.verdict == SUSPECT
    assert rules_of(report) == ["SA202"]


def test_sa202_names_outputs_by_position(schema):
    # The computed column is the second output, which the engine names
    # column2; it is the only one that may be null.
    report = analyze_sql("SELECT DISTINCT a, b || 'x' FROM t", schema)
    (finding,) = report.by_rule("SA202")
    assert dict(finding.context)["columns"] == "column2"


def test_distinct_over_nonnullable_is_certified(schema):
    report = analyze_sql("SELECT DISTINCT a FROM t", schema)
    assert report.verdict == CERTIFIED


def test_sa202_union_over_nullable(schema):
    report = analyze_sql("SELECT b FROM t UNION SELECT d FROM s", schema)
    assert "SA202" in rules_of(report)


def test_union_all_over_nullable_not_flagged(schema):
    report = analyze_sql("SELECT b FROM t UNION ALL SELECT d FROM s", schema)
    assert report.by_rule("SA202") == []


def test_top_level_positive_filter_is_certified(schema):
    # A conjunct comparison drops exactly the rows no completion agrees
    # on: a row with NULL b fails b = 1 under *some* valuation, so it is
    # not a certain answer either — naive equals certain here.
    report = analyze_sql("SELECT a FROM t WHERE b = 1", schema)
    assert report.verdict == CERTIFIED


def test_sa203_positive_filter_under_or(schema):
    # Under OR the forcing does not apply: b = 1 OR b <> 1 holds in
    # every completion of a NULL b, yet naive evaluation drops the row.
    report = analyze_sql("SELECT a FROM t WHERE b = 1 OR b <> 1", schema)
    assert report.verdict == SUSPECT
    assert rules_of(report) == ["SA203"]


# ---------------------------------------------------------------------------
# Escapes and scalar subqueries
# ---------------------------------------------------------------------------


def test_or_is_null_escape_demotes_to_suspect(schema):
    report = analyze_sql(
        "SELECT a FROM t WHERE NOT EXISTS "
        "(SELECT * FROM s WHERE s.d = t.a OR s.d IS NULL)",
        schema,
    )
    assert report.verdict == SUSPECT
    assert rules_of(report) == ["SA203"]
    (diag,) = report.diagnostics
    assert dict(diag.context).get("escaped") == "yes"


def test_unrelated_is_null_disjunct_is_not_an_escape(schema):
    # The escape must name the hazardous side; an IS NULL on another
    # column leaves the comparison unsound.
    report = analyze_sql(
        "SELECT a FROM t, s WHERE NOT EXISTS "
        "(SELECT * FROM t t2 WHERE t2.b = s.d OR s.d IS NULL)",
        schema,
    )
    assert report.verdict == UNSOUND
    assert "SA101" in rules_of(report)


def test_scalar_subquery_demotes_unsound_to_suspect(schema):
    report = analyze_sql(
        "SELECT a FROM t WHERE a = (SELECT c FROM s WHERE d IS NULL)",
        schema,
    )
    assert report.verdict == SUSPECT
    sa104 = report.by_rule("SA104")
    assert len(sa104) == 1
    assert sa104[0].severity == SUSPECT
    assert dict(sa104[0].context)["demoted"] == "scalar-subquery-black-box"


# ---------------------------------------------------------------------------
# Resilience (SA301) and rendering
# ---------------------------------------------------------------------------


def test_sa301_unknown_table(schema):
    report = analyze_sql("SELECT a FROM nope", schema)
    assert report.verdict == SUSPECT
    assert rules_of(report) == ["SA301"]


@pytest.mark.parametrize("sql", ["SELECT zz FROM t", "SELECT a, b || zz FROM t"])
def test_sa301_unknown_column_in_the_select_list(schema, sql):
    report = analyze_sql(sql, schema)
    assert report.verdict == SUSPECT
    (diag,) = report.diagnostics
    assert diag.rule == "SA301"
    start, end = diag.span
    assert sql[start:end] == "zz"


def test_sa301_does_not_stop_the_walk(schema):
    # The unresolvable column degrades to SA301 but the unsound shape
    # elsewhere in the query is still found.
    report = analyze_sql(
        "SELECT a FROM t WHERE zzz = 1 "
        "AND NOT EXISTS (SELECT * FROM s WHERE s.d = t.a)",
        schema,
    )
    assert "SA301" in rules_of(report)
    assert "SA101" in rules_of(report)
    assert report.verdict == UNSOUND


def test_diagnostics_carry_spans(schema):
    sql = "SELECT a FROM t WHERE b IS NULL"
    report = analyze_sql(sql, schema)
    (diag,) = report.diagnostics
    start, end = diag.span
    assert sql[start:end] == "b IS NULL"


def test_render_pretty_mentions_rule_and_caret(schema):
    report = analyze_sql("SELECT a FROM t WHERE b IS NULL", schema)
    text = render_pretty(report, name="demo")
    assert "demo: verdict: UNSOUND" in text
    assert "SA104" in text and "^" in text


def test_render_json_is_deterministic(schema):
    sql = "SELECT a FROM t WHERE NOT EXISTS (SELECT * FROM s WHERE s.d = t.a)"
    first = render_json(analyze_sql(sql, schema))
    second = render_json(analyze_sql(sql, schema))
    assert first == second
    assert '"verdict": "unsound"' in first


def test_duplicate_findings_are_deduplicated(schema):
    # The same comparison reached twice (flattened OR of identical
    # shapes) must not produce duplicate records.
    report = analyze_sql(
        "SELECT a FROM t WHERE NOT EXISTS "
        "(SELECT * FROM s WHERE s.d = t.a AND s.d = t.a)",
        schema,
    )
    assert len(report.diagnostics) == len(set(report.diagnostics))
