"""The analyzer is the rewriter's pass 1 in report mode.

Two properties tie the findings to what ``rewrite_certain`` does, over
every statement of ``tests/analysis/``, the Theorem 1 corpus and the
paper's Q1–Q4 with their appendix rewritings:

* **SA301 parity** — ``rewrite_certain`` raises ``RewriteError``
  exactly when ``fragment_diagnostics`` is non-empty.
* **Escapes** — pass 1 folds every ``IS [NOT] NULL`` it walks, so an
  ``IS NULL`` in ``rewrite_certain(q, tune=False)`` is a null escape it
  added.  The verdict is ``unsound`` exactly when pass 1 adds one or an
  unsound SA104 fires, except for the statements in ``EXCEPTIONS``.
"""

import ast as pyast
from pathlib import Path

import pytest

from repro.analysis import SUSPECT, UNSOUND, analyze_query, fragment_diagnostics
from repro.sql.lexer import SqlSyntaxError
from repro.sql.parser import parse_sql
from repro.sql.printer import to_sql
from repro.sql.rewrite import RewriteError, rewrite_certain
from repro.tpch.queries import QUERIES as TPCH
from repro.tpch.schema import tpch_schema

from ..integration.test_theorem1_fragment import QUERIES as FRAGMENT
from ..integration.test_theorem1_fragment import schema as fragment_schema
from .test_properties import mini_schema

HERE = Path(__file__).resolve().parent


def _parses(text):
    try:
        parse_sql(text)
    except SqlSyntaxError:
        return False
    return True


def _statements(path):
    """Every string literal of a test module that parses as SQL."""
    return {
        node.value
        for node in pyast.walk(pyast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, pyast.Constant)
        and isinstance(node.value, str)
        and node.value.lstrip().upper().startswith(("SELECT", "WITH"))
        and _parses(node.value)
    }


def _corpus():
    cases = {}
    for path in sorted(HERE.glob("test_*.py")):
        schema = tpch_schema() if path.name == "test_tpch_queries.py" else mini_schema()
        cases.update((sql, schema) for sql in _statements(path))
    cases.update((sql, fragment_schema()) for sql in FRAGMENT.values())
    cases.update((TPCH[name][i], tpch_schema()) for name in sorted(TPCH) for i in (0, 1))
    return sorted(cases.items())


def _naive_form(sql, schema):
    """``rewrite_certain(q, tune=False)`` as SQL text, or None."""
    try:
        return to_sql(rewrite_certain(parse_sql(sql), schema, tune=False))
    except RewriteError:
        return None


CORPUS = _corpus()
REWRITABLE = [
    (sql, schema, naive_form)
    for sql, schema in CORPUS
    if (naive_form := _naive_form(sql, schema)) is not None
]

#: Where "unsound ⇔ pass 1 adds an escape or an unsound SA104 fires"
#: fails, and why.  All of them are ``suspect``.
EXCEPTIONS = {
    # 3VL already fails closed: a null probe or member makes the
    # membership UNKNOWN, and UNKNOWN survives the NOT.
    "SELECT a FROM t WHERE a NOT IN (SELECT d FROM s)": "positive NOT IN",
    FRAGMENT["not-in"]: "positive NOT IN",
    # The comparison already carries its OR … IS NULL escape, and pass 1
    # adds the same escape again.
    "SELECT a FROM t WHERE NOT EXISTS "
    "(SELECT * FROM s WHERE s.d = t.a OR s.d IS NULL)": "escape present",
    TPCH["Q1"][1]: "escape present",
    TPCH["Q3"][1]: "escape present",
    # A scalar subquery is a black box: pass 1 leaves its IS NULL in
    # place, and the analyzer demotes its SA104 to suspect.
    "SELECT a FROM t WHERE a = (SELECT c FROM s WHERE d IS NULL)": "scalar subquery",
}


def _ids(cases):
    return [" ".join(case[0].split())[:60] for case in cases]


def test_corpus_covers_the_exceptions():
    assert set(EXCEPTIONS) <= {sql for sql, _, _ in REWRITABLE}


@pytest.mark.parametrize("sql,schema", CORPUS, ids=_ids(CORPUS))
def test_rewrite_fails_exactly_when_sa301_fires(sql, schema):
    query = parse_sql(sql)
    try:
        rewrite_certain(query, schema)
    except RewriteError as err:
        assert fragment_diagnostics(query, schema)
        assert err.diagnostics == fragment_diagnostics(query, schema)
    else:
        assert fragment_diagnostics(query, schema) == []


@pytest.mark.parametrize("sql,schema,naive_form", REWRITABLE, ids=_ids(REWRITABLE))
def test_unsound_iff_pass1_adds_an_escape(sql, schema, naive_form):
    report = analyze_query(parse_sql(sql), schema)
    escapes = " IS NULL" in naive_form or any(
        d.severity == UNSOUND for d in report.by_rule("SA104")
    )
    if sql in EXCEPTIONS:
        assert report.verdict == SUSPECT and escapes
    else:
        assert (report.verdict == UNSOUND) == escapes
