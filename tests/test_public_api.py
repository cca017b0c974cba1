"""The package-level public API (what README and docstrings promise)."""

import repro
from repro import (
    Database,
    DatabaseSchema,
    Null,
    Relation,
    certain_answers_with_nulls,
    certain_rewrite,
    execute_sql,
    explain_sql,
    make_schema,
    parse_sql,
    rewrite_certain,
    to_sql,
    translate_improved,
    translate_libkin,
)


def test_version():
    assert repro.__version__


def test_all_names_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_promised_names_are_the_package_attributes():
    assert rewrite_certain is repro.rewrite_certain
    assert certain_answers_with_nulls is repro.certain_answers_with_nulls
    assert explain_sql is repro.explain_sql
    assert translate_improved is repro.translate_improved
    assert translate_libkin is repro.translate_libkin


def test_readme_quickstart():
    db = Database(
        {
            "r": Relation(("a",), [(1,)]),
            "s": Relation(("a",), [(Null(),)]),
        }
    )
    query = "SELECT a FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE s.a = r.a)"
    assert list(execute_sql(db, query)) == [(1,)]

    schema = DatabaseSchema()
    schema.add(make_schema("r", [("a", "int")]))
    schema.add(make_schema("s", [("a", "int")]))
    q_plus = certain_rewrite(query, schema)
    assert list(execute_sql(db, q_plus)) == []
    assert "IS NULL" in to_sql(q_plus)


def test_certain_rewrite_accepts_ast():
    schema = DatabaseSchema()
    schema.add(make_schema("r", [("a", "int")]))
    ast_query = parse_sql("SELECT a FROM r")
    assert certain_rewrite(ast_query, schema) == rewrite_certain(ast_query, schema)
    assert certain_rewrite(ast_query, schema, tune=False) == rewrite_certain(
        ast_query, schema, tune=False
    )


def test_module_docstring_example_runs():
    import doctest

    results = doctest.testmod(repro, verbose=False)
    assert results.failed == 0
    assert results.attempted >= 2
