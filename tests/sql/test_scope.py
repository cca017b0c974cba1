"""One name resolver and one output-naming rule for every layer.

The rewriter (through ``repro lint``'s SA301 findings), the engine and
the algebra translator resolve names through :mod:`repro.sql.scope`:
each failure is pinned here in full, per layer.  They also name a
block's output columns by one rule, so a view exposes the same columns
to each of them.
"""

import io
import json
from contextlib import redirect_stdout

import pytest

from repro.__main__ import main
from repro.data import Database, Relation
from repro.algebra import evaluate
from repro.data.schema import DatabaseSchema, make_schema
from repro.engine import execute_sql
from repro.sql.nullability import Catalog
from repro.sql.parser import parse_sql
from repro.sql.to_algebra import sql_to_algebra
from repro.tpch.schema import tpch_schema

SCHEMA = tpch_schema()
EMPTY_DB = Database(
    {name: Relation(SCHEMA[name].attribute_names, []) for name in SCHEMA.relation_names()}
)

#: case -> (SQL, SA301 message, EngineError text, AlgebraTranslationError text);
#: ``None`` where the layer accepts the statement.
TEXTS = {
    case: (sql, message, message, message)
    for case, sql, message in [
        (
            "unknown column",
            "SELECT n_name FROM nation WHERE zz = 1",
            "cannot resolve column 'zz'",
        ),
        (
            "ambiguous column",
            "SELECT n1.n_name FROM nation n1, nation n2 WHERE n_regionkey = 1",
            "ambiguous column 'n_regionkey'",
        ),
        (
            "wrong column under a binding",
            "SELECT n_name FROM nation WHERE nation.r_name = 'x'",
            "no column 'r_name' in table 'nation' (binding 'nation')",
        ),
        (
            "duplicate binding",
            "SELECT n_name FROM nation, region nation",
            "duplicate table binding 'nation'",
        ),
        ("unknown table", "SELECT x FROM nope", "unknown table 'nope'"),
    ]
}
TEXTS["depth-2 correlation"] = (
    "SELECT n_name FROM nation WHERE NOT EXISTS (SELECT * FROM region "
    "WHERE r_regionkey = n_regionkey AND NOT EXISTS "
    "(SELECT * FROM supplier WHERE s_nationkey = n_nationkey))",
    None,
    None,
    "column 'n_nationkey' is not bound where it is used: only one level "
    "of correlation is supported",
)


def sa301_messages(sql):
    out = io.StringIO()
    with redirect_stdout(out):
        main(["lint", sql, "--format", "json"])
    report = json.loads(out.getvalue())
    return [d["message"] for d in report["diagnostics"] if d["rule"] == "SA301"]


def failure(fn, *args):
    """``"<exception type>: <text>"`` of what *fn* raises, else None."""
    try:
        fn(*args)
    except Exception as err:
        return f"{type(err).__name__}: {err}"
    return None


@pytest.mark.parametrize("case", sorted(TEXTS))
def test_resolver_texts(case):
    sql, sa301, engine, translator = TEXTS[case]
    assert sa301_messages(sql) == ([] if sa301 is None else [sa301])
    assert failure(execute_sql, EMPTY_DB, sql) == (
        None if engine is None else f"EngineError: {engine}"
    )
    assert failure(sql_to_algebra, parse_sql(sql), SCHEMA) == (
        None if translator is None else f"AlgebraTranslationError: {translator}"
    )


def mini_schema():
    schema = DatabaseSchema()
    schema.add(make_schema("t", [("a", "int"), ("b", "int")], key=("a",)))
    schema.add(make_schema("s", [("a", "int"), ("d", "int")], key=("a",)))
    return schema


#: SQL -> the output columns every layer gives it; ``translates`` marks
#: the statements inside the algebra-translatable fragment.
VIEWS = [
    ("SELECT * FROM t, s", ("a", "b", "a_1", "d"), True),
    ("SELECT * FROM t, t t2", ("a", "b", "a_1", "b_1"), True),
    ("SELECT a AS k, b FROM t", ("k", "b"), True),
    ("SELECT a, b || 'x', 1 FROM t", ("a", "column2", "column3"), False),
    ("SELECT t.a AS x, b AS x, s.a AS x_1 FROM t, s", ("x", "x_2", "x_1"), True),
    ("SELECT t.a AS x, t.b AS x FROM t", ("x", "x_1"), True),
]


@pytest.mark.parametrize("sql,columns,translates", VIEWS)
def test_view_columns_agree_across_layers(sql, columns, translates):
    db = Database(
        {"t": Relation(("a", "b"), [(1, 2)]), "s": Relation(("a", "d"), [(1, 3)])}
    )
    assert execute_sql(db, sql).attributes == columns
    catalog = Catalog(mini_schema())
    catalog.register_view("v", parse_sql(sql))
    assert catalog.columns_of("v") == columns
    if translates:
        assert evaluate(sql_to_algebra(parse_sql(sql), db), db).attributes == columns
