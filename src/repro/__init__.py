"""repro — certain-answer SQL evaluation over incomplete databases.

A complete reproduction of *Guagliardo & Libkin, "Making SQL Queries
Correct on Incomplete Databases: A Feasibility Study", PODS 2016*:

* an incomplete-database data model with marked/Codd nulls
  (:mod:`repro.data`);
* relational algebra with naive and SQL-3VL evaluation
  (:mod:`repro.algebra`);
* brute-force certain answers as ground truth (:mod:`repro.certain`);
* the Figure 2 translation ``Q → (Qt, Qf)`` and the paper's
  implementation-friendly Figure 3 translation ``Q → (Q+, Q?)``
  (:mod:`repro.translate`);
* a SQL front-end with a direct SQL→SQL certain-answer rewriter
  (:mod:`repro.sql`);
* an executable SQL engine standing in for PostgreSQL
  (:mod:`repro.engine`);
* the TPC-H substrate: schema, generators, null injection and queries
  Q1–Q4 with their appendix rewrites (:mod:`repro.tpch`);
* the Section 4 false-positive detectors (:mod:`repro.fp`);
* harnesses regenerating Figure 1, Figure 4, Table 1 and the Section
  5/7 findings (:mod:`repro.experiments`).

Quickstart::

    >>> from repro import Null, Relation, Database, execute_sql, certain_rewrite
    >>> from repro.data.schema import DatabaseSchema, make_schema
    >>> db = Database({"r": Relation(("a",), [(1,)]),
    ...                "s": Relation(("a",), [(Null(),)])})
    >>> bad = "SELECT a FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE s.a = r.a)"
    >>> list(execute_sql(db, bad))         # SQL returns a false positive
    [(1,)]
    >>> schema = DatabaseSchema()
    >>> _ = schema.add(make_schema("r", [("a", "int")]))
    >>> _ = schema.add(make_schema("s", [("a", "int")]))
    >>> list(execute_sql(db, certain_rewrite(bad, schema)))
    []
"""

from repro.data import Database, Null, Relation, Valuation
from repro.data.schema import Attribute, DatabaseSchema, RelationSchema, make_schema
from repro.algebra import evaluate
from repro.certain import certain_answers, certain_answers_with_nulls
from repro.engine import execute_sql, explain_sql
from repro.sql import parse_sql, to_sql
from repro.sql.rewrite import rewrite_certain, rewrite_possible
from repro.translate import translate_improved, translate_libkin

__version__ = "1.0.0"


def certain_rewrite(sql, schema, *, tune=True):
    """Parse SQL text (or take an AST) and return the ``Q+`` rewrite AST.

    Convenience wrapper around :func:`repro.sql.parse_sql` and
    :func:`repro.sql.rewrite.rewrite_certain`.
    """
    if isinstance(sql, str):
        sql = parse_sql(sql)
    return rewrite_certain(sql, schema, tune=tune)


__all__ = [
    "Database",
    "Null",
    "Relation",
    "Valuation",
    "Attribute",
    "DatabaseSchema",
    "RelationSchema",
    "make_schema",
    "evaluate",
    "certain_answers",
    "certain_answers_with_nulls",
    "execute_sql",
    "explain_sql",
    "parse_sql",
    "to_sql",
    "rewrite_certain",
    "rewrite_possible",
    "certain_rewrite",
    "translate_improved",
    "translate_libkin",
    "__version__",
]
