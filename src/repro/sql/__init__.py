"""SQL front-end: parsing, printing, translation to algebra, rewriting.

The supported fragment is the paper's: ``SELECT``-``FROM``-``WHERE``
with (correlated) subqueries under ``[NOT] EXISTS`` / ``[NOT] IN``,
scalar aggregate subqueries treated as black boxes, ``WITH`` views,
``UNION``/``INTERSECT``/``EXCEPT``, comparison operators, ``LIKE``,
``IS [NOT] NULL``, string concatenation and ``$parameters``.
"""

from repro.sql.parser import parse_sql
from repro.sql.printer import to_sql
from repro.sql.rewrite import rewrite_certain, rewrite_possible
from repro.sql.to_algebra import sql_to_algebra
from repro.sql.from_algebra import algebra_to_sql

__all__ = [
    "parse_sql",
    "to_sql",
    "rewrite_certain",
    "rewrite_possible",
    "sql_to_algebra",
    "algebra_to_sql",
]
