"""Coverage for EngineError paths raised during compilation/execution.

Each test pins both the exception type and the message text so that
blanket ``except EngineError`` handlers elsewhere keep meaning what
they mean today.
"""

import pytest

from repro.data import Database, Relation
from repro.engine import Executor, execute_sql
from repro.engine.limits import EngineError
from repro.sql import ast


@pytest.fixture
def db():
    return Database({"t": Relation(("a", "b"), [(1, 2), (3, 4)])})


class TestSetOpArity:
    def test_union_arity_mismatch(self, db):
        with pytest.raises(EngineError, match="UNION operands have arity 1 and 2"):
            execute_sql(db, "SELECT a FROM t UNION SELECT a, b FROM t")

    def test_except_arity_mismatch(self, db):
        with pytest.raises(EngineError, match="EXCEPT operands have arity 2 and 1"):
            execute_sql(db, "SELECT a, b FROM t EXCEPT SELECT a FROM t")

    def test_matching_arity_is_fine(self, db):
        out = execute_sql(db, "SELECT a FROM t UNION SELECT b FROM t")
        assert set(out.rows) == {(1,), (2,), (3,), (4,)}


class TestStarMixedWithColumns:
    def test_star_plus_explicit_column_rejected(self, db):
        # The parser rejects ``SELECT *, a FROM t`` before the engine
        # sees it, so exercise the engine check on a hand-built AST.
        query = ast.Select(
            columns=(ast.Star(), ast.OutputColumn(ast.ColumnRef("a"))),
            tables=(ast.TableRef("t"),),
        )
        with pytest.raises(EngineError, match=r"\* mixed with explicit output columns"):
            Executor(db).execute(query)

    def test_lone_star_is_fine(self, db):
        out = Executor(db).execute(
            ast.Select(columns=(ast.Star(),), tables=(ast.TableRef("t"),))
        )
        assert out.attributes == ("a", "b")
        assert set(out.rows) == {(1, 2), (3, 4)}


class TestUnknownTable:
    def test_unknown_table(self, db):
        with pytest.raises(EngineError, match="unknown table 'nope'"):
            execute_sql(db, "SELECT a FROM nope")

    def test_unknown_table_in_subquery(self, db):
        sql = "SELECT a FROM t WHERE EXISTS (SELECT x FROM missing)"
        with pytest.raises(EngineError, match="unknown table 'missing'"):
            execute_sql(db, sql)


class TestUnboundParameter:
    def test_unbound_parameter(self, db):
        with pytest.raises(EngineError, match=r"unbound parameter \$p"):
            execute_sql(db, "SELECT a FROM t WHERE a = $p")

    def test_bound_parameter_succeeds(self, db):
        out = execute_sql(db, "SELECT a FROM t WHERE a = $p", params={"p": 1})
        assert out.rows == [(1,)]


class TestWithViews:
    def test_nested_with_rejected(self, db):
        sql = (
            "WITH v AS (WITH w AS (SELECT a FROM t) SELECT a FROM w) "
            "SELECT a FROM v"
        )
        with pytest.raises(EngineError, match="nested WITH is not supported"):
            execute_sql(db, sql)

    def test_duplicate_with_view_rejected(self, db):
        sql = "WITH v AS (SELECT a FROM t), v AS (SELECT b FROM t) SELECT a FROM v"
        with pytest.raises(EngineError, match="duplicate WITH view 'v'"):
            execute_sql(db, sql)
