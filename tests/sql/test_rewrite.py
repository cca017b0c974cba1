"""The direct SQL rewriter: appendix equivalence and the pass behaviours."""

import random

import pytest

from repro.analysis import CERTIFIED, UNSOUND, analyze_sql
from repro.certain import certain_answers_with_nulls
from repro.data import Database, Null, Relation
from repro.data.schema import DatabaseSchema, make_schema
from repro.engine import execute_sql
from repro.sql import ast
from repro.sql.parser import parse_condition, parse_sql
from repro.sql.printer import to_sql
from repro.sql.rewrite import RewriteError, negate_sql, rewrite_certain
from repro.sql.to_algebra import sql_to_algebra
from repro.tpch.datafiller import generate_small_instance
from repro.tpch.nullify import inject_nulls
from repro.tpch.queries import QUERIES, sample_parameters
from repro.tpch.schema import tpch_schema


@pytest.fixture(scope="module")
def schema():
    return tpch_schema()


def rewrite_sql(sql, schema, **kwargs):
    return rewrite_certain(parse_sql(sql), schema, **kwargs)


# ---------------------------------------------------------------------------
# The headline property: automatic rewrites ≡ appendix rewrites
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("qid", sorted(QUERIES))
@pytest.mark.parametrize("null_rate", [0.0, 0.03, 0.10])
def test_automatic_rewrite_matches_appendix(qid, null_rate, schema):
    original_sql, appendix_sql, _names = QUERIES[qid]
    auto = rewrite_certain(parse_sql(original_sql), schema)
    hand = parse_sql(appendix_sql)
    rng = random.Random(hash((qid, null_rate)) & 0xFFFF)
    base = generate_small_instance(scale=0.08, seed=rng.randrange(2**31))
    db = inject_nulls(base, null_rate, seed=rng.randrange(2**31))
    for _ in range(3):
        params = sample_parameters(qid, db, rng=rng)
        auto_rows = set(execute_sql(db, auto, params).rows)
        hand_rows = set(execute_sql(db, hand, params).rows)
        assert auto_rows == hand_rows


@pytest.mark.parametrize("qid", sorted(QUERIES))
def test_rewrite_is_identity_on_complete_databases(qid, schema):
    original_sql, _appendix, _names = QUERIES[qid]
    plus = rewrite_certain(parse_sql(original_sql), schema)
    rng = random.Random(hash(qid) & 0xFFFF)
    db = generate_small_instance(scale=0.08, seed=7)
    for _ in range(3):
        params = sample_parameters(qid, db, rng=rng)
        original_rows = set(execute_sql(db, original_sql, params).rows)
        plus_rows = set(execute_sql(db, plus, params).rows)
        assert original_rows == plus_rows


@pytest.mark.parametrize("qid", sorted(QUERIES))
def test_rewrite_never_adds_answers(qid, schema):
    """Q+ ⊆ Q under SQL evaluation for the four paper queries.

    (Not a theorem in general — Section 6 — but true for Q1–Q4, whose
    outputs are forced non-null by their positive conjuncts.)"""
    original_sql, _appendix, _names = QUERIES[qid]
    plus = rewrite_certain(parse_sql(original_sql), schema)
    rng = random.Random(hash(qid) & 0xFFF)
    db = inject_nulls(generate_small_instance(scale=0.08, seed=5), 0.06, seed=6)
    for _ in range(3):
        params = sample_parameters(qid, db, rng=rng)
        original_rows = set(execute_sql(db, original_sql, params).rows)
        plus_rows = set(execute_sql(db, plus, params).rows)
        assert plus_rows <= original_rows


# ---------------------------------------------------------------------------
# Pass 1: condition weakening with nullability
# ---------------------------------------------------------------------------


class TestWeakening:
    def q3_not_exists(self, schema, **kwargs):
        out = rewrite_sql(QUERIES["Q3"][0], schema, **kwargs)
        (not_exists,) = [
            c for c in out.body.where.items
        ] if isinstance(out.body.where, ast.BoolOp) else [out.body.where]
        return to_sql(out)

    def test_q3_gains_is_null_escape(self, schema):
        text = self.q3_not_exists(schema)
        assert "l_suppkey IS NULL" in text

    def test_non_nullable_join_not_weakened(self, schema):
        text = self.q3_not_exists(schema)
        assert "l_orderkey = o_orderkey OR" not in text

    def test_q1_outer_forced_column_not_escaped(self, schema):
        out = to_sql(rewrite_sql(QUERIES["Q1"][0], schema))
        assert "l3.l_suppkey IS NULL" in out
        assert "l1.l_suppkey IS NULL" not in out
        assert "l3.l_receiptdate IS NULL" in out
        assert "l3.l_commitdate IS NULL" in out

    def test_positive_context_unchanged(self, schema):
        out = to_sql(rewrite_sql(QUERIES["Q1"][0], schema))
        # The positive EXISTS subquery keeps its plain conditions.
        assert "l2.l_suppkey <> l1.l_suppkey OR" not in out

    def test_user_is_null_in_positive_context_is_false(self, schema):
        out = rewrite_sql(
            "SELECT o_orderkey FROM orders WHERE o_custkey IS NULL", schema
        )
        assert out.body.where == ast.BoolLiteral(False)

    def test_user_is_not_null_becomes_true(self, schema):
        out = rewrite_sql(
            "SELECT o_orderkey FROM orders WHERE o_custkey IS NOT NULL", schema
        )
        assert out.body.where is None or out.body.where == ast.BoolLiteral(True)


# ---------------------------------------------------------------------------
# Pass 3: disjunction splitting
# ---------------------------------------------------------------------------


class TestSplitting:
    def test_q2_splits_into_decorrelated_block(self, schema):
        out = to_sql(rewrite_sql(QUERIES["Q2"][0], schema))
        assert out.count("NOT EXISTS") == 2
        assert "WHERE o_custkey IS NULL" in out

    def test_q3_stays_unsplit(self, schema):
        out = to_sql(rewrite_sql(QUERIES["Q3"][0], schema))
        assert out.count("NOT EXISTS") == 1
        assert " OR " in out

    def test_split_never(self, schema):
        out = to_sql(rewrite_sql(QUERIES["Q2"][0], schema, tune=False))
        assert out.count("NOT EXISTS") == 1

    def test_split_options_agree_on_answers(self, schema):
        rng = random.Random(99)
        db = inject_nulls(generate_small_instance(scale=0.08, seed=1), 0.08, seed=2)
        for qid in sorted(QUERIES):
            params = sample_parameters(qid, db, rng=rng)
            results = []
            for tune in (True, False):
                query = rewrite_sql(QUERIES[qid][0], schema, tune=tune)
                results.append(set(execute_sql(db, query, params).rows))
            assert results[0] == results[1], qid


# ---------------------------------------------------------------------------
# Pass 2: view folding (the Q4 shape)
# ---------------------------------------------------------------------------


class TestViewFolding:
    def test_q4_produces_two_views(self, schema):
        out = rewrite_sql(QUERIES["Q4"][0], schema)
        names = [name for name, _q in out.ctes]
        assert len(names) == 2
        assert any("part" in n for n in names)
        assert any("supp" in n for n in names)

    def test_q4_has_four_not_exists_blocks(self, schema):
        out = to_sql(rewrite_sql(QUERIES["Q4"][0], schema))
        assert out.count("NOT EXISTS") == 4
        assert out.count("AND EXISTS") >= 4  # the guards

    def test_views_are_unions_by_default(self, schema):
        out = to_sql(rewrite_sql(QUERIES["Q4"][0], schema))
        assert "UNION" in out

    def test_fold_never_keeps_tables_inline(self, schema):
        out = rewrite_sql(QUERIES["Q4"][0], schema, tune=False)
        assert out.ctes == ()


# ---------------------------------------------------------------------------
# Fragment corners
# ---------------------------------------------------------------------------


class TestFragmentCorners:
    @pytest.fixture
    def rs(self):
        schema = DatabaseSchema()
        schema.add(make_schema("r", [("a", "int"), ("b", "int")], key=["a"]))
        schema.add(make_schema("s", [("a", "int"), ("b", "int")]))
        return schema

    @pytest.fixture
    def rs_db(self):
        n1, n2 = Null(), Null()
        return Database(
            {
                "r": Relation(("a", "b"), [(1, 2), (2, n1), (3, 3)]),
                "s": Relation(("a", "b"), [(1, 2), (n2, 3)]),
            }
        )

    def test_not_in_subquery(self, rs, rs_db):
        sql = "SELECT a FROM r WHERE a NOT IN (SELECT b FROM s)"
        plus = rewrite_certain(parse_sql(sql), rs)
        got = set(execute_sql(rs_db, plus).rows)
        # s.b could be anything through the null in s.a? No: b values are
        # {2, 3}; also any null b would block. Here a=1 is certain.
        assert got == {(1,)}

    def test_except_rewrites_to_not_exists(self, rs, rs_db):
        sql = "SELECT a, b FROM r EXCEPT SELECT a, b FROM s"
        plus = rewrite_certain(parse_sql(sql), rs)
        text = to_sql(plus)
        assert "NOT EXISTS" in text
        got = set(execute_sql(rs_db, plus).rows)
        # (1,2) is in s exactly; (2,⊥) unifies with (⊥,3)? a: 2 vs ⊥ ok,
        # b: ⊥ vs 3 ok → excluded. (3,3) unifies with (⊥,3) → excluded.
        assert got == set()

    def test_intersect_certain(self, rs, rs_db):
        sql = "SELECT a, b FROM r INTERSECT SELECT a, b FROM s"
        plus = rewrite_certain(parse_sql(sql), rs)
        got = set(execute_sql(rs_db, plus).rows)
        assert got == {(1, 2)}

    def test_union_componentwise(self, rs, rs_db):
        sql = (
            "SELECT a FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE s.a = r.a) "
            "UNION SELECT a FROM s WHERE a IS NOT NULL"
        )
        plus = rewrite_certain(parse_sql(sql), rs)
        execute_sql(rs_db, plus)  # should be executable

    def test_view_in_negative_context_rejected(self, rs):
        sql = (
            "WITH v AS (SELECT a FROM s) "
            "SELECT a FROM r WHERE NOT EXISTS (SELECT * FROM v WHERE v.a = r.a)"
        )
        with pytest.raises(RewriteError, match="negative context"):
            rewrite_certain(parse_sql(sql), rs)

    def test_unknown_table_rejected(self, rs):
        with pytest.raises(RewriteError, match="unknown table"):
            rewrite_certain(parse_sql("SELECT a FROM zzz"), rs)


@pytest.fixture
def tsu():
    schema = DatabaseSchema()
    schema.add(make_schema("t", [("a", "int"), ("b", "int")], key=["a"]))
    schema.add(make_schema("s", [("c", "int"), ("d", "int")], key=["c"]))
    schema.add(make_schema("u", [("e", "int"), ("f", "int")], key=["e"]))
    return schema


def tsu_db(t, s, u):
    return Database(
        {
            "t": Relation(("a", "b"), t),
            "s": Relation(("c", "d"), s),
            "u": Relation(("e", "f"), u),
        }
    )


def certain_rows(query, db):
    return set(certain_answers_with_nulls(sql_to_algebra(query, db), db).rows)


class TestForcedNonNullStaysInItsBlock:
    """A positive block's conjuncts force only its own columns non-null.

    An enclosing block under ``NOT EXISTS`` or ``OR`` is not filtered by
    them, so its rows can still carry the null; its comparisons keep
    their escapes and ``Q+`` stays within the certain answers.
    """

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a FROM t WHERE NOT EXISTS (SELECT * FROM s WHERE "
            "NOT EXISTS (SELECT * FROM u WHERE u.f = s.d) AND s.d = t.b)",
            "SELECT a FROM t WHERE NOT EXISTS (SELECT * FROM s WHERE "
            "s.d NOT IN (SELECT f FROM u) AND s.d = t.b)",
        ],
    )
    def test_under_not_exists(self, tsu, sql):
        # With s.d := 5 the s row witnesses the outer NOT EXISTS, so
        # t's row 1 is not certain.
        query = parse_sql(sql)
        plus = rewrite_certain(query, tsu)
        assert "s.d IS NULL" in to_sql(plus)
        db = tsu_db([(1, 5)], [(1, Null())], [])
        assert certain_rows(query, db) == set()
        assert execute_sql(db, plus).rows == []

    def test_under_or(self, tsu):
        sql = (
            "SELECT a FROM t WHERE (a = 1 OR EXISTS (SELECT * FROM s WHERE s.d = t.b)) "
            "AND NOT EXISTS (SELECT * FROM u WHERE u.f = t.b)"
        )
        plus = rewrite_certain(parse_sql(sql), tsu)
        assert "t.b IS NULL" in to_sql(plus)
        # The valuation t.b := 7 drops row 1, so it is not certain.
        assert execute_sql(tsu_db([(1, 7)], [], [(1, 7)]), sql).rows == []
        assert execute_sql(tsu_db([(1, Null())], [], [(1, 7)]), plus).rows == []


def test_in_list_member_gets_an_escape_in_mode_possible(tsu):
    # With t.b := 5 the s row is a member and witnesses the NOT EXISTS.
    query = parse_sql(
        "SELECT a FROM t WHERE NOT EXISTS (SELECT * FROM s WHERE s.c IN (t.b, 99))"
    )
    plus = rewrite_certain(query, tsu)
    assert "t.b IS NULL" in to_sql(plus)
    db = tsu_db([(1, Null())], [(5, 0)], [])
    assert certain_rows(query, db) == set()
    assert execute_sql(db, plus).rows == []


class TestExceptRightOperand:
    """EXCEPT's right operand is rewritten in mode ``?``."""

    def test_view_on_the_right_is_a_fragment_exit(self, tsu):
        # The view is rewritten for certainty, which under-approximates
        # where mode ? needs an over-approximation: on t={(1,0)},
        # s={(1,⊥)} it is empty, yet d := 1 puts 1 in it, so cert = ∅.
        query = parse_sql(
            "WITH v AS (SELECT c FROM s WHERE d = 1) "
            "SELECT a FROM t EXCEPT SELECT c FROM v"
        )
        with pytest.raises(RewriteError, match="view 'v' referenced in a negative") as info:
            rewrite_certain(query, tsu)
        assert [d.rule for d in info.value.diagnostics] == ["SA301"]
        inlined = parse_sql("SELECT a FROM t EXCEPT SELECT c FROM s WHERE d = 1")
        db = tsu_db([(1, 0)], [(1, Null())], [])
        assert certain_rows(inlined, db) == set()
        assert execute_sql(db, rewrite_certain(inlined, tsu)).rows == []


def certain_by_completion(sql, db):
    """cert(Q, D) for a database with one null: the rows ``Q`` returns on
    every completion of it, over the constants plus one fresh value."""
    (null,) = db.nulls()
    constants = db.constants()
    answers = None
    for value in constants | {max(constants) + 1}:
        complete = db.map_rows(lambda row: tuple(value if x is null else x for x in row))
        rows = set(execute_sql(complete, sql).rows)
        answers = rows if answers is None else answers & rows
    return answers


#: A view column that can be null, which ``Q+`` must escape, with a
#: database on which naive evaluation returns a non-certain row.
VIEW_WITNESSES = [
    # Two columns named x: v.x is the first, s.d, as in the engine.
    (
        "WITH v AS (SELECT s.c AS y, s.d AS x, t.a AS x FROM t, s) "
        "SELECT y FROM v WHERE NOT EXISTS (SELECT * FROM u WHERE u.e = v.x)",
        ([(1, 2)], [(1, Null())], [(7, 0)]),
    ),
    # A UNION view pairs its operands' columns by position: v.y is t2.a
    # or d.
    (
        "WITH v AS (SELECT t.a AS x, t2.a AS y FROM t, t t2 "
        "UNION SELECT c AS y, d AS x FROM s) "
        "SELECT x FROM v WHERE NOT EXISTS (SELECT * FROM t t3 WHERE t3.a = v.y)",
        ([(1, 2)], [(5, Null())], []),
    ),
]


class TestViewColumns:
    """A view's columns are the engine's, by position; ``Q+`` escapes
    exactly those that can be null."""

    @pytest.mark.parametrize("tune", [True, False])
    @pytest.mark.parametrize("sql,tables", VIEW_WITNESSES)
    def test_qplus_returns_only_certain_answers(self, tsu, sql, tables, tune):
        db = tsu_db(*tables)
        cert = certain_by_completion(sql, db)
        assert set(execute_sql(db, sql).rows) - cert
        plus = rewrite_certain(parse_sql(sql), tsu, tune=tune)
        assert set(execute_sql(db, plus).rows) <= cert

    @pytest.mark.parametrize("sql,tables", VIEW_WITNESSES)
    def test_verdict_is_unsound(self, tsu, sql, tables):
        assert analyze_sql(sql, tsu).verdict == UNSOUND

    def test_a_non_null_first_column_gets_no_escape(self, tsu):
        # The mirror of the first witness: v.x is t.a, a key.
        sql = (
            "WITH v AS (SELECT s.c AS y, t.a AS x, s.d AS x FROM t, s) "
            "SELECT y FROM v WHERE NOT EXISTS (SELECT * FROM u WHERE u.e = v.x)"
        )
        for tune in (True, False):
            assert "IS NULL" not in to_sql(rewrite_sql(sql, tsu, tune=tune))
        assert analyze_sql(sql, tsu).verdict == CERTIFIED
        db = tsu_db(*VIEW_WITNESSES[0][1])
        plus = rewrite_sql(sql, tsu)
        assert set(execute_sql(db, plus).rows) == certain_by_completion(sql, db) == {(1,)}


def test_unknown_column_in_a_positive_in_list_is_rejected(tsu):
    with pytest.raises(RewriteError, match="cannot resolve column 'zz'") as info:
        rewrite_certain(parse_sql("SELECT a FROM t WHERE a IN (zz, 2)"), tsu)
    assert [d.rule for d in info.value.diagnostics] == ["SA301"]


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT zz FROM t",
        "SELECT a, b || zz FROM t",
        "SELECT a FROM t WHERE NOT EXISTS (SELECT zz FROM s WHERE s.c = t.a)",
    ],
)
def test_unknown_column_in_a_select_list_is_rejected(tsu, sql):
    # The engine cannot resolve it either; it used to print back unchanged.
    with pytest.raises(RewriteError, match="cannot resolve column 'zz'") as info:
        rewrite_certain(parse_sql(sql), tsu)
    assert [d.rule for d in info.value.diagnostics] == ["SA301"]


def test_select_star_and_outer_columns_in_a_select_list_resolve(tsu):
    sql = "SELECT * FROM t WHERE t.a IN (SELECT t.a FROM s WHERE s.c = t.b)"
    assert to_sql(rewrite_certain(parse_sql(sql), tsu))


class TestNegateSql:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("a = 1", "a <> 1"),
            ("a > 1", "a <= 1"),
            ("a >= 1", "a < 1"),
            ("a IS NULL", "a IS NOT NULL"),
            ("a LIKE 'x'", "a NOT LIKE 'x'"),
        ],
    )
    def test_atoms(self, text, expected):
        assert negate_sql(parse_condition(text)) == parse_condition(expected)

    def test_de_morgan(self):
        out = negate_sql(parse_condition("a = 1 AND b = 2"))
        assert out == parse_condition("a <> 1 OR b <> 2")

    def test_exists_flip(self):
        out = negate_sql(parse_condition("EXISTS (SELECT * FROM t)"))
        assert isinstance(out, ast.Exists) and out.negated

    def test_double_negation(self):
        cond = parse_condition("NOT a = 1")
        assert negate_sql(cond) == parse_condition("a = 1")
