"""The direct SQL rewriter: appendix equivalence and the pass behaviours."""

import random

import pytest

from repro.data import Database, Null, Relation
from repro.data.schema import DatabaseSchema, make_schema
from repro.engine import execute_sql
from repro.sql import ast
from repro.sql.parser import parse_condition, parse_sql
from repro.sql.printer import to_sql
from repro.sql.rewrite import RewriteError, negate_sql, rewrite_certain
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
