"""Resource limits: deadlines, row budgets, and the anytime searcher."""

import pytest

from repro.algebra import Difference, RelationRef
from repro.certain import bruteforce, certain_answers_with_nulls
from repro.data import Database, Null, Relation
from repro.engine import (
    Executor,
    QueryTimeout,
    ResourceError,
    ResourceLimits,
    RowBudgetExceeded,
    execute_sql,
)
from repro.engine.limits import EngineError
from repro.sql.parser import parse_sql


@pytest.fixture
def cross_db():
    """Two 1000-row tables; their product is a million examined rows."""
    return Database(
        {
            "t": Relation(("a",), [(i,) for i in range(1000)]),
            "u": Relation(("b",), [(i,) for i in range(1000)]),
        }
    )


class TestResourceLimits:
    def test_defaults_are_unlimited(self):
        assert ResourceLimits().unlimited
        assert not ResourceLimits(deadline_seconds=1.0).unlimited

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            ResourceLimits(deadline_seconds=-1)
        with pytest.raises(ValueError):
            ResourceLimits(max_rows_examined=-5)

    def test_exception_hierarchy(self):
        assert issubclass(ResourceError, EngineError)
        assert issubclass(QueryTimeout, ResourceError)
        assert issubclass(RowBudgetExceeded, ResourceError)


class TestDeadline:
    def test_expired_deadline_raises_promptly(self, cross_db):
        with pytest.raises(QueryTimeout) as info:
            execute_sql(
                cross_db,
                "SELECT a FROM t, u WHERE a < b",
                limits=ResourceLimits(deadline_seconds=0.0),
            )
        assert info.value.deadline_seconds == 0.0
        assert info.value.elapsed >= 0.0

    def test_generous_deadline_is_harmless(self, cross_db):
        out = execute_sql(
            cross_db,
            "SELECT a FROM t WHERE a < 3",
            limits=ResourceLimits(deadline_seconds=60.0),
        )
        assert set(out.rows) == {(0,), (1,), (2,)}

    def test_prepared_query_rearms_per_run(self, cross_db):
        # A deadline long enough for one run must not accumulate across
        # runs: each run() restarts the clock.
        executor = Executor(cross_db, limits=ResourceLimits(deadline_seconds=30.0))
        prepared = executor.prepare(parse_sql("SELECT a FROM t WHERE a = 1"))
        for _ in range(3):
            assert prepared.run().rows == [(1,)]

    def test_deadline_caught_as_engine_error(self, cross_db):
        # Existing blanket handlers keep working.
        with pytest.raises(EngineError):
            execute_sql(
                cross_db,
                "SELECT a FROM t, u",
                limits=ResourceLimits(deadline_seconds=0.0),
            )


class TestRowBudget:
    def test_budget_exceeded(self, cross_db):
        with pytest.raises(RowBudgetExceeded) as info:
            execute_sql(
                cross_db,
                "SELECT a FROM t, u",
                limits=ResourceLimits(max_rows_examined=500),
            )
        assert info.value.budget == 500
        assert info.value.examined > 500

    def test_budget_is_exact_at_the_boundary(self, cross_db):
        # 1000 rows examined is within a budget of exactly 1000.
        out = execute_sql(
            cross_db,
            "SELECT a FROM t",
            limits=ResourceLimits(max_rows_examined=1000),
        )
        assert len(out) == 1000
        with pytest.raises(RowBudgetExceeded):
            execute_sql(
                cross_db,
                "SELECT a FROM t",
                limits=ResourceLimits(max_rows_examined=999),
            )

    def test_budget_counts_probe_build_rows(self):
        # The grouped probe's build of a multi-source inner block
        # charges the same budget.
        db = Database(
            {
                "r": Relation(("a",), [(i,) for i in range(5)]),
                "s": Relation(("c",), [(i,) for i in range(500)]),
                "t": Relation(("c",), [(i,) for i in range(500)]),
            }
        )
        sql = "SELECT a FROM r WHERE EXISTS (SELECT s.c FROM s, t WHERE s.c = r.a AND s.c = t.c)"
        with pytest.raises(RowBudgetExceeded):
            execute_sql(db, sql, limits=ResourceLimits(max_rows_examined=100))

    def test_budget_counts_bucket_rows(self):
        # A single-source inner block reads buckets of the kept index on
        # s.c: its build is not counted, each bucket row it examines is.
        db = Database(
            {
                "r": Relation(("a",), [(i,) for i in range(5)]),
                "s": Relation(("c", "d"), [(i % 5, i) for i in range(500)]),
            }
        )
        # s.d < r.a fails on every row of r.a's bucket of 100
        sql = "SELECT a FROM r WHERE EXISTS (SELECT c FROM s WHERE s.c = r.a AND s.d < r.a)"
        with pytest.raises(RowBudgetExceeded):
            execute_sql(db, sql, limits=ResourceLimits(max_rows_examined=100))
        executor = Executor(db, limits=ResourceLimits(max_rows_examined=505))
        assert executor.execute(parse_sql(sql)).rows == []
        assert executor.ctx.rows_examined == 5 + 5 * 100
        assert executor.ctx.probe_build_rows == 0

    def test_unlimited_limits_object_costs_nothing(self, cross_db):
        executor = Executor(cross_db, limits=ResourceLimits())
        assert executor.ctx.governor is None


class TestAnytimeBruteforce:
    def test_no_deadline_is_complete(self, intro_db):
        q = Difference(RelationRef("R"), RelationRef("S"))
        full = certain_answers_with_nulls(q, intro_db)
        assert bruteforce.LAST_SEARCH.complete
        assert bruteforce.LAST_SEARCH.elapsed >= 0.0
        assert full.rows == []  # R - S is never certain when S may be 1

    def test_expired_deadline_returns_sound_subset(self):
        n1, n2, n3 = Null(), Null(), Null()
        db = Database(
            {
                "R": Relation(("A", "B"), [(1, n1), (2, 3), (n2, n3), (4, 5)]),
            }
        )
        q = RelationRef("R")
        full = certain_answers_with_nulls(q, db)
        partial = certain_answers_with_nulls(q, db, deadline=0.0)
        stats = bruteforce.LAST_SEARCH
        assert not stats.complete
        assert stats.elapsed >= 0.0
        assert partial.attributes == full.attributes
        assert set(partial.rows) <= set(full.rows)  # sound: no false positives

    def test_cutoff_in_candidate_phase_keeps_confirmed_answers(self, monkeypatch):
        """With a fake clock the deadline expires mid-candidate-loop:
        everything confirmed before the cutoff is returned and sound."""

        class FakeTime:
            def __init__(self):
                self.now = 0.0

            def monotonic(self):
                self.now += 1.0
                return self.now

        n = Null()
        db = Database({"R": Relation(("A", "B"), [(1, n), (2, 3)])})
        q = RelationRef("R")
        full = certain_answers_with_nulls(q, db)
        full_stats = bruteforce.LAST_SEARCH
        # Clock calls: 1 start + one per world after the first (3 here),
        # then one per candidate; a cutoff of 4.5 survives the world
        # phase and expires after the first candidate is processed.
        monkeypatch.setattr(bruteforce, "time", FakeTime())
        partial = certain_answers_with_nulls(q, db, deadline=4.5)
        stats = bruteforce.LAST_SEARCH
        assert not stats.complete
        # The search got past world evaluation into the candidate phase.
        assert stats.candidates_considered == full_stats.candidates_considered
        assert set(partial.rows) <= set(full.rows)

    def test_generous_deadline_matches_exact_answer(self):
        n = Null()
        db = Database({"R": Relation(("A", "B"), [(1, n), (2, 3)])})
        q = RelationRef("R")
        exact = certain_answers_with_nulls(q, db)
        timed = certain_answers_with_nulls(q, db, deadline=120.0)
        assert bruteforce.LAST_SEARCH.complete
        assert timed.rows == exact.rows
