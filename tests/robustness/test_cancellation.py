"""Cooperative cross-thread cancellation: searcher, engine, harness.

A :class:`~repro.engine.limits.CancelToken` fired from another thread
must stop an in-flight brute-force search and an in-flight engine
execution promptly (the searcher checks the token at every candidate
and world step, the engine within one ``LimitGovernor`` check
interval), leave behind honest instrumentation
(``SearchStats.complete == False``, ``cancelled == True``) and a sound
partial result, and never corrupt the thread-local ``LAST_SEARCH``
slot or a harness checkpoint file.
"""

import itertools
import json
import threading
import time

import pytest

from repro.algebra import RelationRef
from repro.certain import bruteforce, certain_answers_with_nulls
from repro.data import Database, Null, Relation
from repro.engine import (
    CancelToken,
    QueryCancelled,
    ResourceLimits,
    execute_sql,
)
from repro.experiments.runner import run_tasks


def wide_db(rows=12, nulls=2):
    """An instance whose search has thousands of candidates to verify."""
    pool = [Null(f"c{i}") for i in range(nulls)]
    tails = itertools.product((5, 6), repeat=4)
    return Database(
        {
            "R": Relation(
                ("A", "B", "C", "D", "E", "F"),
                [
                    (pool[0], pool[0], t[0], t[1], t[2], t[3])
                    for t in itertools.islice(tails, rows)
                ],
            ),
            "Z": Relation(("z",), [(p,) for p in pool]),
        }
    )


class TestSearcherCancellation:
    def test_cancel_from_another_thread_stops_next_candidate(self):
        """Deterministic cross-thread stop: a helper thread fires the
        token the moment the first tuple is confirmed, so exactly one
        tuple survives — the searcher stopped at its very next
        candidate check, well within one check interval."""
        db = wide_db()
        token = CancelToken()

        def fire_from_thread(_row, _stats):
            t = threading.Thread(target=token.cancel, args=("enough",))
            t.start()
            t.join()

        partial = certain_answers_with_nulls(
            RelationRef("R"),
            db,
            extra_constants=2,
            cancel=token,
            progress=fire_from_thread,
        )
        stats = bruteforce.LAST_SEARCH
        assert stats.cancelled and not stats.complete
        assert token.reason == "enough"
        assert stats.emitted == len(partial.rows) == 1
        full = certain_answers_with_nulls(RelationRef("R"), db, extra_constants=2)
        assert set(partial.rows) <= set(full.rows)  # sound subset

    def test_pre_fired_token_skips_world_evaluation(self, intro_db):
        token = CancelToken()
        token.cancel()
        result = certain_answers_with_nulls(
            RelationRef("R"), intro_db, cancel=token
        )
        stats = bruteforce.LAST_SEARCH
        assert result.rows == []
        assert result.attributes == intro_db["R"].attributes
        assert stats.cancelled and not stats.complete
        assert stats.worlds == stats.world_evals == 0
        assert stats.world_checks == 0

    def test_spent_deadline_skips_world_evaluation(self, intro_db):
        result = certain_answers_with_nulls(RelationRef("R"), intro_db, deadline=0.0)
        stats = bruteforce.LAST_SEARCH
        assert result.rows == []
        assert result.attributes == intro_db["R"].attributes
        assert not stats.complete and not stats.cancelled
        assert stats.worlds == stats.world_evals == 0
        assert stats.world_checks == 0

    def test_cancelled_search_does_not_corrupt_other_threads_stats(self):
        """Thread-local ``LAST_SEARCH``: a search cancelled on a worker
        thread never clobbers another thread's completed stats."""
        db = wide_db()
        barrier = threading.Barrier(2)
        outcome = {}

        def cancelled_worker():
            token = CancelToken()
            token.cancel()
            certain_answers_with_nulls(RelationRef("R"), db, cancel=token)
            barrier.wait()
            outcome["cancelled"] = bruteforce.LAST_SEARCH

        def clean_worker():
            certain_answers_with_nulls(RelationRef("Z"), db)
            barrier.wait()
            outcome["clean"] = bruteforce.LAST_SEARCH

        threads = [
            threading.Thread(target=cancelled_worker),
            threading.Thread(target=clean_worker),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert outcome["cancelled"].cancelled
        assert not outcome["cancelled"].complete
        assert outcome["clean"].complete and not outcome["clean"].cancelled
        assert outcome["clean"].arity == 1  # Z's stats, not R's

    def test_parallel_searches_keep_their_own_stats(self):
        """Regression: two concurrent searches must each read back their
        own ``LAST_SEARCH`` (a module global would let either clobber
        the other between search and read)."""
        n = Null()
        db = Database(
            {
                "R": Relation(("A", "B"), [(1, n), (2, 3)]),
                "S": Relation(("A",), [(n,), (4,)]),
            }
        )
        start = threading.Barrier(2)
        read_back = threading.Barrier(2)
        seen = {}

        def search(name, query, arity):
            start.wait()
            result = certain_answers_with_nulls(query, db)
            # Rendezvous *between* search and stats read: with a shared
            # global, the other thread's rebind would be visible here.
            read_back.wait()
            seen[name] = (bruteforce.LAST_SEARCH, result)
            assert bruteforce.LAST_SEARCH.arity == arity

        threads = [
            threading.Thread(target=search, args=("r", RelationRef("R"), 2)),
            threading.Thread(target=search, args=("s", RelationRef("S"), 1)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        r_stats, _ = seen["r"]
        s_stats, _ = seen["s"]
        assert r_stats is not s_stats
        assert (r_stats.arity, s_stats.arity) == (2, 1)
        assert r_stats.emitted == len(seen["r"][1].rows)
        assert s_stats.emitted == len(seen["s"][1].rows)


class TestEngineCancellation:
    def test_cancel_mid_flight_stops_execution_promptly(self):
        """A token fired while a million-row cross join is being scanned
        aborts the execution within one governor interval (~64 rows),
        observed as a prompt ``QueryCancelled`` long before the full
        scan could finish."""
        db = Database(
            {
                "t": Relation(("a",), [(i,) for i in range(2000)]),
                "u": Relation(("b",), [(i,) for i in range(2000)]),
            }
        )
        token = CancelToken()
        started = threading.Event()
        outcome = {}

        def worker():
            started.set()
            begin = time.monotonic()
            try:
                execute_sql(
                    db,
                    "SELECT a FROM t, u WHERE a < b",
                    limits=ResourceLimits(cancel=token),
                )
            except QueryCancelled as exc:
                outcome["error"] = exc
            outcome["elapsed"] = time.monotonic() - begin

        t = threading.Thread(target=worker)
        t.start()
        started.wait()
        time.sleep(0.02)  # let the scan get genuinely in flight
        fired_at = time.monotonic()
        token.cancel("test says stop")
        t.join(timeout=30.0)
        assert not t.is_alive()
        assert isinstance(outcome["error"], QueryCancelled)
        assert outcome["error"].token is token
        # Prompt: the 4M-row join takes seconds; cancellation landed in
        # a governor-interval-sized fraction of that.
        assert time.monotonic() - fired_at < 5.0

    def test_pre_fired_token_stops_before_row_work(self):
        db = Database({"t": Relation(("a",), [(1,), (2,)])})
        token = CancelToken()
        token.cancel()
        with pytest.raises(QueryCancelled):
            execute_sql(
                db, "SELECT a FROM t", limits=ResourceLimits(cancel=token)
            )


class TestHarnessCancellation:
    def test_run_tasks_cancel_keeps_checkpoint_consistent(self, tmp_path):
        """Cancellation between tasks keeps completed results and a
        valid checkpoint; a later run resumes from it cleanly."""
        checkpoint = tmp_path / "cancelled.json"
        token = CancelToken()

        def worker(payload):
            # Fire after the first task completes — simulates an
            # external thread cancelling between task boundaries.
            if payload == ("first",):
                token.cancel("budget spent")
            return {"payload": list(payload)}

        tasks = {"a": ("first",), "b": ("second",), "c": ("third",)}
        results, report = run_tasks(
            worker, tasks, checkpoint=str(checkpoint), cancel=token
        )
        assert report.cancelled
        assert set(results) == {"a"}
        assert report.completed == 1
        # The checkpoint is intact, valid JSON, and holds only completed
        # work — no torn or partial entries.
        saved = json.loads(checkpoint.read_text())
        assert saved == {"results": {"a": {"payload": ["first"]}}}
        # Resuming without the token finishes the remaining tasks.
        results2, report2 = run_tasks(worker, tasks, checkpoint=str(checkpoint))
        assert set(results2) == {"a", "b", "c"}
        assert report2.resumed == 1 and report2.completed == 2
        assert not report2.cancelled

    def test_cancelled_search_leaves_checkpoint_files_alone(self, tmp_path):
        """A searcher cancelled mid-run must not touch harness files —
        cancellation is cooperative and purely in-memory."""
        checkpoint = tmp_path / "untouched.json"
        checkpoint.write_text('{"results": {"keep": 1}}')
        before = checkpoint.read_text()
        token = CancelToken()
        token.cancel()
        certain_answers_with_nulls(
            RelationRef("R"),
            Database({"R": Relation(("A",), [(Null(),)])}),
            cancel=token,
        )
        assert not bruteforce.LAST_SEARCH.complete
        assert checkpoint.read_text() == before
