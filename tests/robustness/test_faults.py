"""Fault injection hooks: scan faults, stalls caught by deadlines."""

import time

import pytest

from repro.data import Database, Relation
from repro.engine import QueryTimeout, ResourceLimits, execute_sql
from repro.engine import blocks
from repro.testing import faults


@pytest.fixture(autouse=True)
def clean_faults():
    yield
    faults.clear_faults()


@pytest.fixture
def db():
    return Database(
        {
            "t": Relation(("a",), [(i,) for i in range(200)]),
            "u": Relation(("b",), [(0,), (1,)]),
        }
    )


class TestScanFaults:
    def test_raises_at_nth_row(self, db):
        with faults.scan_fault("t", nth=5):
            with pytest.raises(faults.InjectedFault):
                execute_sql(db, "SELECT a FROM t")
        # Cleared: the same query runs fine afterwards.
        assert blocks.SCAN_FAULT_HOOK is None
        assert len(execute_sql(db, "SELECT a FROM t")) == 200

    def test_custom_error(self, db):
        boom = OSError("disk gone")
        with faults.scan_fault("t", nth=0, error=boom):
            with pytest.raises(OSError, match="disk gone"):
                execute_sql(db, "SELECT a FROM t")

    def test_only_the_named_table_is_affected(self, db):
        with faults.scan_fault("t", nth=0):
            assert len(execute_sql(db, "SELECT b FROM u")) == 2

    def test_times_bounds_firings(self, db):
        with faults.scan_fault("t", nth=0, times=1) as fault:
            with pytest.raises(faults.InjectedFault):
                execute_sql(db, "SELECT a FROM t")
            # Second scan: the fault is spent.
            assert len(execute_sql(db, "SELECT a FROM t")) == 200
            assert fault.fired == 1

    def test_fires_after_an_earlier_statement_kept_the_index(self, db):
        # A literal probe of t reads t only through its index, which the
        # first statement keeps on the relation.  A faulty scan of t must
        # not be answered from it, statement after statement, nor change
        # what is kept.
        sql = "SELECT a FROM t WHERE a = 7"
        assert len(execute_sql(db, sql)) == 1
        kept = dict(db["t"].indexes)
        assert kept
        with faults.scan_fault("t", nth=5) as fault:
            for _ in range(2):
                with pytest.raises(faults.InjectedFault):
                    execute_sql(db, sql)
            assert fault.fired == 2
        assert db["t"].indexes == kept
        assert len(execute_sql(db, sql)) == 1

    def test_delay_fault_is_caught_by_deadline(self, db):
        # A stalled scan (e.g. slow storage) must trip the query's
        # deadline rather than hang: delay injects the stall, the
        # governor's clock catches it at the next amortised check.
        with faults.scan_fault("t", nth=100, delay=0.15):
            start = time.monotonic()
            with pytest.raises(QueryTimeout):
                execute_sql(
                    db,
                    "SELECT a FROM t",
                    limits=ResourceLimits(deadline_seconds=0.05),
                )
            assert time.monotonic() - start < 5.0

    @pytest.mark.parametrize("where", ["a > b", "a > 5"])
    def test_fires_inside_a_filter_pass(self, where):
        # A filter pass iterates the table's rows: a constant-free
        # filter and one with a literal both fire.
        db = Database({"t": Relation(("a", "b"), [(i % 9, i % 4) for i in range(30)])})
        sql = f"SELECT a FROM t WHERE {where}"
        with faults.scan_fault("t", nth=5) as fault:
            with pytest.raises(faults.InjectedFault):
                execute_sql(db, sql)
            assert fault.fired == 1
        assert len(execute_sql(db, sql)) > 5

    def test_delay_inside_a_filter_pass_is_caught_by_deadline(self, db):
        with faults.scan_fault("t", nth=100, delay=0.15):
            with pytest.raises(QueryTimeout):
                execute_sql(
                    db,
                    "SELECT a FROM t WHERE a > 5",
                    limits=ResourceLimits(deadline_seconds=0.05),
                )

    def test_delay_without_limits_completes(self, db):
        with faults.scan_fault("t", nth=100, delay=0.01):
            assert len(execute_sql(db, "SELECT a FROM t")) == 200


class TestTaskFaults:
    def test_fires_on_matching_key_only(self):
        faults.install_task_fault("job-1", times=1)
        faults.check_task_fault("job-0")  # no-op
        with pytest.raises(faults.InjectedFault):
            faults.check_task_fault("job-1")
        faults.check_task_fault("job-1")  # spent

    def test_clear_removes_task_faults(self):
        faults.install_task_fault("job-2")
        faults.clear_faults()
        faults.check_task_fault("job-2")
