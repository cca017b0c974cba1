"""Fault-tolerant task runner and hardened experiment harnesses."""

import math
import time

import pytest

from repro.experiments import performance, scaling
from repro.experiments.runner import RunReport, run_tasks
from repro.testing import faults


@pytest.fixture(autouse=True)
def clean_faults():
    yield
    faults.clear_faults()


# --- module-level workers: must be picklable for the process pool ---------

def _double(task):
    return task[0] * 2


def _flaky(task):
    faults.check_task_fault(task[0])
    return task[0]


def _crash(task):
    faults.check_task_fault(str(task[0]))
    return task[0]


def _sleepy(task):
    time.sleep(task[0])
    return task[0]


class TestRunTasksInline:
    def test_all_succeed(self):
        results, report = run_tasks(_double, {"a": (1,), "b": (2,)})
        assert results == {"a": 2, "b": 4}
        assert report.completed == 2 and report.failed == 0
        assert report.total == 2

    def test_failure_is_recorded_not_raised(self):
        faults.install_task_fault("bad", error=RuntimeError("boom"))
        results, report = run_tasks(
            _flaky, {"ok": ("ok",), "bad": ("bad",)}, retries=0, backoff=0.0
        )
        assert results == {"ok": "ok"}
        (failure,) = report.failed_instances
        assert failure.key == "bad"
        assert "boom" in failure.error
        assert failure.attempts == 1

    def test_retry_recovers_transient_failure(self):
        # The fault fires once; the first retry succeeds.
        faults.install_task_fault("flaky", error=RuntimeError("blip"), times=1)
        results, report = run_tasks(
            _flaky, {"flaky": ("flaky",)}, retries=2, backoff=0.0
        )
        assert results == {"flaky": "flaky"}
        assert report.retries == 1
        assert report.failed == 0

    def test_retries_exhausted(self):
        faults.install_task_fault("doomed", error=RuntimeError("always"))
        results, report = run_tasks(
            _flaky, {"doomed": ("doomed",)}, retries=2, backoff=0.0
        )
        assert results == {}
        (failure,) = report.failed_instances
        assert failure.attempts == 3  # initial try + 2 retries
        assert report.retries == 2


class TestRunTasksPool:
    def test_pool_results_match_inline(self):
        tasks = {str(i): (i,) for i in range(6)}
        inline, _ = run_tasks(_double, tasks)
        pooled, report = run_tasks(_double, tasks, workers=2)
        assert pooled == inline
        assert report.completed == 6

    def test_worker_exception_is_retried_then_recorded(self):
        faults.install_task_fault("bad", error=RuntimeError("boom"))
        tasks = {"ok": ("ok",), "bad": ("bad",)}
        results, report = run_tasks(
            _flaky, tasks, workers=2, retries=1, backoff=0.0
        )
        assert results == {"ok": "ok"}
        (failure,) = report.failed_instances
        assert failure.key == "bad" and "boom" in failure.error
        assert report.retries == 1

    def test_hung_worker_times_out(self):
        # One task sleeps far beyond the timeout; the other completes.
        tasks = {"fast": (0.0,), "slow": (60.0,)}
        results, report = run_tasks(
            _sleepy, tasks, workers=2, task_timeout=1.0, retries=0
        )
        assert results == {"fast": 0.0}
        (failure,) = report.failed_instances
        assert failure.key == "slow"
        assert "no result within" in failure.error

    def test_crashed_worker_is_contained(self):
        # os._exit kills the worker outright — no exception crosses the
        # pipe, so the timeout is the detector; the pool repopulates and
        # the other tasks complete.
        faults.install_task_fault("1", exit_code=1)
        tasks = {str(i): (i,) for i in range(4)}
        results, report = run_tasks(
            _crash, tasks, workers=2, task_timeout=5.0, retries=0
        )
        assert set(results) == {"0", "2", "3"}
        (failure,) = report.failed_instances
        assert failure.key == "1"


class TestHardenedFigure4:
    def test_crashing_instance_reported_others_measured(self):
        """The acceptance scenario: figure4 with workers=2 and one
        fault-injected crashing instance completes, reports that
        instance in failed_instances, and keeps the other measurements.
        """
        faults.install_task_fault("0.03:1", exit_code=1)
        series, report = performance.run_price_of_correctness(
            null_rates=(0.03,),
            scale=0.05,
            instances=3,
            param_draws=1,
            repeats=1,
            seed=1,
            query_ids=("Q1",),
            workers=2,
            task_timeout=10.0,
            retries=0,
            backoff=0.0,
        )
        assert [f.key for f in report.failed_instances] == ["0.03:1"]
        assert report.completed == 2
        ((x, ratio),) = series["Q1"]
        assert x == 3.0
        assert ratio > 0 and not math.isnan(ratio)

    def test_all_instances_failing_yields_nan_not_crash(self):
        faults.install_task_fault("0.05:0", error=RuntimeError("boom"))
        series, report = performance.run_price_of_correctness(
            null_rates=(0.05,),
            scale=0.05,
            instances=1,
            param_draws=1,
            repeats=1,
            seed=2,
            query_ids=("Q1",),
            workers=2,
            task_timeout=30.0,
            retries=0,
            backoff=0.0,
        )
        assert report.failed == 1
        ((_x, ratio),) = series["Q1"]
        assert math.isnan(ratio)

    def test_serial_run_reports_discarded_and_completed(self):
        _series, report = performance.run_price_of_correctness(
            null_rates=(0.03,),
            scale=0.05,
            instances=1,
            param_draws=1,
            repeats=1,
            seed=3,
            query_ids=("Q1",),
        )
        assert isinstance(report, RunReport)
        assert report.completed == 1
        assert report.discarded_samples >= 0


class TestSerialFaultInjection:
    """A serial run (``workers=None``) goes through the same task runner
    as a pooled one: faults fire and failures are recorded."""

    def test_figure4_serial_failure_recorded(self):
        faults.install_task_fault("0.03:0", error=RuntimeError("boom"))
        series, report = performance.run_price_of_correctness(
            null_rates=(0.03,),
            scale=0.05,
            instances=2,
            param_draws=1,
            repeats=1,
            seed=1,
            query_ids=("Q1",),
            workers=None,
            retries=0,
            backoff=0.0,
        )
        assert report.failed == 1
        (failure,) = report.failed_instances
        assert failure.key == "0.03:0" and "boom" in failure.error
        assert report.completed == 1
        ((_x, ratio),) = series["Q1"]
        assert ratio > 0 and not math.isnan(ratio)

    def test_table1_serial_failure_recorded(self):
        faults.install_task_fault("1:0.03", error=RuntimeError("boom"))
        table, report = scaling.run_scaling_experiment(
            scales=(1.0,),
            null_rates=(0.01, 0.03),
            param_draws=1,
            repeats=1,
            base_scale=0.05,
            seed=2,
            query_ids=("Q1",),
            workers=None,
            retries=0,
            backoff=0.0,
        )
        assert report.failed == 1
        assert [f.key for f in report.failed_instances] == ["1:0.03"]
        assert report.completed == 1
        lo, hi = table["Q1"][1.0]
        assert 0 < lo == hi
