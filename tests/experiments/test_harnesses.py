"""Experiment harnesses on miniature settings: structure and shapes."""

import math


from repro.experiments import performance
from repro.experiments.falsepos import run_false_positive_experiment
from repro.experiments.infeasible import run_infeasibility_experiment
from repro.experiments.performance import rewritten_queries, run_price_of_correctness
from repro.experiments.recall import run_recall_experiment
from repro.experiments.scaling import run_scaling_experiment
from repro.sql.parser import parse_sql
from repro.sql.rewrite import rewrite_certain
from repro.tpch.queries import QUERIES
from repro.tpch.schema import tpch_schema


class TestFalsePositives:
    def test_structure_and_shapes(self):
        series = run_false_positive_experiment(
            null_rates=(0.02, 0.08),
            instances=2,
            executions=2,
            scale=0.2,
            seed=7,
        )
        assert set(series) == {"Q1", "Q2", "Q3", "Q4"}
        for points in series.values():
            assert [x for x, _y in points] == [2.0, 8.0]
            assert all(0.0 <= y <= 100.0 for _x, y in points)
        # Q2: with any null o_custkey, all answers are false positives —
        # at an 8% rate on hundreds of orders this is near-certain.
        assert series["Q2"][-1][1] > 50.0
        # Q3 produces a substantial share of wrong answers.
        assert series["Q3"][-1][1] > 10.0


class TestPriceOfCorrectness:
    def test_structure(self):
        series, _report = run_price_of_correctness(
            null_rates=(0.03,),
            scale=0.2,
            instances=1,
            param_draws=1,
            repeats=1,
            seed=1,
        )
        assert set(series) == {"Q1", "Q2", "Q3", "Q4"}
        for points in series.values():
            (x, ratio), = points
            assert x == 3.0
            assert ratio > 0 and not math.isnan(ratio)

    def test_rewritten_queries_modes_agree_on_parse(self):
        auto = rewritten_queries()
        assert set(auto) == set(QUERIES) == {"Q1", "Q2", "Q3", "Q4"}
        for qid, (original, plus) in auto.items():
            assert original == parse_sql(QUERIES[qid][0])
            assert plus == rewrite_certain(original, tpch_schema())

    def test_q2_wins_q4_pays(self):
        """The Figure 4 shape at reduced scale: Q+2 at least 2x faster,
        Q+4 slower than the original."""
        series, _report = run_price_of_correctness(
            null_rates=(0.03,),
            scale=0.5,
            instances=1,
            param_draws=2,
            repeats=2,
            seed=3,
            query_ids=("Q2", "Q4"),
        )
        assert series["Q2"][0][1] < 0.5
        assert series["Q4"][0][1] > 1.0


class TestParallelHarness:
    """workers= fans instances out over a process pool; shapes must match."""

    def test_price_of_correctness_parallel_structure(self):
        series, _report = run_price_of_correctness(
            null_rates=(0.03,),
            scale=0.1,
            instances=2,
            param_draws=1,
            repeats=1,
            seed=1,
            query_ids=("Q1",),
            workers=2,
        )
        ((x, ratio),) = series["Q1"]
        assert x == 3.0
        assert ratio > 0 and not math.isnan(ratio)

    def test_parallel_runs_are_deterministic(self, monkeypatch):
        kwargs = dict(
            null_rates=(0.03,),
            scale=0.1,
            instances=2,
            param_draws=1,
            repeats=1,
            seed=4,
            query_ids=("Q1",),
        )
        submitted = []
        real_run_tasks = performance.run_tasks

        def recording_run_tasks(worker, tasks, **options):
            submitted.append(tasks)
            return real_run_tasks(worker, tasks, **options)

        monkeypatch.setattr(performance, "run_tasks", recording_run_tasks)
        serial, serial_report = run_price_of_correctness(workers=None, **kwargs)
        pooled, pooled_report = run_price_of_correctness(workers=2, **kwargs)
        # Timing ratios jitter, but both runs measure the same instances
        # with the same parameter seeds.
        assert submitted[0] == submitted[1]
        assert [x for x, _ in serial["Q1"]] == [x for x, _ in pooled["Q1"]]
        assert serial_report.completed == pooled_report.completed == 2

    def test_scaling_parallel_structure(self):
        table, _report = run_scaling_experiment(
            scales=(1.0,),
            null_rates=(0.03,),
            param_draws=1,
            repeats=1,
            base_scale=0.1,
            seed=2,
            query_ids=("Q1",),
            workers=2,
        )
        (lo, hi) = table["Q1"][1.0]
        assert 0 < lo <= hi


class TestScaling:
    def test_structure(self):
        table, _report = run_scaling_experiment(
            scales=(1.0, 2.0),
            null_rates=(0.03,),
            param_draws=1,
            repeats=1,
            base_scale=0.1,
            seed=2,
            query_ids=("Q1", "Q3"),
        )
        assert set(table) == {"Q1", "Q3"}
        for per_scale in table.values():
            assert set(per_scale) == {1.0, 2.0}
            for lo, hi in per_scale.values():
                assert 0 < lo <= hi


class TestInfeasibility:
    def test_qt_work_grows_superlinearly(self):
        results = run_infeasibility_experiment(
            sizes=(10, 25), budget=5_000_000, null_rate=0.1, seed=0
        )
        small, medium = results
        for r in results:
            assert r["libkin_failed"] is None
            assert r["plus_rows"] < 5_000  # Q+ stays tiny throughout
        assert medium["libkin_rows"] > 4 * small["libkin_rows"]
        assert medium["libkin_rows"] > 50 * medium["plus_rows"]

    def test_qt_trips_budget_at_moderate_size(self):
        (result,) = run_infeasibility_experiment(
            sizes=(60,), budget=30_000, null_rate=0.1, seed=0
        )
        assert result["libkin_failed"] is not None
        assert result["plus_rows"] < 5_000


class TestRecall:
    def test_recall_is_perfect_and_no_flagged_answers_returned(self):
        results = run_recall_experiment(
            null_rates=(0.05,),
            instances=2,
            param_draws=2,
            scale=0.04,
            seed=5,
        )
        assert set(results) == {"Q1", "Q2", "Q3", "Q4"}
        for comparisons in results.values():
            for cmp in comparisons:
                assert cmp.rewritten_recall == 1.0
                assert cmp.missed_certain == 0
