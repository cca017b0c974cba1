"""Ablation A1 — what the Section 7 query tuning buys.

Compares the tuned rewriting (view folding + disjunction splitting, the
default) with the naive pass-1 form ``rewrite_certain(..., tune=False)``.

* Q4: the paper saw "astronomical" plan costs for the naive form.  This
  engine hash-decorrelates its correlated subqueries, so it does not
  break down, but the tuning still pays whenever ``$nation`` has a
  supplier: the naive form builds probe tables over about a thousand
  times more rows.  For a nation without one (``perf_params`` draws
  ARGENTINA) Q4 returns every order and both forms finish at once.
  docs/engine.md records the timings.
* Q2: splitting decorrelates one ``NOT EXISTS``, enabling the engine's
  whole-query short-circuit — the source of the 10³x speed-up.
"""

import random

import pytest

from repro.engine import execute_sql
from repro.engine.executor import Executor
from repro.sql.parser import parse_sql
from repro.sql.rewrite import rewrite_certain
from repro.tpch.queries import QUERIES, supplied_nations


def _variants(schema, qid):
    original = parse_sql(QUERIES[qid][0])
    return {
        "tuned": rewrite_certain(original, schema),
        "untuned": rewrite_certain(original, schema, tune=False),
    }


@pytest.fixture(scope="module")
def q4_variants(schema):
    return _variants(schema, "Q4")


@pytest.fixture(scope="module")
def q2_variants(schema):
    return _variants(schema, "Q2")


@pytest.fixture(params=["unsupplied", "supplied"])
def q4_params(request, perf_db, perf_params):
    """``perf_params``' Q4 draw, or the same with a nation that has a
    supplier, drawn as layerbench's ``tpch-sf1`` draws it."""
    if request.param == "unsupplied":
        return perf_params["Q4"]
    nation = random.Random(7).choice(supplied_nations(perf_db))
    return dict(perf_params["Q4"], nation=nation)


class TestQ4Tuning:
    def test_q4_tuned(self, benchmark, perf_db, perf_params, q4_variants):
        benchmark.group = "ablation-q4"
        benchmark(lambda: execute_sql(perf_db, q4_variants["tuned"], perf_params["Q4"]))

    def test_q4_untuned(self, benchmark, perf_db, perf_params, q4_variants):
        benchmark.group = "ablation-q4"
        benchmark(lambda: execute_sql(perf_db, q4_variants["untuned"], perf_params["Q4"]))

    def test_variants_agree(self, benchmark, perf_db, q4_params, q4_variants):
        import time

        def run():
            timings, answers, build_rows = {}, {}, {}
            for name, query in q4_variants.items():
                executor = Executor(perf_db, q4_params)
                start = time.perf_counter()
                answers[name] = set(executor.execute(query).rows)
                timings[name] = time.perf_counter() - start
                build_rows[name] = executor.ctx.probe_build_rows
            return timings, answers, build_rows

        timings, answers, build_rows = benchmark.pedantic(run, rounds=1, iterations=1)
        print(f"\n  $nation = {q4_params['nation']}")
        for name, t in sorted(timings.items(), key=lambda kv: kv[1]):
            print(
                f"  Q4+ {name:8s}: {t * 1000:8.1f} ms, {len(answers[name])} rows, "
                f"probe_build_rows {build_rows[name]}"
            )
        assert answers["tuned"] == answers["untuned"]
        if q4_params["nation"] in supplied_nations(perf_db):
            assert build_rows["tuned"] < build_rows["untuned"]


class TestQ2Tuning:
    def test_q2_tuned(self, benchmark, perf_db, perf_params, q2_variants):
        benchmark.group = "ablation-q2"
        benchmark(lambda: execute_sql(perf_db, q2_variants["tuned"], perf_params["Q2"]))

    def test_q2_untuned(self, benchmark, perf_db, perf_params, q2_variants):
        benchmark.group = "ablation-q2"
        benchmark(lambda: execute_sql(perf_db, q2_variants["untuned"], perf_params["Q2"]))

    def test_split_enables_short_circuit(self, perf_db, perf_params, q2_variants, benchmark):
        def run():
            tuned = Executor(perf_db, perf_params["Q2"])
            tuned.execute(q2_variants["tuned"])
            untuned = Executor(perf_db, perf_params["Q2"])
            untuned.execute(q2_variants["untuned"])
            return tuned.ctx.rows_examined, untuned.ctx.rows_examined

        tuned_rows, untuned_rows = benchmark.pedantic(run, rounds=1, iterations=1)
        print(f"\n  rows examined: split={tuned_rows}, unsplit={untuned_rows}")
        # The split version bails out after touching a handful of rows.
        assert tuned_rows * 5 < untuned_rows
