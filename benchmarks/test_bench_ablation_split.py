"""Ablation A1 — what the Section 7 query tuning buys.

* Q4: the naive (unsplit, unfolded) rewriting forces nested loops on an
  engine without probe decorrelation; the disjunction-split +
  view-folded form restores hash joins.  The paper saw "astronomical"
  plan costs.  This engine hash-decorrelates the unsplit form's
  correlated subqueries itself, so the variants are only checked to
  agree and their run times are printed (docs/engine.md records the
  timings of the removed no-decorrelation engine).
* Q2: splitting decorrelates one ``NOT EXISTS``, enabling the engine's
  whole-query short-circuit — the source of the 10³x speed-up.
"""

import pytest

from repro.engine import execute_sql
from repro.sql.parser import parse_sql
from repro.sql.rewrite import RewriteOptions, rewrite_certain
from repro.tpch.queries import QUERIES


@pytest.fixture(scope="module")
def q4_variants(schema):
    original = parse_sql(QUERIES["Q4"][0])
    return {
        "tuned": rewrite_certain(original, schema),
        "unsplit": rewrite_certain(
            original, schema, RewriteOptions(split="never", fold_views="never")
        ),
        "folded-only": rewrite_certain(
            original, schema, RewriteOptions(split="never")
        ),
    }


@pytest.fixture(scope="module")
def q2_variants(schema):
    original = parse_sql(QUERIES["Q2"][0])
    return {
        "tuned": rewrite_certain(original, schema),
        "unsplit": rewrite_certain(
            original, schema, RewriteOptions(split="never", fold_views="never")
        ),
    }


class TestQ4Tuning:
    def test_q4_tuned(self, benchmark, perf_db, perf_params, q4_variants):
        benchmark.group = "ablation-q4"
        benchmark(lambda: execute_sql(perf_db, q4_variants["tuned"], perf_params["Q4"]))

    def test_q4_folded_only(self, benchmark, perf_db, perf_params, q4_variants):
        benchmark.group = "ablation-q4"
        benchmark(
            lambda: execute_sql(perf_db, q4_variants["folded-only"], perf_params["Q4"])
        )

    def test_q4_unsplit(self, benchmark, perf_db, perf_params, q4_variants):
        benchmark.group = "ablation-q4"
        benchmark(lambda: execute_sql(perf_db, q4_variants["unsplit"], perf_params["Q4"]))

    def test_variants_agree(self, benchmark, perf_db, perf_params, q4_variants):
        import time

        def run():
            timings = {}
            answers = {}
            for name, query in q4_variants.items():
                start = time.perf_counter()
                answers[name] = set(execute_sql(perf_db, query, perf_params["Q4"]).rows)
                timings[name] = time.perf_counter() - start
            return timings, answers

        timings, answers = benchmark.pedantic(run, rounds=1, iterations=1)
        print()
        for name, t in sorted(timings.items(), key=lambda kv: kv[1]):
            print(f"  Q4+ {name:12s}: {t * 1000:8.1f} ms, {len(answers[name])} rows")
        assert answers["tuned"] == answers["unsplit"] == answers["folded-only"]


class TestQ2Tuning:
    def test_q2_tuned(self, benchmark, perf_db, perf_params, q2_variants):
        benchmark.group = "ablation-q2"
        benchmark(lambda: execute_sql(perf_db, q2_variants["tuned"], perf_params["Q2"]))

    def test_q2_unsplit(self, benchmark, perf_db, perf_params, q2_variants):
        benchmark.group = "ablation-q2"
        benchmark(lambda: execute_sql(perf_db, q2_variants["unsplit"], perf_params["Q2"]))

    def test_split_enables_short_circuit(self, perf_db, perf_params, q2_variants, benchmark):
        from repro.engine.executor import Executor

        def run():
            tuned = Executor(perf_db, perf_params["Q2"])
            tuned.execute(q2_variants["tuned"])
            unsplit = Executor(perf_db, perf_params["Q2"])
            unsplit.execute(q2_variants["unsplit"])
            return tuned.ctx.rows_examined, unsplit.ctx.rows_examined

        tuned_rows, unsplit_rows = benchmark.pedantic(run, rounds=1, iterations=1)
        print(f"\n  rows examined: split={tuned_rows}, unsplit={unsplit_rows}")
        # The split version bails out after touching a handful of rows.
        assert tuned_rows * 5 < unsplit_rows
