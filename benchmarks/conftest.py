"""Shared fixtures for the benchmark suite.

Each benchmark either regenerates one of the paper's artefacts (Figures
1 and 4, Table 1, Section 5, recall) at laptop scale or times one engine
or oracle feature, and prints the resulting table.  Run the whole suite
with ``PYTHONPATH=src python -m pytest benchmarks/ -s``.  Do not add
``--benchmark-only``: it skips every test that takes no ``benchmark``
fixture, and such tests make assertions too.  The layered end-to-end
benchmark lives in ``layerbench/`` (see its README).
"""

import random

import pytest

from repro.sql.parser import parse_sql
from repro.sql.rewrite import RewriteOptions, rewrite_certain
from repro.tpch.datafiller import generate_small_instance
from repro.tpch.dbgen import generate_instance
from repro.tpch.nullify import inject_nulls
from repro.tpch.queries import QUERIES, sample_parameters
from repro.tpch.schema import tpch_schema


@pytest.fixture(scope="session")
def schema():
    return tpch_schema()


@pytest.fixture(scope="session")
def perf_db():
    """DBGen-style instance at scale unit 1 with 3% nulls (Figure 4)."""
    return inject_nulls(generate_instance(scale=1.0, seed=101), 0.03, seed=102)


@pytest.fixture(scope="session")
def fp_db():
    """DataFiller-style instance with 5% nulls (Figure 1 / recall)."""
    return inject_nulls(generate_small_instance(scale=0.4, seed=103), 0.05, seed=104)


@pytest.fixture(scope="session")
def compiled_queries(schema):
    """{qid: (original, auto Q+, appendix Q+, unsplit Q+)} ASTs."""
    out = {}
    for qid, (original_sql, appendix_sql, _names) in QUERIES.items():
        original = parse_sql(original_sql)
        out[qid] = (
            original,
            rewrite_certain(original, schema),
            parse_sql(appendix_sql),
            rewrite_certain(
                original, schema, RewriteOptions(split="never", fold_views="never")
            ),
        )
    return out


@pytest.fixture()
def rng():
    return random.Random(2016)


@pytest.fixture(scope="session")
def perf_params(perf_db):
    """One fixed parameter draw per query (deterministic timings)."""
    rng = random.Random(7)
    return {qid: sample_parameters(qid, perf_db, rng=rng) for qid in QUERIES}
