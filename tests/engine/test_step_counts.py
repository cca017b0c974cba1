"""The counters and EXPLAIN text of the paper's statements, pinned.

``Q1``–``Q4`` and their rewritings ``Q1+``–``Q4+`` (``rewrite_certain``)
run on one fixed TPC-H instance (``generate_instance`` at scale 1, 3%
nulls, all seeded) for one fixed parameter draw.  Each statement pins
the work counters its run adds (``rows_examined``, ``probe_build_rows``,
``probe_tables_built``, ``decorrelated_probes``, memo hits and misses),
its row count, and EXPLAIN's text after the run, actual step counts
included.

The values were recorded before blocks ran step by step (a per-row
pipeline that stopped an ``EXISTS``'s own block at its first row).  The
entries that moved since are those of such witness blocks: each one
says what it read before.
"""

import random

import pytest

from repro.engine import Executor
from repro.sql.parser import parse_sql
from repro.sql.rewrite import rewrite_certain
from repro.tpch.dbgen import generate_instance
from repro.tpch.nullify import inject_nulls
from repro.tpch.queries import QUERIES, sample_parameters, supplied_nations
from repro.tpch.schema import tpch_schema


@pytest.fixture(scope="module")
def statements():
    """``name → (db, params, query)`` for the eight statements."""
    db = inject_nulls(generate_instance(scale=1.0, seed=7), 0.03, seed=8)
    rng = random.Random(9)
    schema = tpch_schema()
    out = {}
    for qid, (sql, _appendix, _names) in QUERIES.items():
        params = sample_parameters(qid, db, rng=rng)
        if "nation" in params:  # a nation with a supplier: real work
            params["nation"] = rng.choice(supplied_nations(db))
        query = parse_sql(sql)
        out[qid] = (db, params, query)
        out[qid + "+"] = (db, params, rewrite_certain(query, schema))
    return out


#: (rows, rows_examined, probe_build_rows, probe_tables_built,
#: decorrelated_probes, probe_cache_hits, probe_cache_misses)
COUNTS = {
    "Q1": (14, 1525, 0, 0, 386, 0, 0),
    "Q1+": (11, 1524, 0, 0, 386, 0, 0),
    "Q2": (5, 84, 0, 0, 15, 0, 0),
    # Witness block: Q2+'s uncorrelated NOT EXISTS over orders lists
    # its whole scan, 47 rows, where it stopped at its first; it was
    # (0, 1, 0, 0, 0, 0, 0).
    "Q2+": (0, 47, 0, 0, 0, 0, 0),
    "Q3": (22, 2978, 0, 0, 1500, 0, 0),
    "Q3+": (16, 2984, 0, 0, 1500, 0, 0),
    "Q4": (1474, 1500, 38, 1, 1500, 0, 0),
    # Witness block: the uncorrelated EXISTS over part_view lists its
    # 19 rows, where it stopped at its first, once among the kept-index
    # NOT EXISTS's checks (rows_examined 1527 -> 1545) and once inside
    # the third probe table's build (probe_build_rows 132 -> 150); it
    # was (1407, 1527, 132, 3, 5787, 0, 0).
    "Q4+": (1407, 1545, 150, 3, 5787, 0, 0),
}


#: EXPLAIN after the run
EXPLAIN = {
    "Q1": """\
block over supplier, lineitem, orders, nation  (rows≈26, cost≈108)
  hash probe nation [n_name]  [order est≈1, actual 1]
  hash probe supplier [s_nationkey]  [order est≈1, actual 1]
  hash probe orders [o_orderstatus]  [order est≈26, actual 789]
  hash probe lineitem [l_suppkey, l_orderkey]  [order est≈26, actual 199]
  EXISTS (kept index [l_orderkey], ×26 probes)  (rows≈4, cost≈26)
  NOT EXISTS (kept index [l_orderkey], ×26 probes)  (rows≈3, cost≈26)
-- total estimated cost: 108
""",
    "Q1+": """\
block over supplier, lineitem, orders, nation  (rows≈26, cost≈108)
  hash probe nation [n_name]  [order est≈1, actual 1]
  hash probe supplier [s_nationkey]  [order est≈1, actual 1]
  hash probe orders [o_orderstatus]  [order est≈26, actual 789]
  hash probe lineitem [l_suppkey, l_orderkey]  [order est≈26, actual 199]
  EXISTS (kept index [l_orderkey], ×26 probes)  (rows≈4, cost≈26)
  NOT EXISTS (kept index [l_orderkey], ×26 probes)  (rows≈3, cost≈26)
-- total estimated cost: 108
""",
    "Q2": """\
block over customer  (rows≈38, cost≈112)
  scan customer  [order est≈38, actual 38]
  scalar AVG (×1 invocation)  (rows≈36, cost≈36)
    scan customer  [order est≈36, actual 36]
  NOT EXISTS (kept index [o_custkey], ×38 probes)  (rows≈10, cost≈38)
-- total estimated cost: 112
""",
    # Witness block: "scan orders ... actual 47" read "actual 1".
    "Q2+": """\
block over customer  (rows≈38, cost≈159)
  scan customer  [order est≈38]
  NOT EXISTS (×1 invocation)  (rows≈47, cost≈47)
    scan orders  [order est≈47, actual 47]
  scalar AVG (×1 invocation)  (rows≈36, cost≈36)
    scan customer  [order est≈36]
  NOT EXISTS (kept index [o_custkey], ×38 probes)  (rows≈10, cost≈38)
-- total estimated cost: 159
""",
    "Q3": """\
block over orders  (rows≈1500, cost≈3000)
  scan orders  [order est≈1500, actual 1500]
  NOT EXISTS (kept index [l_orderkey], ×1500 probes)  (rows≈4, cost≈1500)
-- total estimated cost: 3000
""",
    "Q3+": """\
block over orders  (rows≈1500, cost≈3000)
  scan orders  [order est≈1500, actual 1500]
  NOT EXISTS (kept index [l_orderkey], ×1500 probes)  (rows≈4, cost≈1500)
-- total estimated cost: 3000
""",
    "Q4": """\
block over orders  (rows≈1500, cost≈1524)
  scan orders  [order est≈1500, actual 1500]
  NOT EXISTS (probe table, one build)  (rows≈11, cost≈24)
    hash probe nation [n_name]  [order est≈1]
    hash probe supplier [s_nationkey]  [order est≈1]
    hash probe lineitem [l_orderkey, l_suppkey]  [order est≈1]
    hash probe part [p_partkey]  [order est≈1]
-- total estimated cost: 1524
""",
    # Witness blocks: both "scan part_view ... actual 19" read "actual 1".
    "Q4+": """\
-- WITH part_view: materialised (19 rows)
-- WITH supp_view: materialised (1 rows)
block over part  (rows≈10, cost≈10)
  scan part  [order est≈10, actual 10]
block over part  (rows≈9, cost≈9)
  scan part  [order est≈9, actual 9]
block over supplier, nation  (rows≈1, cost≈2)
  hash probe nation [n_name]  [order est≈1, actual 1]
  hash probe supplier [s_nationkey]  [order est≈1, actual 1]
block over supplier, nation  (rows≈0, cost≈0)
  scan supplier  [order est≈0, actual 0]
  hash probe nation [n_name]  [order est≈0, actual 0]
block over orders  (rows≈1500, cost≈1644)
  scan orders  [order est≈1500, actual 1500]
  NOT EXISTS (probe table, one build)  (rows≈19, cost≈39)
    scan supp_view  [order est≈1]
    hash probe lineitem [l_orderkey, l_suppkey]  [order est≈1]
    hash probe part_view [p_partkey]  [order est≈1]
  NOT EXISTS (probe table, one build)  (rows≈26, cost≈46)
    hash probe lineitem [l_orderkey]  [order est≈1]
    hash probe part_view [p_partkey]  [order est≈1]
    EXISTS (×1 invocation)  (rows≈1, cost≈1)
      scan supp_view  [order est≈1, actual 1]
  NOT EXISTS (probe table, one build)  (rows≈13, cost≈33)
    scan supp_view  [order est≈1]
    hash probe lineitem [l_orderkey, l_suppkey]  [order est≈1]
    EXISTS (×1 invocation)  (rows≈19, cost≈19)
      scan part_view  [order est≈19, actual 19]
  NOT EXISTS (kept index [l_orderkey], ×1500 probes)  (rows≈1, cost≈25)
    EXISTS (×1 invocation)  (rows≈19, cost≈19)
      scan part_view  [order est≈19, actual 19]
    EXISTS (×1 invocation)  (rows≈1, cost≈1)
      scan supp_view  [order est≈1, actual 1]
-- total estimated cost: 1665
""",
}


@pytest.mark.parametrize("name", list(COUNTS))
def test_counts_and_explain_are_pinned(statements, name):
    db, params, query = statements[name]
    executor = Executor(db, params)
    prepared = executor.prepare(query)
    rows = prepared.run().rows
    ctx = executor.ctx
    counts = (
        len(rows),
        ctx.rows_examined,
        ctx.probe_build_rows,
        ctx.probe_tables_built,
        ctx.decorrelated_probes,
        ctx.probe_cache_hits,
        ctx.probe_cache_misses,
    )
    assert counts == COUNTS[name]
    assert prepared.explain() == EXPLAIN[name].rstrip("\n")
