"""The paper's four test queries and their appendix rewrites.

``Q1_SQL`` … ``Q4_SQL`` are the originals from Section 3 (two TPC-H
queries with ``NOT EXISTS`` — TPC-H 21 and 22 stripped of aggregation —
and two textbook queries); ``Q*_PLUS_SQL`` are the hand rewrites from
the paper's appendix, kept verbatim as the reference the automatic
rewriter (:func:`repro.sql.rewrite.rewrite_certain`) is tested against.

:func:`sample_parameters` reproduces Section 3's parameter choices:
``$nation`` a random nation, ``$countries`` 7 distinct nation keys,
``$supp_key`` a random supplier key, ``$color`` one of the 92 TPC-H
part-name words.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.data.database import Database
from repro.tpch.words import P_NAME_WORDS

__all__ = [
    "Q1_SQL",
    "Q2_SQL",
    "Q3_SQL",
    "Q4_SQL",
    "Q1_PLUS_SQL",
    "Q2_PLUS_SQL",
    "Q3_PLUS_SQL",
    "Q4_PLUS_SQL",
    "QUERIES",
    "sample_parameters",
    "supplied_nations",
]

# ---------------------------------------------------------------------------
# Originals (Section 3)
# ---------------------------------------------------------------------------

Q1_SQL = """
SELECT s_suppkey, o_orderkey
FROM supplier, lineitem l1, orders, nation
WHERE s_suppkey = l1.l_suppkey
  AND o_orderkey = l1.l_orderkey
  AND o_orderstatus = 'F'
  AND l1.l_receiptdate > l1.l_commitdate
  AND EXISTS (
    SELECT *
    FROM lineitem l2
    WHERE l2.l_orderkey = l1.l_orderkey
      AND l2.l_suppkey <> l1.l_suppkey )
  AND NOT EXISTS (
    SELECT *
    FROM lineitem l3
    WHERE l3.l_orderkey = l1.l_orderkey
      AND l3.l_suppkey <> l1.l_suppkey
      AND l3.l_receiptdate > l3.l_commitdate )
  AND s_nationkey = n_nationkey
  AND n_name = $nation
"""

Q2_SQL = """
SELECT c_custkey, c_nationkey
FROM customer
WHERE c_nationkey IN ($countries)
  AND c_acctbal > (
    SELECT AVG(c_acctbal)
    FROM customer
    WHERE c_acctbal > 0.00
      AND c_nationkey IN ($countries) )
  AND NOT EXISTS (
    SELECT *
    FROM orders
    WHERE o_custkey = c_custkey )
"""

Q3_SQL = """
SELECT o_orderkey
FROM orders
WHERE NOT EXISTS (
  SELECT *
  FROM lineitem
  WHERE l_orderkey = o_orderkey
    AND l_suppkey <> $supp_key )
"""

Q4_SQL = """
SELECT o_orderkey
FROM orders
WHERE NOT EXISTS (
  SELECT *
  FROM lineitem, part, supplier, nation
  WHERE l_orderkey = o_orderkey
    AND l_partkey = p_partkey
    AND l_suppkey = s_suppkey
    AND p_name LIKE '%' || $color || '%'
    AND s_nationkey = n_nationkey
    AND n_name = $nation )
"""

# ---------------------------------------------------------------------------
# Appendix rewrites (verbatim from the paper)
# ---------------------------------------------------------------------------

Q1_PLUS_SQL = """
SELECT s_suppkey, o_orderkey
FROM supplier, lineitem l1, orders, nation
WHERE s_suppkey = l1.l_suppkey
  AND o_orderkey = l1.l_orderkey
  AND o_orderstatus = 'F'
  AND l1.l_receiptdate > l1.l_commitdate
  AND s_nationkey = n_nationkey
  AND n_name = $nation
  AND EXISTS (
    SELECT *
    FROM lineitem l2
    WHERE l2.l_orderkey = l1.l_orderkey
      AND l2.l_suppkey <> l1.l_suppkey )
  AND NOT EXISTS (
    SELECT *
    FROM lineitem l3
    WHERE l3.l_orderkey = l1.l_orderkey
      AND ( l3.l_suppkey <> l1.l_suppkey
            OR l3.l_suppkey IS NULL )
      AND ( l3.l_receiptdate > l3.l_commitdate
            OR l3.l_receiptdate IS NULL
            OR l3.l_commitdate IS NULL ) )
"""

Q2_PLUS_SQL = """
SELECT c_custkey, c_nationkey
FROM customer
WHERE c_nationkey IN ($countries)
  AND c_acctbal > (
    SELECT AVG(c_acctbal)
    FROM customer
    WHERE c_acctbal > 0.00
      AND c_nationkey IN ($countries) )
  AND NOT EXISTS (
    SELECT *
    FROM orders
    WHERE o_custkey = c_custkey )
  AND NOT EXISTS (
    SELECT *
    FROM orders
    WHERE o_custkey IS NULL )
"""

Q3_PLUS_SQL = """
SELECT o_orderkey
FROM orders
WHERE NOT EXISTS (
  SELECT *
  FROM lineitem
  WHERE l_orderkey = o_orderkey
    AND ( l_suppkey <> $supp_key
          OR l_suppkey IS NULL ) )
"""

Q4_PLUS_SQL = """
WITH
part_view AS (
  SELECT p_partkey
  FROM part
  WHERE p_name IS NULL
  UNION
  SELECT p_partkey
  FROM part
  WHERE p_name LIKE '%' || $color || '%' ),
supp_view AS (
  SELECT s_suppkey
  FROM supplier
  WHERE s_nationkey IS NULL
  UNION
  SELECT s_suppkey
  FROM supplier, nation
  WHERE s_nationkey = n_nationkey
    AND n_name = $nation )
SELECT o_orderkey
FROM orders
WHERE NOT EXISTS (
  SELECT *
  FROM lineitem, part_view, supp_view
  WHERE l_orderkey = o_orderkey
    AND l_partkey = p_partkey
    AND l_suppkey = s_suppkey )
AND NOT EXISTS (
  SELECT *
  FROM lineitem, supp_view
  WHERE l_orderkey = o_orderkey
    AND l_partkey IS NULL
    AND l_suppkey = s_suppkey
    AND EXISTS ( SELECT * FROM part_view ) )
AND NOT EXISTS (
  SELECT *
  FROM lineitem, part_view
  WHERE l_orderkey = o_orderkey
    AND l_partkey = p_partkey
    AND l_suppkey IS NULL
    AND EXISTS ( SELECT * FROM supp_view ) )
AND NOT EXISTS (
  SELECT *
  FROM lineitem
  WHERE l_orderkey = o_orderkey
    AND l_partkey IS NULL
    AND l_suppkey IS NULL
    AND EXISTS ( SELECT * FROM part_view )
    AND EXISTS ( SELECT * FROM supp_view ) )
"""

#: query id -> (original SQL, appendix rewrite SQL, parameter names)
QUERIES = {
    "Q1": (Q1_SQL, Q1_PLUS_SQL, ("nation",)),
    "Q2": (Q2_SQL, Q2_PLUS_SQL, ("countries",)),
    "Q3": (Q3_SQL, Q3_PLUS_SQL, ("supp_key",)),
    "Q4": (Q4_SQL, Q4_PLUS_SQL, ("color", "nation")),
}


def sample_parameters(
    query_id: str,
    db: Database,
    rng: Optional[random.Random] = None,
    seed: Optional[int] = None,
) -> Dict[str, object]:
    """Draw random parameter bindings for one of Q1–Q4 (Section 3)."""
    if rng is None:
        rng = random.Random(seed)
    if query_id not in QUERIES:
        raise KeyError(f"unknown query {query_id!r}; have {sorted(QUERIES)}")

    def nation_names():
        nation = db["nation"]
        i = nation.index_of("n_name")
        return [row[i] for row in nation.rows]

    def nation_keys():
        nation = db["nation"]
        i = nation.index_of("n_nationkey")
        return [row[i] for row in nation.rows]

    def supplier_keys():
        supplier = db["supplier"]
        i = supplier.index_of("s_suppkey")
        return [row[i] for row in supplier.rows]

    if query_id == "Q1":
        return {"nation": rng.choice(nation_names())}
    if query_id == "Q2":
        keys = nation_keys()
        return {"countries": rng.sample(keys, min(7, len(keys)))}
    if query_id == "Q3":
        return {"supp_key": rng.choice(supplier_keys())}
    return {
        "color": rng.choice(P_NAME_WORDS),
        "nation": rng.choice(nation_names()),
    }


def supplied_nations(db: Database) -> List[str]:
    """Sorted names of the nations that have a supplier.

    At scale 1 most nations have none, and for those Q1 and Q4 are
    trivial; draw ``$nation`` from this list to time the real work.
    """
    supplier, nation = db["supplier"], db["nation"]
    supplied = {row[supplier.index_of("s_nationkey")] for row in supplier.rows}
    return sorted(
        row[nation.index_of("n_name")]
        for row in nation.rows
        if row[nation.index_of("n_nationkey")] in supplied
    )
