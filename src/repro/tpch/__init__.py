"""TPC-H substrate: schema, data generators, null injection, queries.

The paper runs its experiments on TPC-H instances (DBGen for the
performance experiments, DataFiller-style small instances for the
false-positive counts) with nulls injected into nullable attributes at a
configurable *null rate*.  This package rebuilds that tooling at
laptop-friendly micro scale factors; row-count *ratios* between tables
follow the TPC-H specification.
"""

from repro.tpch.schema import tpch_schema, NULLABLE_POLICY
from repro.tpch.dbgen import generate_instance, ScaleProfile
from repro.tpch.datafiller import generate_small_instance
from repro.tpch.nullify import inject_nulls
from repro.tpch.queries import (
    Q1_SQL,
    Q2_SQL,
    Q3_SQL,
    Q4_SQL,
    Q1_PLUS_SQL,
    Q2_PLUS_SQL,
    Q3_PLUS_SQL,
    Q4_PLUS_SQL,
    QUERIES,
    sample_parameters,
    supplied_nations,
)

__all__ = [
    "tpch_schema",
    "NULLABLE_POLICY",
    "generate_instance",
    "ScaleProfile",
    "generate_small_instance",
    "inject_nulls",
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
