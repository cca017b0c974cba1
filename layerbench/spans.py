"""Spans recorded around the benchmark's calls into the program's layers.

A span is one call into a layer's public function: the op it belongs to,
its own id, its parent (the op's span), the layer name, start and end on
``speed.clock_ns``, the op segment it ran in, optional tags, and the
counters read after the call returned.  An op's span carries its
adjusted time and the scale of each of its segments, which adjust the
timings of its layer calls for the machine's speed (see speed.py).
Spans stay in memory and are written as JSON lines when the run ends.
The program itself is not instrumented; every span comes from the
benchmark's side of a layer boundary.

:func:`per_layer` folds the spans of one traced run into the per-layer
metrics listed in ``BENCHMARK.json``.  Busy times and counters are means
per timed op, so they measure what one op costs a layer, not how many
ops fitted into the run.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from speed import Speedometer, clock_ns

STATEMENTS = ("Q1", "Q1plus", "Q2", "Q2plus", "Q3", "Q3plus", "Q4", "Q4plus")

#: ``ExecContext`` counters read after every ``PreparedQuery.run``.
ENGINE_COUNTERS = (
    "rows_examined",
    "probe_build_rows",
    "probe_tables_built",
    "decorrelated_probes",
    "probe_cache_hits",
    "probe_cache_misses",
    "degradations",
    "table_bytes",
)

#: ``SearchStats`` counters read after every ``certain_answers_with_nulls``.
SEARCH_COUNTERS = (
    "candidates_considered",
    "world_checks",
    "score_probes",
    "sample_refuted",
    "emitted",
)


class NoTrace:
    """Tracing off: a layer call is a plain call, followed by a lap of the
    op's speedometer (see speed.py)."""

    enabled = False

    def __init__(self, speed: Speedometer) -> None:
        self.speed = speed

    def begin_op(self, op_id: int) -> None:
        pass

    def end_op(self, start_ns: int, end_ns: int, adjusted_ns: float) -> None:
        pass

    def call(self, name, fn, *args, tags=None, counters=None, **kwargs):
        result = fn(*args, **kwargs)
        self.speed.lap()
        return result


class Tracer:
    """Tracing on: every layer call becomes a span under the current op."""

    enabled = True

    def __init__(self, speed: Speedometer) -> None:
        self.speed = speed
        self.spans: List[dict] = []
        self._op: Optional[dict] = None

    def begin_op(self, op_id: int) -> None:
        self._op = {"op": op_id, "span": len(self.spans), "parent": None, "name": "op"}
        self.spans.append(self._op)

    def end_op(self, start_ns: int, end_ns: int, adjusted_ns: float) -> None:
        """Close the op's span; call after the op's speedometer stopped."""
        self._op["start_ns"] = start_ns
        self._op["end_ns"] = end_ns
        self._op["adjusted_ns"] = adjusted_ns
        self._op["scales"] = self.speed.scales

    def call(
        self,
        name: str,
        fn: Callable,
        *args,
        tags: Optional[dict] = None,
        counters: Optional[Callable[[object], dict]] = None,
        **kwargs,
    ):
        start = clock_ns()
        result = fn(*args, **kwargs)
        end = clock_ns()
        span = {
            "op": self._op["op"],
            "span": len(self.spans),
            "parent": self._op["span"],
            "name": name,
            "start_ns": start,
            "end_ns": end,
            "segment": self.speed.segment,
        }
        if tags:
            span["tags"] = tags
        if counters is not None:
            span["counters"] = counters(result)
        self.spans.append(span)
        self.speed.lap()
        return result

    def write(self, path: str, workload: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({"workload": workload, **span}) + "\n")


def engine_counters(ctx, relation) -> Dict[str, int]:
    counts = {name: getattr(ctx, name) for name in ENGINE_COUNTERS}
    counts["result_rows"] = len(relation.rows)
    return counts


def search_counters(stats) -> Dict[str, float]:
    counts = {name: getattr(stats, name) for name in SEARCH_COUNTERS}
    counts["elapsed_ms"] = stats.elapsed * 1e3
    counts["world_elapsed_ms"] = stats.world_elapsed * 1e3
    return counts


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spans: List[dict], setup: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced run, keyed by ``BENCHMARK.json`` name.

    ``setup`` carries the instance-generation figures (``tpch.*``), which
    are measured around set-up rather than around ops.  Every other busy
    time and counter is its sum over the run divided by ``bench.ops``.
    The run repeats whole passes of a workload's ops, so for a given seed
    each per-op count comes out the same in every run, however many
    passes fitted.  Times, including the searcher's own ``elapsed_ms``
    and ``world_elapsed_ms``, are adjusted by the scale of the op's
    segment they ran in; an op's time is the sum of its adjusted
    segments.
    """
    scales = {s["span"]: s["scales"] for s in spans if s["name"] == "op"}
    busy_ns: Dict[str, float] = defaultdict(float)
    sums: Dict[str, float] = defaultdict(float)
    run_ms: Dict[str, List[float]] = defaultdict(list)
    by_op: Dict[tuple, float] = {}
    op_ns = child_ns = 0.0
    ops = 0
    for span in spans:
        name = span["name"]
        if name == "op":
            op_ns += span["adjusted_ns"]
            ops += 1
            continue
        scale = scales[span["parent"]][span["segment"]]
        duration = (span["end_ns"] - span["start_ns"]) * scale
        busy_ns[name] += duration
        child_ns += duration
        for key, value in span.get("counters", {}).items():
            sums[f"{name}.{key}"] += value * scale if key.endswith("_ms") else value
        tags = span.get("tags")
        if name == "engine.run" and tags:
            run_ms[tags["stmt"]].append(duration / 1e6)
            by_op[(span["op"], tags["stmt"])] = duration
    self_ns = op_ns - child_ns

    def per_op(value: float) -> float:
        return _ratio(value, ops)

    out: Dict[str, float] = {
        "tpch.generate_s": setup.get("generate_s", 0.0),
        "tpch.nullify_s": setup.get("nullify_s", 0.0),
        "tpch.rows": setup.get("rows", 0),
        "tpch.nulls": setup.get("nulls", 0),
    }
    for layer in (
        "sql.parser", "analysis", "sql.rewrite", "engine.prepare", "engine.run",
        "fp.detectors", "sql.to_algebra",
    ):
        out[f"{layer}.busy_ms"] = per_op(busy_ns[layer] / 1e6)
    for verdict in ("certified", "suspect", "unsound"):
        out[f"analysis.verdict.{verdict}"] = per_op(sums[f"analysis.{verdict}"])

    for stmt in STATEMENTS:
        samples = run_ms.get(stmt)
        out[f"engine.run.p50_ms.{stmt}"] = statistics.median(samples) if samples else 0.0
    engine = {key: sums[f"engine.run.{key}"] for key in ENGINE_COUNTERS + ("result_rows",)}
    lookups = engine["probe_cache_hits"] + engine["probe_cache_misses"]
    out.update(
        {
            "engine.rows_examined": per_op(engine["rows_examined"]),
            "engine.result_rows": per_op(engine["result_rows"]),
            "engine.rows_examined_per_row": _ratio(
                engine["rows_examined"], engine["result_rows"]
            ),
            "engine.probe_build_rows": per_op(engine["probe_build_rows"]),
            "engine.probe_tables_built": per_op(engine["probe_tables_built"]),
            "engine.decorrelated_probes": per_op(engine["decorrelated_probes"]),
            "engine.probe_memo_lookups": per_op(lookups),
            "engine.probe_memo_hit_ratio": _ratio(engine["probe_cache_hits"], lookups),
            "engine.degradations": per_op(engine["degradations"]),
            "engine.table_bytes": per_op(engine["table_bytes"]),
        }
    )
    # Figure 4: median over ops of t(Q+)/t(Q), run time only; an op that
    # runs a statement runs its rewriting too.
    for qid in ("Q1", "Q2", "Q3", "Q4"):
        ratios = [
            by_op[(op, qid + "plus")] / t_q
            for (op, stmt), t_q in by_op.items()
            if stmt == qid and t_q and (op, qid + "plus") in by_op
        ]
        out[f"engine.qplus_over_q.{qid}"] = statistics.median(ratios) if ratios else 0.0

    out["fp.flagged_rows"] = per_op(sums["fp.detectors.flagged_rows"])

    worlds_ms = sums["certain.world_elapsed_ms"]
    candidates = sums["certain.candidates_considered"]
    out.update(
        {
            "certain.worlds.busy_ms": per_op(worlds_ms),
            "certain.search.busy_ms": per_op(sums["certain.elapsed_ms"] - worlds_ms),
            "certain.candidates": per_op(candidates),
            "certain.world_checks": per_op(sums["certain.world_checks"]),
            "certain.score_probes": per_op(sums["certain.score_probes"]),
            "certain.sample_refuted": per_op(sums["certain.sample_refuted"]),
            "certain.emitted": per_op(sums["certain.emitted"]),
            "certain.refute_ratio": _ratio(sums["certain.sample_refuted"], candidates),
            "certain.checks_per_candidate": _ratio(
                sums["certain.world_checks"], candidates
            ),
            "bench.ops": ops,
            "bench.op_ms": per_op(op_ns / 1e6),
            "bench.self_ms": per_op(self_ns / 1e6),
        }
    )
    return out
