"""Cardinality statistics and the selectivity-driven join-order model.

The block engine plans greedily: it repeatedly appends the table whose
join step is estimated to produce the fewest rows.  Before this module
the only signal was raw base-table size; now each candidate is scored
from its *filtered* cardinality (pushed single-table filters have
already run as passes over the row lists by the time ordering happens) and
the number-of-distinct-values (NDV) of its equality keys, using the
textbook independent-uniform estimate

    |R ⋈_k S|  ≈  |R| · |S| / max-NDV over the key columns.

Everything here is deliberately cheap: NDV is estimated from an evenly
spaced sample (``SAMPLE_CAP`` rows) and scaled linearly, which is crude
but monotone enough for greedy ordering, and the per-column scans also
yield null counts that feed the closure compiler's null-check hoisting
(:mod:`repro.engine.compile`).

The module also hosts the approximate byte accounting used by
``ResourceLimits.max_probe_table_bytes``: probe/equi hash tables report
an estimated footprint while they are being built so an over-budget
build can degrade gracefully instead of exhausting memory.
"""

from __future__ import annotations

import sys
from itertools import repeat
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.data.nulls import Null

__all__ = [
    "SourceStats",
    "choose_join_order",
    "estimate_ndv",
    "TableBytesMeter",
]

Row = Tuple[object, ...]

#: Rows sampled (evenly spaced) for NDV estimation.
SAMPLE_CAP = 4096


def estimate_ndv(rows: Sequence[Row], position: int) -> int:
    """Estimated number of distinct values in one column of *rows*.

    Exact for small inputs; for larger ones the estimate is the sample
    NDV scaled by the sampling ratio, capped at the row count.  Nulls
    count as one value each (they hash by label), which mildly
    *under*-estimates join fanout on null-heavy columns — safe, since
    null keys never match anyway.
    """
    n = len(rows)
    if n == 0:
        return 1
    step = max(1, n // SAMPLE_CAP)
    if step == 1:
        seen = {row[position] for row in rows}
        return max(1, len(seen))
    sample = rows[::step]
    seen = {row[position] for row in sample}
    scaled = int(len(seen) * (n / len(sample)))
    return max(1, min(n, scaled))


class SourceStats:
    """Per-source statistics over the *filtered* rows of one FROM entry:
    NDV estimates (join ordering) and null presence (null-check hoisting
    and null-test-free hash builds), each computed once per column."""

    __slots__ = ("rows", "_ndv", "_has_null")

    def __init__(self, rows: Sequence[Row]):
        self.rows = rows
        self._ndv: Dict[int, int] = {}
        self._has_null: Dict[int, bool] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def ndv(self, position: int) -> int:
        value = self._ndv.get(position)
        if value is None:
            value = estimate_ndv(self.rows, position)
            self._ndv[position] = value
        return value

    def has_null(self, position: int) -> bool:
        value = self._has_null.get(position)
        if value is None:
            column = map(itemgetter(position), self.rows)
            value = any(map(isinstance, column, repeat(Null)))
            self._has_null[position] = value
        return value


def choose_join_order(
    stats: Dict[str, SourceStats],
    positions: Dict[str, Dict[str, int]],
    probes: Sequence[Tuple[Tuple[str, str], object]],
    equi: Sequence[Tuple[Tuple[str, str], Tuple[str, str]]],
    env_available: bool,
) -> Tuple[List[str], List[float]]:
    """Greedy left-deep join order minimising estimated step output.

    ``stats`` maps each binding to its filtered-row statistics,
    ``positions`` to its column→index layout.  ``probes`` and ``equi``
    are the block's classified equality conjuncts.  Returns the chosen
    binding order and the per-step estimated cardinalities (rows the
    step yields *before* attached residual conditions).

    Keyed candidates win ties against Cartesian ones, preserving the
    old planner's guarantee that a hash-joinable table is never passed
    over for an equally-sized cross product.
    """
    remaining = set(stats)
    bound: set = set()
    order: List[str] = []
    estimates: List[float] = []
    current = 1.0

    def key_columns(binding: str) -> List[str]:
        cols: List[str] = []
        if env_available:
            for (b, col), _expr in probes:
                if b == binding:
                    cols.append(col)
        for a, b in equi:
            if a[0] == binding and b[0] in bound:
                cols.append(a[1])
            elif b[0] == binding and a[0] in bound:
                cols.append(b[1])
        return cols

    while remaining:
        best: Optional[Tuple[float, int, int, str]] = None
        best_binding = None
        for binding in sorted(remaining):
            size = len(stats[binding])
            cols = key_columns(binding)
            if cols:
                denom = 1.0
                for col in cols:
                    denom *= stats[binding].ndv(positions[binding][col])
                denom = max(1.0, min(float(max(size, 1)), denom))
                est = current * size / denom
                keyed = 0
            else:
                est = current * size
                keyed = 1
            rank = (est, keyed, size, binding)
            if best is None or rank < best:
                best = rank
                best_binding = binding
        assert best is not None and best_binding is not None
        order.append(best_binding)
        estimates.append(best[0])
        current = max(best[0], 0.001)
        bound.add(best_binding)
        remaining.discard(best_binding)
    return order, estimates


# ---------------------------------------------------------------------------
# Approximate hash-table byte accounting
# ---------------------------------------------------------------------------

#: Assumed per-entry overhead beyond the key object itself: a dict/set
#: slot, the value-list header amortised, and pointer padding.
_ENTRY_OVERHEAD = 96

#: How many entries between budget re-checks during a build.
_CHECK_EVERY = 256


class TableBytesMeter:
    """Incremental, approximate footprint of one hash table under build.

    ``sys.getsizeof`` is sampled on the first few keys and the average
    is extrapolated, so the per-entry cost of metering is an integer
    increment.  The estimate is taken at check points (the first entry,
    then every ``_CHECK_EVERY``-th) and kept in ``checked_bytes``;
    :meth:`over_budget` answers from it whether adding this table would
    push the context's cumulative ``table_bytes`` past the cap.
    """

    __slots__ = ("entries", "checked_bytes", "_sampled", "_sample_total", "_since_check")

    _SAMPLE = 64

    def __init__(self) -> None:
        self.entries = 0
        self.checked_bytes = 0
        self._sampled = 0
        self._sample_total = 0
        self._since_check = 0

    def add(self, key: object) -> bool:
        """Count one new entry; true at a check point."""
        self.entries += 1
        if self._sampled < self._SAMPLE:
            self._sampled += 1
            try:
                size = sys.getsizeof(key)
            except TypeError:  # pragma: no cover - exotic keys
                size = 64
            self._sample_total += size
        self._since_check += 1
        if self._since_check >= _CHECK_EVERY:
            self._since_check = 0
        elif self.entries > 1:
            return False
        self.checked_bytes = self.approx_bytes()
        return True

    def approx_bytes(self) -> int:
        if self.entries == 0:
            return 0
        avg_key = self._sample_total / self._sampled if self._sampled else 64
        return int(self.entries * (avg_key + _ENTRY_OVERHEAD))

    def over_budget(self, used_bytes: int, cap: Optional[int]) -> bool:
        """Whether the estimate at the last check point, on top of
        *used_bytes*, exceeds *cap*.  The estimate only grows, so for a
        fixed *used_bytes* this is true exactly when some check point of
        the build would have been over."""
        if cap is None:
            return False
        return used_bytes + self.checked_bytes > cap
