"""Timings adjusted for how fast the machine ran at the moment they were taken.

On a shared host the same CPU work takes up to about twice as long while
other tenants load the hardware this process runs on.  The machine
switches between its fast and slow states within a fraction of a second,
in spells that add up to seconds or minutes.  Process CPU time does not
leave that out, and a whole run can fall into one slow spell, so neither
the fastest nor the median of a run's timings is steady from run to run.

So timings are bracketed by a probe: a fixed piece of pure-Python work
of the kinds the program does (tuple indexing, dict lookups, comparisons,
small tuples and dicts) that calls nothing of the program.  A timed op is
cut into segments at the boundaries between its layer calls, once a
segment has run ``SEGMENT_NS`` of CPU time, and a probe runs at every
cut.  A segment's adjusted time is its CPU time times ``PROBE_NS`` over
the mean of the probes just before and just after it: what it would take
on a machine where the probe takes exactly ``PROBE_NS``.  An op's
adjusted time is the sum over its segments.  That machine is the unit;
on the machine the benchmark was sized on, in its fast spells, adjusted
times are close to CPU times.  The probe is part of the benchmark's
definition; changing its work changes the unit.
"""

from __future__ import annotations

import gc
import time
from typing import List

#: The clock of every op, span and set-up timing: this process's CPU time.
#: The program runs on one thread and waits for nothing but a core, so on
#: a free core this is its wall-clock time; on a shared machine it leaves
#: out the time spent waiting for a core, which other load decides.
clock_ns = time.process_time_ns

#: The probe's time on the reference machine, which defines the unit.
PROBE_NS = 500_000

#: CPU time after which the next layer boundary cuts a segment.  Short
#: enough that the statements of a ``tpch-sf1`` op get brackets of their
#: own, long enough that a ``sql-frontend`` op is usually one segment.
SEGMENT_NS = 10_000_000

_ROWS = tuple((i, i % 7, i % 3, "k%02d" % (i % 11)) for i in range(64))
_INDEX = {row[0]: row for row in _ROWS}
_ROUNDS = 40


def _probe_work() -> int:
    hits = 0
    for r in range(_ROUNDS):
        seen = {}
        for row in _ROWS:
            other = _INDEX[(row[1] * 31 + r) % 64]
            if other[2] != row[2] and other[3] < "k07":
                key = (row[1], other[2])
                seen[key] = seen.get(key, 0) + 1
                hits += 1
        hits += len(sorted(seen))
    return hits


def probe_ns() -> int:
    """CPU time of one run of the probe, with the garbage collector off so
    that a collection of the program's objects does not land in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock_ns()
        _probe_work()
        return clock_ns() - start
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Adjusted time of one timing at a time.

    :meth:`start` begins a timing, :meth:`lap` marks a layer boundary
    inside it, and :meth:`stop` ends it.  A timing's first segment is
    bracketed by the latest probe, taken at the end of the previous
    timing or by :meth:`restart`, so back-to-back timings share the probe
    between them and what runs between them is not timed.
    """

    def __init__(self) -> None:
        #: scale factor of each closed segment of the current timing
        self.scales: List[float] = []
        self._elapsed = 0.0
        self._mark = 0
        self.restart()

    def restart(self) -> None:
        """Probe now, just before the next timing starts."""
        self._last = probe_ns()

    def start(self) -> None:
        self.scales = []
        self._elapsed = 0.0
        self._mark = clock_ns()

    @property
    def segment(self) -> int:
        """Index of the open segment within the current timing."""
        return len(self.scales)

    def lap(self) -> None:
        """A layer boundary: cut the segment if it has run ``SEGMENT_NS``."""
        now = clock_ns()
        if now - self._mark >= SEGMENT_NS:
            self._cut(now)

    def stop(self) -> float:
        """End the timing; returns its adjusted nanoseconds."""
        self._cut(clock_ns())
        return self._elapsed

    def _cut(self, now: int) -> None:
        probe = probe_ns()
        scale = 2 * PROBE_NS / (self._last + probe)
        self._elapsed += (now - self._mark) * scale
        self.scales.append(scale)
        self._last = probe
        self._mark = clock_ns()
