"""Resource governance: deadlines, row budgets, graceful degradation.

Certain-answer computation is coNP-hard in data complexity (Section 2),
so both the brute-force ground truth and the rewritten ``Q+`` queries
can blow up without warning.  A production engine never runs a query
without a deadline; this module supplies the vocabulary:

* :class:`ResourceLimits` — an immutable bundle of caps a caller may
  attach to an execution (``limits=`` on :class:`~repro.engine.Executor`,
  :func:`~repro.engine.execute_sql`, …);
* :class:`EngineError`, the engine's compile-time and run-time
  failure, and under it a structured hierarchy rooted at
  :class:`ResourceError` (so blanket ``EngineError`` handlers keep
  working): :class:`QueryTimeout` for wall-clock
  deadlines, :class:`RowBudgetExceeded` for row budgets and
  :class:`QueryCancelled` for cooperative cancellation;
* :class:`CancelToken` — a one-shot flag another thread may fire to
  abort an in-flight execution (or brute-force certain-answer search)
  at its next governed checkpoint;
* :class:`LimitGovernor` — the amortised run-time checker carried by
  ``ExecContext`` and consulted from the engine's join steps, passes,
  bucket scans and hash builds.

``max_probe_build_rows`` is different from the two hard caps: tripping
it does not raise.  The engine *degrades* instead — it abandons the
bucket path or the probe table of the offending subquery and falls
back to memoized probing, which bit-matches the naive path (counted in
``ExecContext.degradations``).  That is the paper-adjacent "anytime"
stance: when an optimisation's up-front cost is out of budget, a slower
sound strategy beats an error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "EngineError",
    "ResourceLimits",
    "ResourceError",
    "QueryTimeout",
    "RowBudgetExceeded",
    "QueryCancelled",
    "CancelToken",
    "LimitGovernor",
]


class EngineError(ValueError):
    """Execution-time or compile-time engine failure."""


class CancelToken:
    """A one-shot cooperative cancellation flag, safe to fire cross-thread.

    The worker attaches the token (``ResourceLimits(cancel=token)`` for
    the engine, ``cancel=token`` on
    :func:`~repro.certain.certain_answers_with_nulls` or
    :func:`~repro.experiments.runner.run_tasks`); any other thread may
    call :meth:`cancel` at any time.  Reading the flag is a plain
    attribute load (atomic under the GIL), so the governed hot paths can
    consult it at the same amortised cadence as the wall clock.  Tokens
    never re-arm: once fired, every execution holding the token stops at
    its next checkpoint, including future runs of a prepared statement —
    use a fresh token per logical job.
    """

    __slots__ = ("_cancelled", "reason")

    def __init__(self) -> None:
        self._cancelled = False
        self.reason: Optional[str] = None

    def cancel(self, reason: Optional[str] = None) -> None:
        """Fire the token (idempotent; the first reason wins)."""
        if not self._cancelled:
            self.reason = reason
            self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"fired, reason={self.reason!r}" if self._cancelled else "armed"
        return f"CancelToken({state})"


class ResourceError(EngineError):
    """A query exceeded one of its :class:`ResourceLimits`."""


class QueryTimeout(ResourceError):
    """The wall-clock deadline expired before evaluation finished."""

    def __init__(self, deadline_seconds: float, elapsed: float):
        super().__init__(
            f"query exceeded its {deadline_seconds:g}s deadline "
            f"(elapsed {elapsed:.3f}s)"
        )
        self.deadline_seconds = deadline_seconds
        self.elapsed = elapsed


class RowBudgetExceeded(ResourceError):
    """Evaluation consumed more rows than ``max_rows_examined`` allows."""

    def __init__(self, budget: int, examined: int):
        super().__init__(
            f"query examined {examined} rows, exceeding its budget of {budget}"
        )
        self.budget = budget
        self.examined = examined


class QueryCancelled(ResourceError):
    """A :class:`CancelToken` fired while evaluation was in flight."""

    def __init__(self, token: "CancelToken"):
        detail = f": {token.reason}" if token.reason else ""
        super().__init__(f"query cancelled by CancelToken{detail}")
        self.token = token


@dataclass(frozen=True)
class ResourceLimits:
    """Caps on one execution.  ``None`` disables the corresponding cap.

    ``deadline_seconds``
        Wall-clock budget per run.  Re-armed on every
        :meth:`PreparedQuery.run`, so a prepared statement gets a fresh
        deadline each execution.  Expiry raises :class:`QueryTimeout`.
    ``max_rows_examined``
        Hard cap on ``rows_examined + probe_build_rows``.  Exceeding it
        raises :class:`RowBudgetExceeded`.
    ``max_probe_build_rows``
        Soft cap on the rows any *single* decorrelated probe-table build
        may consume (checked before each bucket it lists), and on the
        rows of the kept index a bucket-path subquery reads (compared
        with the index's row count before any bucket is read, whether
        the index is built or reused).
        Exceeding it abandons decorrelation for that subquery (falling
        back to memoized probing, results unchanged) and bumps
        ``ExecContext.degradations`` instead of raising; ``0`` forces
        memoized probing wherever a table or an index has a row.
    ``max_probe_table_bytes``
        Soft cap on the *cumulative* approximate memory of the probe and
        equi-join hash tables one execution context uses (tracked on
        ``ExecContext.table_bytes`` via
        :class:`~repro.engine.stats.TableBytesMeter`).  A build that
        would cross the cap degrades gracefully — probe tables and
        bucket indexes fall back to memoized probing, equi-join indexes
        to linear probing of the filtered rows — with identical results, counted in
        ``ExecContext.degradations``.  Reusing an index kept on a
        relation charges and degrades exactly as its build would.
    ``cancel``
        A :class:`CancelToken` another thread may fire; the next
        governed checkpoint after firing raises
        :class:`QueryCancelled`.  Unlike the deadline, the token is
        *not* re-armed per run — a fired token also stops later runs of
        the same prepared statement.
    """

    deadline_seconds: Optional[float] = None
    max_rows_examined: Optional[int] = None
    max_probe_build_rows: Optional[int] = None
    max_probe_table_bytes: Optional[int] = None
    cancel: Optional[CancelToken] = None

    def __post_init__(self):
        for name in (
            "deadline_seconds",
            "max_rows_examined",
            "max_probe_build_rows",
            "max_probe_table_bytes",
        ):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")

    @property
    def unlimited(self) -> bool:
        return (
            self.deadline_seconds is None
            and self.max_rows_examined is None
            and self.max_probe_build_rows is None
            and self.max_probe_table_bytes is None
            and self.cancel is None
        )


#: How many ``check()`` calls elapse between wall-clock reads.  Row
#: budgets are exact (an integer compare per call is cheap); the clock
#: is only consulted every interval, so a deadline can overshoot by at
#: most the time it takes to examine this many rows.
CHECK_INTERVAL = 64


class LimitGovernor:
    """Amortised enforcement of one :class:`ResourceLimits` bundle.

    Under a governor the engine calls :meth:`check` once per row a
    join step lists, a hash build reads or a bucket scan examines, and
    once per filter or residual pass.  The row-budget comparison runs
    every call; the clock and the cancellation token are read on the
    first call after :meth:`arm` and every :data:`CHECK_INTERVAL` calls
    thereafter, keeping the common case to two attribute loads and an
    integer compare.  A fired :class:`CancelToken` therefore stops
    evaluation within one check interval (at most the time it takes to
    examine 64 rows).
    """

    __slots__ = ("limits", "_started", "_deadline", "_cancel", "_ticks")

    def __init__(self, limits: ResourceLimits):
        self.limits = limits
        self._cancel = limits.cancel
        self.arm()

    def arm(self) -> None:
        """(Re-)start the wall clock; called at the top of each run.

        The cancellation token is deliberately *not* reset — a token
        fired between runs stops the next run at its first check.
        """
        self._started = time.monotonic()
        deadline = self.limits.deadline_seconds
        self._deadline = None if deadline is None else self._started + deadline
        self._ticks = CHECK_INTERVAL  # first check() reads clock + token

    def check(self, rows_consumed: int) -> None:
        budget = self.limits.max_rows_examined
        if budget is not None and rows_consumed > budget:
            raise RowBudgetExceeded(budget, rows_consumed)
        if self._deadline is None and self._cancel is None:
            return
        self._ticks += 1
        if self._ticks < CHECK_INTERVAL:
            return
        self._ticks = 0
        cancel = self._cancel
        if cancel is not None and cancel.cancelled:
            raise QueryCancelled(cancel)
        if self._deadline is not None:
            now = time.monotonic()
            if now > self._deadline:
                raise QueryTimeout(
                    self.limits.deadline_seconds, now - self._started
                )
