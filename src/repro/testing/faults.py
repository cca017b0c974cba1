"""Fault injection for robustness testing.

Two hook families, both off (zero overhead beyond one global load) in
production:

* **Scan faults** fire at the Nth row of any scan of a named table:
  they can raise, sleep (simulating a stall the deadline must catch),
  or kill the process (``exit_code``, simulating a crashed worker).
  Installed via :data:`repro.engine.blocks.SCAN_FAULT_HOOK`, which
  wraps relations handed out by ``ExecContext.relation``.
* **Task faults** fire when an experiment-harness worker starts the
  task with a matching key (:func:`check_task_fault` is called at the
  top of each worker body).  Same actions; ``times=`` bounds how often
  a fault fires, so "fail once then succeed" retry scenarios are
  expressible.

Registries are plain module state, so ``multiprocessing`` pool workers
on a ``fork`` start method (the Linux default, which the robustness
suite assumes) inherit faults installed in the parent — note that each
worker inherits its *own copy*, so ``times=`` counts down per process.
Use :func:`clear_faults` (or the context managers) to uninstall.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

from repro.engine import blocks

__all__ = [
    "InjectedFault",
    "Fault",
    "install_scan_fault",
    "install_task_fault",
    "check_task_fault",
    "clear_faults",
    "scan_fault",
    "task_fault",
]


class InjectedFault(RuntimeError):
    """Default error raised by a firing fault."""


class Fault:
    """One injected fault: what happens (delay/error/exit) and how often."""

    def __init__(
        self,
        *,
        error: Optional[BaseException] = None,
        delay: float = 0.0,
        exit_code: Optional[int] = None,
        times: Optional[int] = None,
        message: str = "injected fault",
    ):
        self.error = error
        self.delay = delay
        self.exit_code = exit_code
        self.times = times
        self.message = message
        self.fired = 0

    def fire(self) -> None:
        if self.times is not None and self.fired >= self.times:
            return
        self.fired += 1
        if self.delay:
            time.sleep(self.delay)
        if self.exit_code is not None:
            # A hard crash, as an OOM-killed or segfaulting worker would
            # produce: no exception propagation, no cleanup.
            os._exit(self.exit_code)
        if self.error is not None:
            raise self.error
        if self.delay == 0.0:
            raise InjectedFault(self.message)


class _FaultyRows(list):
    """A row list that fires a fault when an iteration reaches row
    ``nth`` (every scan iterates: a filter pass as well as a join step)."""

    def __init__(self, rows, nth: int, fault: Fault):
        super().__init__(rows)
        self._nth = nth
        self._fault = fault

    def __iter__(self):
        for i, row in enumerate(super().__iter__()):
            if i == self._nth:
                self._fault.fire()
            yield row


class _FaultyRelation:
    """Duck-typed stand-in for :class:`~repro.data.relation.Relation`
    exposing the attributes the engine reads.  It has no store
    (``indexes`` is ``None``), so the engine neither reuses nor keeps
    the real relation's filtered rows, statistics or indexes: every
    statement reads the faulty rows, and every scan of them, a filter
    pass over the table included, fires the fault."""

    __slots__ = ("attributes", "rows")
    indexes = None

    def __init__(self, relation, nth: int, fault: Fault):
        self.attributes = relation.attributes
        self.rows = _FaultyRows(relation.rows, nth, fault)


#: table name -> (nth row, fault)
_scan_faults: Dict[str, List] = {}
#: task key -> fault
_task_faults: Dict[str, Fault] = {}


def _scan_hook(name: str, relation):
    entry = _scan_faults.get(name)
    if entry is None:
        return relation
    nth, fault = entry
    return _FaultyRelation(relation, nth, fault)


def install_scan_fault(table: str, nth: int = 0, **fault_kwargs) -> Fault:
    """Fire a fault at the ``nth`` row of every scan of ``table``."""
    fault = Fault(message=f"injected scan fault on {table!r} row {nth}", **fault_kwargs)
    _scan_faults[table] = (nth, fault)
    blocks.SCAN_FAULT_HOOK = _scan_hook
    return fault


def install_task_fault(key: str, **fault_kwargs) -> Fault:
    """Fire a fault when a harness worker picks up task ``key``."""
    fault = Fault(message=f"injected task fault on {key!r}", **fault_kwargs)
    _task_faults[key] = fault
    return fault


def check_task_fault(key: str) -> None:
    """Called by harness worker bodies; fires any fault bound to ``key``."""
    fault = _task_faults.get(key)
    if fault is not None:
        fault.fire()


def clear_faults() -> None:
    """Uninstall every registered fault and detach the engine hook."""
    _scan_faults.clear()
    _task_faults.clear()
    blocks.SCAN_FAULT_HOOK = None


@contextmanager
def scan_fault(table: str, nth: int = 0, **fault_kwargs):
    fault = install_scan_fault(table, nth, **fault_kwargs)
    try:
        yield fault
    finally:
        clear_faults()


@contextmanager
def task_fault(key: str, **fault_kwargs):
    fault = install_task_fault(key, **fault_kwargs)
    try:
        yield fault
    finally:
        clear_faults()
