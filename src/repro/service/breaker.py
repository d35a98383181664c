"""Per-configuration circuit breaker for the campaign service.

A worker that times out or gets killed on one configuration cell (a bench
config key, a verify model) tends to do it again: the cell is the expensive
axis, not the workload.  Re-running it on every subsequent job burns the
whole retry budget each time and turns one pathological configuration into
service-wide latency.  The breaker trips after ``threshold`` *consecutive*
harness-level failures (``kind`` ``timeout`` or ``killed``) on a cell;
while the circuit is open, jobs touching that cell degrade those cells to
a structured skip in their report instead of running them.

States follow the classic pattern:

* **closed** — normal operation; failures count, a success resets the
  count.
* **open** — entered at ``threshold`` consecutive failures.  Requests
  against the cell are refused (skipped) until ``cooldown`` seconds pass
  on the monotonic clock.
* **half-open** — after the cooldown, exactly one job is allowed through
  as a probe.  A clean outcome closes the circuit; another failure
  re-opens it for a fresh cooldown.

The clock is injectable (monotonic by default) so the transition logic is
testable without sleeping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["CircuitBreaker", "CellState"]

#: failure kinds that indicate an unhealthy worker rather than a broken
#: program — only these trip the breaker
TRIPPING_KINDS = ("timeout", "killed")


@dataclass
class CellState:
    """Breaker bookkeeping for one configuration cell."""

    state: str = "closed"  # closed | open | half_open
    consecutive_failures: int = 0
    opened_at: Optional[float] = None  # monotonic reading at the last open
    #: a half-open probe is in flight (only one job may carry it)
    probing: bool = False


class CircuitBreaker:
    """Consecutive-failure circuit breaker keyed by configuration cell."""

    def __init__(self, threshold: int = 3, cooldown: float = 30.0,
                 clock=time.monotonic) -> None:
        if threshold < 1:
            raise ValueError("breaker threshold must be at least 1")
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self._cells: Dict[str, CellState] = {}
        # Counters surfaced in the repro-service/1 stats section.
        self.opened_total = 0
        self.half_open_probes = 0
        self.closed_total = 0

    def _cell(self, key: str) -> CellState:
        return self._cells.setdefault(key, CellState())

    # ---------------------------------------------------------------- queries
    def allow(self, key: str) -> bool:
        """May a job run this cell right now?

        Calling this *consumes* the half-open probe slot when the cooldown
        has elapsed: the caller that gets ``True`` on an open circuit is
        the probe, and must report the outcome via :meth:`record_success`
        or :meth:`record_failure`.
        """
        cell = self._cells.get(key)
        if cell is None or cell.state == "closed":
            return True
        if cell.state == "half_open":
            return not cell.probing or self._probe(cell)
        # open: has the cooldown elapsed?
        if self._clock() - cell.opened_at < self.cooldown:
            return False
        cell.state = "half_open"
        return self._probe(cell)

    def _probe(self, cell: CellState) -> bool:
        if cell.probing:
            return False
        cell.probing = True
        self.half_open_probes += 1
        return True

    def state(self, key: str) -> str:
        cell = self._cells.get(key)
        return cell.state if cell is not None else "closed"

    def open_cells(self) -> list[str]:
        return sorted(k for k, c in self._cells.items()
                      if c.state in ("open", "half_open"))

    # --------------------------------------------------------------- outcomes
    def record_success(self, key: str) -> None:
        cell = self._cells.get(key)
        if cell is None:
            return
        if cell.state != "closed":
            self.closed_total += 1
        cell.state = "closed"
        cell.consecutive_failures = 0
        cell.opened_at = None
        cell.probing = False

    def record_failure(self, key: str, kind: str = "timeout") -> bool:
        """Record one harness-level failure; ``True`` if this call opened
        (or re-opened) the circuit.  Kinds outside :data:`TRIPPING_KINDS`
        are ignored — a deterministic exception is the program's fault,
        not the worker's."""
        if kind not in TRIPPING_KINDS:
            return False
        cell = self._cell(key)
        cell.consecutive_failures += 1
        failed_probe = cell.state == "half_open"
        if failed_probe or cell.consecutive_failures >= self.threshold:
            already_open = cell.state == "open"
            cell.state = "open"
            cell.opened_at = self._clock()
            cell.probing = False
            if not already_open:
                self.opened_total += 1
                return True
        return False
