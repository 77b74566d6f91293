"""Per-query execution budgets and cooperative cancellation.

An :class:`ExecutionLimits` bundle caps what one query may consume: result
rows, work units off the deterministic :class:`~repro.storage.counters`
meter, wall-clock time, and an externally triggered
:class:`CancellationToken`. The executors check the bundle at their safe
points and raise :class:`~repro.errors.BudgetExceeded` carrying
partial-progress stats when any cap is hit:

* the row-at-a-time machine (the oracle; a columnar-store run its screens
  or gates keep off the cascade, from its first row or from a mid-query
  hand-off) before each driving row (:meth:`LimitEnforcer.check`) and
  before each emitted row (:meth:`LimitEnforcer.check_emit`);
* the vectorized cascade once per driving chunk — :meth:`~LimitEnforcer.check`
  before the chunk is taken, :meth:`~LimitEnforcer.admit_rows` on what it
  is about to emit. The row budget stays exact (the caller receives
  precisely ``max_rows`` rows); cancellation, deadline and work budget are
  seen at most one chunk late, and the exception's ``work_units`` /
  ``driving_rows`` are exact to a chunk.

Checking at safe points (rather than inside probes) keeps the hot path
unchanged and guarantees the pipeline state is consistent when the
exception unwinds, so a caller can still read the executor's counters and
event log.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import BudgetExceeded

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.executor.pipeline import PipelineExecutor


class CancellationToken:
    """Thread-safe cooperative cancellation flag.

    A client (timeout thread, signal handler, admission controller, server
    connection handler) calls :meth:`cancel`; the executor observes it at
    the next safe point.

    Guarantees:

    * :meth:`cancel` is **idempotent** — only the first call wins; its
      reason is the one every later observer reads, and repeat calls
      (from any thread, with any reason) change nothing;
    * :meth:`cancel` is **thread-safe** — concurrent callers race only
      for who is first; the flag and the reason are always consistent
      (the reason is published before the event is set, so an executor
      that sees ``cancelled`` reads the winning reason).
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self._lock = threading.Lock()
        self.reason: str = "cancelled"

    def cancel(self, reason: str | None = None) -> bool:
        """Latch the token; returns True only for the winning first call."""
        with self._lock:
            if self._event.is_set():
                return False
            if reason is not None:
                self.reason = reason
            self._event.set()
            return True

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()


#: Bytes of one cancel record: the flag byte, a length byte, the reason.
CANCEL_RECORD_BYTES = 256


class SharedCancellationToken(CancellationToken):
    """A token whose cancellation crosses a ``fork``.

    The query server's event loop and its engine processes share an
    anonymous ``mmap`` made before the fork, one record per engine:
    ``[flag, len(reason), reason...]``. The event-loop side holds one
    token per query, bound (:meth:`bind`) to the engine's record for as
    long as that engine runs the query: :meth:`cancel` then also writes
    the reason and — last — the flag byte. The engine side holds one
    token bound for good, never calls :meth:`cancel`, and reads the flag
    in :attr:`cancelled`, which is what the executors' safe points poll;
    the reason it reports is the one the canceller gave.

    The record belongs to the engine, not to a query: whoever dispatches
    the next query clears it first, so a flag set after the engine already
    finished cancels nothing.
    """

    def __init__(self, record: memoryview | None = None) -> None:
        super().__init__()
        self._record = record

    def bind(self, record: memoryview | None) -> None:
        """Mirror this token into *record* (None: stop mirroring). A token
        cancelled before it was bound publishes at once."""
        self._record = record
        if record is not None and self._event.is_set():
            self._publish()

    def cancel(self, reason: str | None = None) -> bool:
        won = super().cancel(reason)
        if won and self._record is not None:
            self._publish()
        return won

    def _publish(self) -> None:
        record = self._record
        text = self.reason.encode("utf-8")[: CANCEL_RECORD_BYTES - 2]
        record[2 : 2 + len(text)] = text
        record[1] = len(text)
        record[0] = 1  # last: a reader that sees the flag reads this reason

    @property
    def cancelled(self) -> bool:
        record = self._record
        if record is not None and record[0]:
            if not self._event.is_set():  # the reading side: adopt the reason
                self.reason = bytes(record[2 : 2 + record[1]]).decode(
                    "utf-8", "replace"
                )
            return True
        return self._event.is_set()


@dataclass(frozen=True)
class ExecutionLimits:
    """Budgets for one query execution; ``None`` fields are unlimited."""

    max_rows: int | None = None
    max_work_units: float | None = None
    timeout_seconds: float | None = None
    cancellation: CancellationToken | None = None

    def __post_init__(self) -> None:
        if self.max_rows is not None and self.max_rows < 1:
            raise ValueError("max_rows must be >= 1")
        if self.max_work_units is not None and self.max_work_units <= 0:
            raise ValueError("max_work_units must be > 0")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be > 0")

    @property
    def unlimited(self) -> bool:
        return (
            self.max_rows is None
            and self.max_work_units is None
            and self.timeout_seconds is None
            and self.cancellation is None
        )


class LimitEnforcer:
    """Binds an :class:`ExecutionLimits` to one running pipeline."""

    def __init__(self, limits: ExecutionLimits, pipeline: "PipelineExecutor") -> None:
        self.limits = limits
        self.pipeline = pipeline
        self._started_at = time.perf_counter()
        self._work_floor = pipeline.catalog.meter.total_units
        self._deadline = (
            self._started_at + limits.timeout_seconds
            if limits.timeout_seconds is not None
            else None
        )

    def _exceeded(self, reason: str) -> BudgetExceeded:
        pipeline = self.pipeline
        return BudgetExceeded(
            reason,
            rows_emitted=pipeline.rows_emitted,
            work_units=pipeline.catalog.meter.total_units - self._work_floor,
            elapsed_seconds=time.perf_counter() - self._started_at,
            driving_rows=pipeline.driving_rows_total,
        )

    def check_emit(self) -> None:
        """Safe point before emitting one more row.

        Called *before* the emit counters move, so when the row budget is
        exactly ``max_rows`` the caller receives precisely that many rows
        and the exception's partial-progress stats match what was
        delivered.
        """
        max_rows = self.limits.max_rows
        if max_rows is not None and self.pipeline.rows_emitted >= max_rows:
            raise self._exceeded(f"row budget exceeded ({max_rows} rows)")
        self.check()

    def admit_rows(self, count: int) -> int:
        """How many of the next *count* rows the row budget still admits.

        The chunk-granular form of :meth:`check_emit`: the caller emits
        that many, moves the emit counters by as much, and — when fewer
        than *count* were admitted — calls :meth:`check_emit`, which then
        raises with stats matching what was delivered.
        """
        max_rows = self.limits.max_rows
        if max_rows is None:
            return count
        return min(count, max_rows - self.pipeline.rows_emitted)

    def check(self) -> None:
        """Raise :class:`BudgetExceeded` if any budget is spent."""
        limits = self.limits
        token = limits.cancellation
        if token is not None and token.cancelled:
            raise self._exceeded(f"query cancelled: {token.reason}")
        if limits.max_work_units is not None:
            spent = self.pipeline.catalog.meter.total_units - self._work_floor
            if spent > limits.max_work_units:
                raise self._exceeded(
                    f"work budget exceeded ({limits.max_work_units:,.0f} units)"
                )
        if self._deadline is not None and time.perf_counter() > self._deadline:
            raise self._exceeded(
                f"deadline exceeded ({limits.timeout_seconds * 1000:.0f} ms)"
            )
