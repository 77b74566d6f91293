"""Per-client session state: identity, rate limiting, pending work.

A :class:`Session` is one accepted connection. It owns

* a :class:`TokenBucket` enforcing the per-client query rate,
* a FIFO of queries admitted but not yet executing (the fair scheduler
  drains one FIFO per round-robin turn, so no session can starve the
  others by pipelining),
* the set of cancellation tokens for its in-flight queries, so a
  disconnect cancels exactly its own work (each token is bound to the
  cancel record of the engine process running its query, see
  :class:`~repro.robustness.limits.SharedCancellationToken`), and
* plain counters surfaced by the ``stats`` op.

Sessions are event-loop-local objects; no engine process sees them.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.robustness.limits import SharedCancellationToken
    from repro.server.protocol import QueryRequest

_session_ids = itertools.count(1)


class TokenBucket:
    """Classic token-bucket rate limiter (tokens/second, bounded burst).

    ``rate <= 0`` disables limiting (every take succeeds). The clock is
    injectable for deterministic tests.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if burst < 1 and rate > 0:
            raise ValueError("burst must be >= 1 when rate limiting is on")
        self.rate = rate
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._updated = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(
            self.burst, self._tokens + (now - self._updated) * self.rate
        )
        self._updated = now

    def try_take(self) -> bool:
        """Consume one token; False means the caller is over its rate."""
        if self.rate <= 0:
            return True
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


@dataclass
class PendingQuery:
    """One admitted query waiting for (or holding) a worker slot."""

    request: "QueryRequest"
    session: "Session"
    token: "SharedCancellationToken"
    enqueued_at: float


@dataclass
class Session:
    """State of one connected client."""

    peer: str
    bucket: TokenBucket
    session_id: int = field(default_factory=lambda: next(_session_ids))
    queue: deque = field(default_factory=deque)
    # CancellationTokens of this session's queries currently executing.
    in_flight: set = field(default_factory=set)
    closed: bool = False
    # Counters for the stats op.
    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    # Response writer installed by the server (async callable) — takes a
    # payload to encode, or a finished reply line as an engine process
    # produced it; None once the transport is gone, at which point
    # responses are dropped.
    send: Callable[["dict | bytes"], Any] | None = None

    @property
    def name(self) -> str:
        return f"session-{self.session_id}"

    def disconnect(self) -> int:
        """Mark closed, drop queued work, cancel in-flight queries.

        Returns the number of queued (not yet executing) queries dropped.
        Cancellation of executing queries is cooperative: each token is
        observed by its engine process at the next safe point.
        """
        self.closed = True
        self.send = None
        dropped = len(self.queue)
        self.queue.clear()
        for token in tuple(self.in_flight):
            token.cancel(f"{self.name} disconnected")
        return dropped
