"""Fair round-robin scheduling of admitted queries across sessions.

Each session owns a FIFO of admitted queries; the scheduler keeps a ring
of sessions with pending work and hands out one query per session per
turn. A client that pipelines 50 queries therefore waits behind every
other session's next query, not just its own — per-session throughput
degrades gracefully with client count instead of first-come-first-served
letting one chatty client monopolize the engines.

Plain synchronous code on the event loop's thread: the server asks for
the next query whenever an engine is idle, so nothing here waits.
"""

from __future__ import annotations

from collections import deque

from repro.server.session import PendingQuery, Session


class FairScheduler:
    """Round-robin dispatcher over per-session FIFOs."""

    def __init__(self) -> None:
        # The sessions with queued work, each once, in turn order. (One
        # that disconnected may stay, its queue empty, until its turn.)
        self._ring: deque[Session] = deque()

    @property
    def pending(self) -> int:
        return sum(len(session.queue) for session in self._ring)

    def enqueue(self, pending: PendingQuery) -> None:
        """Append to the query's session FIFO; the session joins the ring."""
        session = pending.session
        if not session.queue:
            self._ring.append(session)
        session.queue.append(pending)

    def next(self) -> PendingQuery | None:
        """The next query in round-robin order; None when nothing waits.

        Sessions that disconnected while queued are skipped silently —
        their FIFOs were already cleared by ``Session.disconnect()``.
        """
        ring = self._ring
        while ring:
            session = ring.popleft()
            if session.closed or not session.queue:
                continue
            if len(session.queue) > 1:
                ring.append(session)  # keep its ring turn
            return session.queue.popleft()
        return None

    def remove_session(self, session: Session) -> int:
        """Drop a disconnected session's queued work; returns count dropped."""
        dropped = len(session.queue)
        if dropped:
            self._ring.remove(session)
            session.queue.clear()
        return dropped
