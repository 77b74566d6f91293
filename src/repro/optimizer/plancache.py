"""The plan cache: compile a statement once, execute it many times.

One instance per :class:`~repro.db.Database` (``db.plan_cache``); the
query server has no cache of its own. Keyed by the **normalized statement
text** (:func:`repro.query.sql.normalize.normalize_sql`: whitespace
canonical, literals preserved): a
:class:`~repro.optimizer.plans.PipelinePlan` embeds its predicate
constants, so only semantically identical statements may share a plan.

Every entry remembers the catalog generation it was planned under
(:meth:`repro.catalog.catalog.Catalog.generation`: DDL, data versions and
the statistics epoch); a lookup under any other generation drops the entry
and replans, so ``insert`` / ``create_index`` / ``analyze`` between two
executions can never serve a stale plan.

Single-flight: when N threads miss on the same key at once, one becomes
the *leader* and plans; the other N-1 block on the entry's event and reuse
the leader's plan — the optimizer runs once per statement per catalog
generation, never once per concurrent request (the classic cache
stampede). If the leader fails, a waiter is promoted and retries, so one
poisoned request cannot wedge the key.

Entries are LRU-bounded. Thread-safe: server worker threads plan, the
event loop reads stats.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable

from repro.query.sql.normalize import normalize_sql

#: get_or_plan outcomes (``ExecutionStats.plan_cache``, the wire field
#: ``stats.plan_cache``, metrics labels).
HIT = "hit"
MISS = "miss"
WAIT = "wait"  # blocked on another thread's in-flight planning, then hit
OFF = "off"  # capacity 0: every statement is planned afresh
OUTCOMES = (HIT, MISS, WAIT, OFF)

#: Default capacity in statements. At a measured ~10 KB per cached
#: six-table statement the 300-statement template grid costs ~3 MB, and an
#: LRU smaller than a workload's distinct statements evicts each entry
#: just before its next use on a repeating pass over them.
DEFAULT_CAPACITY = 1024


class _InFlight:
    """Leader/waiter rendezvous for one key being planned."""

    __slots__ = ("event", "plan", "error", "generation")

    def __init__(self, generation: tuple) -> None:
        self.event = threading.Event()
        self.plan: Any = None
        self.error: BaseException | None = None
        # The catalog generation the leader plans under; waiters admitted
        # under a different generation must not reuse the leader's plan.
        self.generation = generation


class PlanCache:
    """LRU plan cache with generation invalidation and single-flight."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 0:
            raise ValueError("plan cache capacity must be >= 0 (0 disables)")
        self.capacity = capacity
        self._lock = threading.Lock()
        # key -> (plan, generation); OrderedDict for LRU order.
        self._entries: "OrderedDict[str, tuple[Any, tuple]]" = OrderedDict()
        self._in_flight: dict[str, _InFlight] = {}
        self.hits = 0
        self.misses = 0
        self.waits = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get_or_plan(
        self,
        sql: str,
        generation: tuple,
        planner: Callable[[str], Any],
    ) -> tuple[Any, str]:
        """Return ``(plan, outcome)`` where outcome is hit/miss/wait/off.

        *planner* is invoked (outside the cache lock) by at most one
        thread per key at a time; its exceptions propagate to the leader
        and every waiter of that round.
        """
        if self.capacity <= 0:
            with self._lock:
                self.misses += 1
            return planner(sql), OFF
        key = normalize_sql(sql)
        while True:
            with self._lock:
                cached = self._entries.get(key)
                if cached is not None:
                    plan, cached_generation = cached
                    if cached_generation == generation:
                        self._entries.move_to_end(key)
                        self.hits += 1
                        return plan, HIT
                    # Stale: the catalog changed since this was planned.
                    del self._entries[key]
                    self.invalidations += 1
                flight = self._in_flight.get(key)
                if flight is None:
                    flight = _InFlight(generation)
                    self._in_flight[key] = flight
                    leader = True
                else:
                    leader = False
            if leader:
                try:
                    plan = planner(sql)
                    flight.plan = plan
                except BaseException as error:
                    flight.error = error
                    raise
                finally:
                    with self._lock:
                        self._in_flight.pop(key, None)
                        if flight.error is None and flight.plan is not None:
                            self._entries[key] = (flight.plan, generation)
                            self._entries.move_to_end(key)
                            self._evict_over_capacity()
                        self.misses += 1
                    flight.event.set()
                return plan, MISS
            flight.event.wait()
            if (
                flight.error is None
                and flight.plan is not None
                and flight.generation == generation
            ):
                with self._lock:
                    self.waits += 1
                return flight.plan, WAIT
            # Leader failed, or planned under a different catalog
            # generation than ours — loop around and retry as a new
            # leader (the locked lookup re-validates the cached entry).

    def _evict_over_capacity(self) -> None:
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "single_flight_waits": self.waits,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }
