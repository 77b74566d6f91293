"""The plan cache: compile a statement once, execute it many times.

One instance per :class:`~repro.db.Database` (``db.plan_cache``); the
query server has no cache of its own. Keyed by the **normalized statement
text** (:func:`repro.query.sql.normalize.normalize_sql`: whitespace
canonical, literals preserved): a
:class:`~repro.optimizer.plans.PipelinePlan` embeds its predicate
constants, so only semantically identical statements may share a plan.

Every entry remembers the catalog generation it was planned under
(:meth:`repro.catalog.catalog.Catalog.generation`: DDL, data versions and
the statistics epoch). The generation is global, so the first lookup under
a new one drops **every** entry and replans, and ``insert`` /
``create_index`` / ``analyze`` between two executions can never serve a
stale plan — nor leave one in the LRU holding what a plan's prepared
record (:meth:`~repro.optimizer.plans.PipelinePlan.prepared`) built for a
generation that is gone: kernels, rank arrays, scan arrays.

The key is found once per raw text: a memo maps each text the cache was
asked for to its normalized form and its template signature
(:func:`~repro.query.sql.normalize.template_signature`), so a repeated
statement runs neither regex again — not for the lookup, and not for the
flight record, which takes both from :meth:`PlanCache.texts`. The memo
keeps at most ``capacity`` texts, first in, first out.

Single-flight: when N threads miss on the same key at once, one becomes
the *leader* and plans; the other N-1 block on the entry's event and reuse
the leader's plan — the optimizer runs once per statement per catalog
generation, never once per concurrent request (the classic cache
stampede). If the leader fails, a waiter is promoted and retries, so one
poisoned request cannot wedge the key.

An entry also keeps what the statement's first monitored execution in a
mode learned — its **feedback plan**: the same plan, reordered to the order
that run proposed or ended on and carrying the estimates it measured, or the
unchanged plan when that order is the one it started from (built by the
caller, stored by :meth:`PlanCache.write_feedback` with the mode it was
learned in). :meth:`PlanCache.lookup` hands it to callers asking in that
mode alone; :meth:`PlanCache.get_or_plan` never does, so a static execution
always starts from the optimizer's plan. One slot per entry: a first run in
another mode overwrites it. Feedback lives and dies with its entry: a
generation change or an LRU eviction drops both — the same text over the
same data and statistics measures the same numbers, so there is nothing to
learn again inside a generation.

Entries are LRU-bounded. Thread-safe for callers that embed a
``Database`` and execute on several threads; the query server's engines
are processes, each with its own inherited cache, answering one request
at a time.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, NamedTuple

from repro.query.sql.normalize import normalize_sql, template_signature

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


class Feedback(NamedTuple):
    """What monitored executions left in an entry."""

    plan: Any  # the plan later executions in *mode* run, statically
    writes: int  # write-backs the entry has seen, this one included
    mode: Any  # the monitored mode whose first run wrote it


class CachedPlan:
    """One statement's entry: the optimizer's plan and the feedback on it.

    ``generation`` is None for the transient entry of a cache that is off:
    nothing holds it, so no catalog generation ever matches it.
    """

    __slots__ = ("key", "plan", "generation", "feedback")

    def __init__(self, key: str | None, plan: Any, generation: tuple | None):
        self.key = key
        self.plan = plan
        self.generation = generation
        # Never mutated: replaced whole, under the cache lock.
        self.feedback: Feedback | None = None


class _InFlight:
    """Leader/waiter rendezvous for one key being planned."""

    __slots__ = ("event", "entry", "generation")

    def __init__(self, generation: tuple) -> None:
        self.event = threading.Event()
        # What the leader planned; still None when it failed.
        self.entry: CachedPlan | None = None
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
        # OrderedDict for LRU order.
        self._entries: "OrderedDict[str, CachedPlan]" = OrderedDict()
        self._in_flight: dict[str, _InFlight] = {}
        # Raw text -> (normalized key, template signature), at most
        # ``capacity`` texts.
        self._keys: dict[str, tuple[str, str]] = {}
        # The catalog generation of the latest lookup: every entry's.
        self._generation: tuple | None = None
        self.hits = 0
        self.misses = 0
        self.waits = 0
        self.evictions = 0
        self.invalidations = 0
        self.feedback_writes = 0
        self.feedback_hits = 0

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

        The plan is always the one *planner* made, never feedback.
        """
        entry, outcome, _ = self.lookup(sql, generation, planner)
        return entry.plan, outcome

    def lookup(
        self,
        sql: str,
        generation: tuple,
        planner: Callable[[str], Any],
        mode: Any = None,
    ) -> tuple[CachedPlan, str, Feedback | None]:
        """Return ``(entry, outcome, feedback)``.

        *feedback* is the entry's :class:`Feedback` when a hit found one
        learned in *mode* — read, and counted, under the same lock
        acquisition as the lookup — else None.

        *planner* is invoked (outside the cache lock) by at most one
        thread per key at a time; its exceptions propagate to the leader
        and every waiter of that round.
        """
        if self.capacity <= 0:
            with self._lock:
                self.misses += 1
            return CachedPlan(None, planner(sql), None), OFF, None
        texts = self._keys.get(sql)
        if texts is None:
            texts = (normalize_sql(sql), template_signature(sql))
            with self._lock:
                if len(self._keys) >= self.capacity:
                    del self._keys[next(iter(self._keys))]
                self._keys[sql] = texts
        key = texts[0]
        while True:
            with self._lock:
                if generation != self._generation:
                    # The catalog changed since these were planned.
                    self.invalidations += len(self._entries)
                    self._entries.clear()
                    self._generation = generation
                cached = self._entries.get(key)
                if cached is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    feedback = cached.feedback
                    if feedback is not None and feedback.mode is mode:
                        self.feedback_hits += 1
                    else:
                        feedback = None
                    return cached, HIT, feedback
                flight = self._in_flight.get(key)
                if flight is None:
                    flight = _InFlight(generation)
                    self._in_flight[key] = flight
                    leader = True
                else:
                    leader = False
            if leader:
                try:
                    flight.entry = CachedPlan(key, planner(sql), generation)
                finally:
                    with self._lock:
                        self._in_flight.pop(key, None)
                        # Not when a lookup under a newer generation
                        # dropped the cache while this one planned.
                        if (
                            flight.entry is not None
                            and generation == self._generation
                        ):
                            self._entries[key] = flight.entry
                            self._entries.move_to_end(key)
                            self._evict_over_capacity()
                        self.misses += 1
                    flight.event.set()
                return flight.entry, MISS, None
            flight.event.wait()
            if flight.entry is not None and flight.generation == generation:
                with self._lock:
                    self.waits += 1
                return flight.entry, WAIT, None
            # Leader failed, or planned under a different catalog
            # generation than ours — loop around and retry as a new
            # leader (the locked lookup re-validates the cached entry).

    def texts(self, sql: str) -> tuple[str, str] | None:
        """``(normalized text, template signature)`` of *sql* when a lookup
        of that very text is still in the memo, else None."""
        return self._keys.get(sql)

    def write_feedback(
        self, entry: CachedPlan, generation: tuple, plan: Any, mode: Any
    ) -> bool:
        """Make *plan* what *entry*'s later executions in *mode* run.

        Refused (False) unless the cache still holds *entry* and it was
        planned under *generation*, the catalog's current one: feedback
        measured on data or statistics that have since changed is dropped,
        as is feedback for an entry evicted while its statement ran.
        """
        with self._lock:
            if not self._holds(entry, generation):
                return False
            previous = entry.feedback
            entry.feedback = Feedback(
                plan, 1 if previous is None else previous.writes + 1, mode
            )
            self.feedback_writes += 1
            return True

    def plans(self) -> list:
        """Every plan the cache holds: each entry's, and its feedback plan."""
        with self._lock:
            entries = list(self._entries.values())
        plans = [entry.plan for entry in entries]
        plans += [entry.feedback.plan for entry in entries if entry.feedback]
        return plans

    def _holds(self, entry: CachedPlan, generation: tuple) -> bool:
        return (
            entry.generation == generation
            and self._entries.get(entry.key) is entry
        )

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
                "feedback_writes": self.feedback_writes,
                "feedback_hits": self.feedback_hits,
            }
