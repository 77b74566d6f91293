"""Deterministic work accounting for the storage engine.

The paper measures elapsed seconds on a dedicated machine. A pure-Python
re-implementation cannot reproduce absolute timings, and wall-clock noise
would blur the figure shapes, so the engine charges *work units* for every
physical action it performs:

* ``INDEX_DESCEND`` — locating the start of an index range (one B-tree
  descend in a real system),
* ``INDEX_ENTRY`` — each (key, rid) entry touched while walking a range,
* ``ROW_FETCH`` — fetching a heap row by RID,
* ``PREDICATE_EVAL`` — evaluating one residual predicate on one row.

The totals behave like an idealised I/O+CPU cost: a query that probes fewer
index entries and fetches fewer rows is strictly cheaper. Benchmarks report
work units as the primary metric and wall-clock seconds as a secondary one.

A :class:`WorkMeter` is plumbed through tables, indexes, and cursors; the
executor additionally charges adaptation overhead (monitor updates, reorder
checks) to separate buckets so the Sec 5.4 overhead experiment can isolate
them.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass


# Relative weights of the physical actions, loosely modelling "touching an
# index entry is cheap, fetching a heap row costs a random read". The two
# adaptation weights are calibrated so that monitoring + checking overhead
# on order-stable queries lands near the paper's measured 0.68%/0.67%
# (Sec 5.4) at the default check frequency c=10.
INDEX_DESCEND_COST = 4.0
INDEX_ENTRY_COST = 1.0
ROW_FETCH_COST = 2.0
PREDICATE_EVAL_COST = 0.25
MONITOR_UPDATE_COST = 0.02
REORDER_CHECK_COST = 0.4
# Pipelined hash probes (the Sec 6 hash-join extension): building hashes
# every qualifying row once; probing touches one bucket plus its matches.
HASH_BUILD_ENTRY_COST = 1.0   # charged on top of the row fetch per entry
HASH_PROBE_COST = 1.0
HASH_MATCH_COST = 0.5


@dataclass(slots=True)
class WorkMeter:
    """Accumulates deterministic work-unit charges by category."""

    index_descends: int = 0
    index_entries: int = 0
    row_fetches: int = 0
    predicate_evals: int = 0
    monitor_updates: int = 0
    reorder_checks: int = 0
    rows_emitted: int = 0
    hash_build_entries: int = 0
    hash_probes: int = 0
    hash_matches: int = 0

    def charge_index_descend(self, count: int = 1) -> None:
        self.index_descends += count

    def charge_index_entries(self, count: int) -> None:
        self.index_entries += count

    def charge_row_fetch(self, count: int = 1) -> None:
        self.row_fetches += count

    def charge_predicate_eval(self, count: int = 1) -> None:
        self.predicate_evals += count

    def charge_monitor_update(self, count: int = 1) -> None:
        self.monitor_updates += count

    def charge_reorder_check(self, count: int = 1) -> None:
        self.reorder_checks += count

    def charge_row_emitted(self, count: int = 1) -> None:
        self.rows_emitted += count

    def charge_hash_build(self, entries: int) -> None:
        self.hash_build_entries += entries

    def charge_hash_probe(self, matches: int) -> None:
        self.hash_probes += 1
        self.hash_matches += matches

    @property
    def execution_units(self) -> float:
        """Work units spent doing useful query execution."""
        return (
            self.index_descends * INDEX_DESCEND_COST
            + self.index_entries * INDEX_ENTRY_COST
            + self.row_fetches * ROW_FETCH_COST
            + self.predicate_evals * PREDICATE_EVAL_COST
            + self.hash_build_entries * HASH_BUILD_ENTRY_COST
            + self.hash_probes * HASH_PROBE_COST
            + self.hash_matches * HASH_MATCH_COST
        )

    @property
    def adaptation_units(self) -> float:
        """Work units spent on monitoring and reorder checking (overhead)."""
        return (
            self.monitor_updates * MONITOR_UPDATE_COST
            + self.reorder_checks * REORDER_CHECK_COST
        )

    @property
    def total_units(self) -> float:
        return self.execution_units + self.adaptation_units

    def snapshot(self) -> "WorkMeter":
        """Return an independent copy of the current counters."""
        return WorkMeter(
            self.index_descends,
            self.index_entries,
            self.row_fetches,
            self.predicate_evals,
            self.monitor_updates,
            self.reorder_checks,
            self.rows_emitted,
            self.hash_build_entries,
            self.hash_probes,
            self.hash_matches,
        )

    def reset(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def merge(self, other: "WorkMeter") -> None:
        """Fold *other*'s charges into this meter in place (work units are
        additive: a thread's scoped meter folds into the base on exit)."""
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def __sub__(self, other: "WorkMeter") -> "WorkMeter":
        return WorkMeter(
            self.index_descends - other.index_descends,
            self.index_entries - other.index_entries,
            self.row_fetches - other.row_fetches,
            self.predicate_evals - other.predicate_evals,
            self.monitor_updates - other.monitor_updates,
            self.reorder_checks - other.reorder_checks,
            self.rows_emitted - other.rows_emitted,
            self.hash_build_entries - other.hash_build_entries,
            self.hash_probes - other.hash_probes,
            self.hash_matches - other.hash_matches,
        )


class ThreadScopedMeter:
    """A :class:`WorkMeter` facade routing charges to a per-thread meter.

    A caller that embeds a ``Database`` may run executions on several
    threads against one shared catalog (the query server does not: its
    engines are processes, one request at a time), but the catalog — and
    every table built from it — holds a single ``WorkMeter`` reference, so
    concurrent charges would interleave and per-query ``meter - before``
    deltas would mix unrelated queries' work. This facade keeps the object identity the storage layer captured
    while routing every charge to the meter bound to the *current thread*:

    * a thread inside a :meth:`scoped` block charges its private meter, so
      its query's delta is exact regardless of what other threads do;
    * every other thread falls through to the shared base meter,
      preserving single-threaded behaviour.

    On scope exit the private meter folds into the base under a lock, so
    catalog-lifetime totals remain the sum of all work ever done.

    Both reads (``__getattr__``) and stores (``__setattr__``) of counter
    fields route to the thread's meter, so the engine's direct
    ``meter.row_fetches += n`` charge style works identically to the
    ``charge_*`` methods — a plain store can never land on the facade and
    shadow the per-thread meters.
    """

    #: Counter fields whose stores must route to the thread's meter.
    _METER_FIELDS = frozenset(WorkMeter.__dataclass_fields__)

    def __init__(self, base: WorkMeter | None = None) -> None:
        self._base = base if base is not None else WorkMeter()
        self._local = threading.local()
        self._merge_lock = threading.Lock()

    @property
    def base(self) -> WorkMeter:
        """The shared fallback meter (catalog-lifetime totals)."""
        return self._base

    def _current(self) -> WorkMeter:
        meter = getattr(self._local, "meter", None)
        return meter if meter is not None else self._base

    @contextmanager
    def scoped(self):
        """Bind a fresh private meter to the calling thread.

        Yields the private meter; on exit its charges are merged into the
        base. Scopes do not nest — one query per thread at a time.
        """
        if getattr(self._local, "meter", None) is not None:
            raise RuntimeError("meter scope already active on this thread")
        meter = WorkMeter()
        self._local.meter = meter
        try:
            yield meter
        finally:
            self._local.meter = None
            with self._merge_lock:
                self._base.merge(meter)

    def __getattr__(self, name: str):
        # Fields and bound methods (charge_*, snapshot, merge, totals) all
        # resolve against the thread's active meter.
        return getattr(self._current(), name)

    def __setattr__(self, name: str, value) -> None:
        # Counter stores (`meter.row_fetches += n`) go to the thread's
        # meter; everything else (facade internals) stays on the facade.
        if name in self._METER_FIELDS:
            setattr(self._current(), name, value)
        else:
            object.__setattr__(self, name, value)

    def __sub__(self, other: WorkMeter) -> WorkMeter:
        return self._current() - other
