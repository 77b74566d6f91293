"""Run-time monitors (Sec 4.3).

Each leg carries a :class:`LegMonitor` that observes the row counts flowing
through it over a sliding **history window** of the last ``w`` incoming rows
(Sec 4.3.5). From those counters the controller derives:

* combined residual local/join selectivity ``S_LPR = O_n / I_2`` (Eq 6) —
  measured on the *conjunction*, so cross-column correlation is captured
  exactly (the Example 2 property);
* index join-predicate selectivity ``S_JP = O_1 / (I_1 * C(T))`` (Eq 7);
* join cardinality ``JC(T) = O(T) / I(T)`` (Eq 11);
* measured probe cost ``PC(T)`` = work units per incoming row.

The driving leg has no "incoming rows"; :class:`DrivingMonitor` instead
tracks scan progress (entries read, rows surviving locals) so the controller
can estimate the *remaining* work of the current plan (Fig 3 step 2) and the
residual local selectivity of the leg.

Storage layout: both monitors keep their window in preallocated **ring
buffers** (three parallel scalar arrays indexed by ``lifetime % size``)
rather than a deque of sample objects. A single observation is one slot
overwrite with no allocation, and :meth:`DrivingMonitor.observe_many` folds
a whole executor chunk of scan records into the window in one call, with
the exact same add-new-then-subtract-evicted arithmetic as one-at-a-time
updates. The engine's runs carry an :class:`AggregatedWindow` per inner leg
instead: one weighted entry per chunk.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence


class SlidingWindow:
    """Aggregates probe counters over the last ``w`` samples (ring buffer)."""

    __slots__ = (
        "size",
        "_matches",
        "_output",
        "_work",
        "_sum_matches",
        "_sum_output",
        "_sum_work",
        "lifetime_samples",
    )

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("window size must be >= 1")
        self.size = size
        self._matches = [0] * size
        self._output = [0] * size
        self._work = [0.0] * size
        self._sum_matches = 0
        self._sum_output = 0
        self._sum_work = 0.0
        self.lifetime_samples = 0

    def observe(
        self, index_matches: int, output_rows: int, work_units: float
    ) -> None:
        """Fold one sample into the window (O(1), no allocation)."""
        slot = self.lifetime_samples % self.size
        # Same arithmetic order as the historical deque implementation:
        # add the new sample, then evict the expired one — float sums stay
        # bit-identical to per-row scalar monitoring.
        self._sum_matches += index_matches
        self._sum_output += output_rows
        self._sum_work += work_units
        if self.lifetime_samples >= self.size:
            self._sum_matches -= self._matches[slot]
            self._sum_output -= self._output[slot]
            self._sum_work -= self._work[slot]
        self._matches[slot] = index_matches
        self._output[slot] = output_rows
        self._work[slot] = work_units
        self.lifetime_samples += 1

    def __len__(self) -> int:
        return min(self.lifetime_samples, self.size)

    @property
    def sum_matches(self) -> int:
        return self._sum_matches

    @property
    def sum_output(self) -> int:
        return self._sum_output

    @property
    def sum_work(self) -> float:
        return self._sum_work


class AggregatedWindow:
    """Chunk-granular sliding window: one weighted entry per executor chunk.

    The amortized twin of :class:`SlidingWindow`, carried by the engine's
    (chunk-semantics) runs: :meth:`observe_chunk` folds a whole chunk of
    ``n`` samples into the window as a single ``(n, sums)`` aggregate — an
    O(1) ring update per *chunk* rather than per sample. Eviction drops
    whole aggregates, so the window covers the most recent chunks whose
    sample count is at least ``size``; it can transiently hold up to one
    chunk more than ``size`` samples. Estimates are therefore within the
    skew of one chunk of a per-sample window — the documented accuracy
    contract of the engine's monitored modes.

    When every aggregate has ``n == 1`` (e.g. the scalar fallback path
    observing per row) the eviction boundary is exact and estimates match
    :class:`SlidingWindow` bit for bit.
    """

    __slots__ = (
        "size",
        "_chunks",
        "_sum_matches",
        "_sum_output",
        "_sum_work",
        "_samples",
        "lifetime_samples",
    )

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("window size must be >= 1")
        self.size = size
        # (n, matches, output, work) aggregates, oldest first.
        self._chunks: deque[tuple[int, int, int, float]] = deque()
        self._sum_matches = 0
        self._sum_output = 0
        self._sum_work = 0.0
        self._samples = 0
        self.lifetime_samples = 0

    def observe_chunk(
        self, n: int, matches: int, output_rows: int, work_units: float
    ) -> None:
        """Fold a chunk of ``n`` samples in as one aggregate (O(1))."""
        if n <= 0:
            return
        chunks = self._chunks
        chunks.append((n, matches, output_rows, work_units))
        self._sum_matches += matches
        self._sum_output += output_rows
        self._sum_work += work_units
        samples = self._samples + n
        size = self.size
        while samples - chunks[0][0] >= size:
            old_n, old_m, old_o, old_w = chunks.popleft()
            samples -= old_n
            self._sum_matches -= old_m
            self._sum_output -= old_o
            self._sum_work -= old_w
        self._samples = samples
        self.lifetime_samples += n

    def observe(
        self, index_matches: int, output_rows: int, work_units: float
    ) -> None:
        """Single-sample observation (an ``n=1`` aggregate)."""
        self.observe_chunk(1, index_matches, output_rows, work_units)

    def __len__(self) -> int:
        return self._samples

    @property
    def sum_matches(self) -> int:
        return self._sum_matches

    @property
    def sum_output(self) -> int:
        return self._sum_output

    @property
    def sum_work(self) -> float:
        return self._sum_work


class LegMonitor:
    """Windowed monitor for one leg acting as an inner leg."""

    __slots__ = ("window", "_pending")

    def __init__(self, window: int, aggregated: bool = False) -> None:
        self.window: SlidingWindow | AggregatedWindow = (
            AggregatedWindow(window) if aggregated else SlidingWindow(window)
        )
        # Deferred chunk fold: (n, matches, output, work) accumulated by
        # defer_chunk() and applied as ONE AggregatedWindow aggregate by
        # flush_chunk() at the next driving-chunk boundary.
        self._pending: list = [0, 0, 0, 0.0]

    @property
    def incoming_rows(self) -> int:
        return len(self.window)

    @property
    def lifetime_incoming(self) -> int:
        return self.window.lifetime_samples

    def record_probe(
        self, index_matches: int, output_rows: int, work_units: float
    ) -> None:
        self.window.observe(index_matches, output_rows, work_units)

    def defer_chunk(
        self, n: int, matches: int, output_rows: int, work_units: float
    ) -> None:
        """Accumulate a partial chunk fold without touching the window.

        Chunk-granularity executors probe a leg several times per driving
        chunk (one refill per parent batch); deferring lets the executor
        fold the whole driving chunk into the window as ONE aggregate at
        the chunk boundary, which is exactly what the vectorized adaptive
        cascade computes per leg per chunk. The work constants are all
        exact binary fractions (quarter units), so regrouping the float
        sums here is bit-exact against any other grouping.
        """
        pending = self._pending
        pending[0] += n
        pending[1] += matches
        pending[2] += output_rows
        pending[3] += work_units

    def flush_chunk(self) -> None:
        """Apply the deferred fold as one window aggregate (no-op if empty)."""
        pending = self._pending
        if pending[0] == 0:
            return
        self.window.observe_chunk(pending[0], pending[1], pending[2], pending[3])
        pending[0] = 0
        pending[1] = 0
        pending[2] = 0
        pending[3] = 0.0

    def reset(self) -> None:
        """Drop history (used when the leg's probe configuration changes).

        Type-preserving: an aggregated window resets to an aggregated
        window, so the configured monitor granularity survives probe
        recompiles (reorders, driving switches).
        """
        self.window = type(self.window)(self.window.size)
        self._pending = [0, 0, 0, 0.0]

    # -- derived estimates (None when no data yet) -----------------------
    def join_cardinality(self) -> float | None:
        """Eq (11): JC = O / I over the window."""
        if len(self.window) == 0:
            return None
        return self.window.sum_output / len(self.window)

    def join_cardinality_and_probe_cost(self) -> tuple[float, float] | None:
        """:meth:`join_cardinality` and :meth:`probe_cost` in one read: the
        pair every reorder check calibrates the leg's model against."""
        window = self.window
        samples = len(window)
        if samples == 0:
            return None
        return window.sum_output / samples, window.sum_work / samples

    def index_match_rate(self) -> float | None:
        """Average index matches per incoming row (O_1 / I_1)."""
        if len(self.window) == 0:
            return None
        return self.window.sum_matches / len(self.window)

    def index_join_selectivity(self, base_cardinality: int) -> float | None:
        """Eq (7): S_JP of the index-access join predicate."""
        rate = self.index_match_rate()
        if rate is None or base_cardinality <= 0:
            return None
        return rate / base_cardinality

    def residual_selectivity(self) -> float | None:
        """Eq (6)/(8): combined selectivity of all residual predicates."""
        if self.window.sum_matches == 0:
            return None
        return self.window.sum_output / self.window.sum_matches

    def probe_cost(self) -> float | None:
        """Measured PC: work units per incoming row, over the window."""
        if len(self.window) == 0:
            return None
        return self.window.sum_work / len(self.window)


class DrivingMonitor:
    """Scan-progress monitor for the leg currently driving the pipeline."""

    __slots__ = (
        "window",
        "_survived_ring",
        "entries_scanned",
        "rows_survived",
        "_recent_scanned",
        "_recent_survived",
    )

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError("window size must be >= 1")
        self.window = window
        self._survived_ring = [0] * window
        self.entries_scanned = 0       # rows out of the access method
        self.rows_survived = 0         # rows surviving residual locals
        self._recent_scanned = 0
        self._recent_survived = 0

    def record_scanned(self, survived: bool) -> None:
        lived = 1 if survived else 0
        slot = self.entries_scanned % self.window
        if self.entries_scanned >= self.window:
            self._recent_survived -= self._survived_ring[slot]
        else:
            self._recent_scanned += 1
        self._survived_ring[slot] = lived
        self._recent_survived += lived
        self.entries_scanned += 1
        self.rows_survived += lived

    def observe_many(self, survived_flags: Sequence[int]) -> None:
        """Fold a chunk of per-row survival flags (0/1) into the window.

        Exact bulk twin of calling :meth:`record_scanned` once per flag:
        the ring keeps each row's flag, so the rows evicted are precisely
        the ones a row-at-a-time run would have evicted. Done with slice
        arithmetic, so a chunk costs a few list operations whatever its
        length.
        """
        count = len(survived_flags)
        if not count:
            return
        ring = self._survived_ring
        window = self.window
        scanned = self.entries_scanned
        total = sum(survived_flags)
        if count >= window:
            # Only the last `window` flags stay; they land at consecutive
            # slots starting where the first of them would have been put.
            kept = list(survived_flags[count - window :])
            first = (scanned + count - window) % window
            ring[first:] = kept[: window - first]
            ring[:first] = kept[window - first :]
            self._recent_survived = sum(kept)
        else:
            # Slots never written hold 0, so subtracting what is
            # overwritten is right before the ring has filled too.
            first = scanned % window
            head = min(count, window - first)
            evicted = sum(ring[first : first + head]) + sum(ring[: count - head])
            ring[first : first + head] = survived_flags[:head]
            ring[: count - head] = survived_flags[head:]
            self._recent_survived += total - evicted
        self._recent_scanned = min(window, scanned + count)
        self.entries_scanned = scanned + count
        self.rows_survived += total

    def residual_selectivity(self) -> float | None:
        """Windowed S_LPR of the driving leg's residual local predicates."""
        if self._recent_scanned == 0:
            return None
        return self._recent_survived / self._recent_scanned
