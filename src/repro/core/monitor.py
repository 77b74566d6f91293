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

Storage layout: every window is an :class:`AggregatedWindow`, one weighted
entry per fold — a probe or a scanned row on the oracle (``n == 1``), a
whole chunk on the engine. A leg folds where its numbers are computed, so
nothing is ever pending between a fold and a read.
"""

from __future__ import annotations

from collections import deque


class AggregatedWindow:
    """The history window over the last ``size`` samples (Sec 4.3.5).

    :meth:`observe_chunk` folds ``n`` samples in as a single ``(n, sums)``
    aggregate — O(1) per fold. Eviction drops whole aggregates, so the
    window covers the most recent folds whose sample count is at least
    ``size``; it can transiently hold up to one fold more than ``size``
    samples. The engine folds a chunk at a time, so its estimates are
    within the skew of one chunk of a per-sample window — the documented
    accuracy contract of its monitored modes. The oracle folds one probe
    or scanned row at a time (``n == 1``): eviction is then exact, the
    paper's per-sample sliding window.
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

    __slots__ = ("window",)

    def __init__(self, window: int) -> None:
        self.window = AggregatedWindow(window)

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

    def reset(self) -> None:
        """Drop history (used when the leg's probe configuration changes).

        A monitor that never observed has none to drop and stays as it is
        (so :data:`IDLE_MONITOR` is never written).
        """
        if self.window.lifetime_samples:
            self.window = AggregatedWindow(self.window.size)

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
        """Eq (7): S_JP of the index-access join predicate (every check
        reads it off every inner leg: :meth:`index_match_rate`, inlined)."""
        window = self.window
        samples = window._samples
        if samples == 0 or base_cardinality <= 0:
            return None
        return window._sum_matches / samples / base_cardinality

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


#: The inner monitor of every unmonitored leg (mode NONE): it never
#: observes, so it reads what a fresh monitor reads — no data — to EXPLAIN
#: ANALYZE and the metrics, and one instance serves every execution.
IDLE_MONITOR = LegMonitor(1)


class DrivingMonitor:
    """Scan-progress monitor for the leg currently driving the pipeline.

    Its window's samples are scanned rows and their ``matches`` the rows
    that survived the residual local predicates: the oracle folds each row
    (:meth:`record_scanned`), the engine each slice of the walk.
    """

    __slots__ = ("window", "rows_survived")

    def __init__(self, window: int) -> None:
        self.window = AggregatedWindow(window)
        self.rows_survived = 0  # rows surviving residual locals, lifetime

    @property
    def entries_scanned(self) -> int:
        """Rows out of the access method, lifetime."""
        return self.window.lifetime_samples

    def record_scanned(self, survived: bool) -> None:
        self.record_chunk(1, 1 if survived else 0)

    def record_chunk(self, scanned: int, survived: int) -> None:
        """Fold *scanned* rows, *survived* of them surviving, as one entry."""
        self.window.observe_chunk(scanned, survived, 0, 0.0)
        self.rows_survived += survived

    def residual_selectivity(self) -> float | None:
        """Windowed S_LPR of the driving leg's residual local predicates."""
        window = self.window
        if len(window) == 0:
            return None
        return window.sum_matches / len(window)
