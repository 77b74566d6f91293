"""A small metrics registry: counters, gauges, fixed-bucket histograms.

The naming convention follows the Prometheus exposition style
(``snake_case``, ``_total`` suffix for counters, one optional label per
metric). Metrics are plain Python objects — there is no exporter process;
the registry is attached to a :class:`~repro.db.QueryResult` (or a
workload run) and rendered as text or dictionaries.

Metric catalogue (the per-query rows are what :func:`record_query_metrics`
renders from a run's observation into an armed registry):

=================================  ======  ===========================================
name                               type    meaning
=================================  ======  ===========================================
``query_rows_emitted_total``       counter rows the pipeline emitted (pre post-process)
``driving_rows_total{leg}``        counter rows the leg produced while driving
``leg_rows_in_total{leg}``         counter probe invocations (incoming outer rows)
``leg_index_matches_total{leg}``   counter index/hash/scan candidates at the leg
``leg_rows_out_total{leg}``        counter rows surviving all of the leg's predicates
``scan_rows_total{leg}``           counter driving-scan rows fetched by the leg
``scan_rows_survived_total{leg}``  counter driving-scan rows surviving residual locals
``reorder_checks_total{outcome}``  counter ``inner-reorder`` / ``inner-keep`` /
                                           ``driving-switch`` / ``driving-keep``
``adaptation_events_total{kind}``  counter applied events by kind (incl. ``degraded``)
``fault_retries_total{site}``      counter transient-fault retries by injection site
``leg_position{leg}``              gauge   the leg's current pipeline position (0=driving)
``selectivity_error_ratio{leg}``   histo   measured Eq (7) selectivity / optimizer prior
``storage_table_bytes{table}``     gauge   resident bytes of one table's storage
``storage_table_rows{table}``      gauge   row count of one table
``storage_total_bytes``            gauge   resident bytes across all tables
``storage_index_bytes``            gauge   resident bytes of every table's indexes
``storage_table_count``            gauge   number of tables in the catalog
``storage_backend_info{backend}``  gauge   1 for the active storage backend
``plan_cache_entries``             gauge   statements held by the database's plan cache
``plan_cache_capacity``            gauge   its capacity in statements (0 = off)
``plan_cache_events{kind}``        gauge   cumulative hits / misses / single_flight_waits /
                                           evictions / invalidations / feedback_writes /
                                           feedback_hits
=================================  ======  ===========================================
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Iterator, Mapping

#: Ratio buckets for measured/estimated selectivity (1.0 = perfect prior).
RATIO_BUCKETS = (0.1, 0.25, 0.5, 0.8, 1.25, 2.0, 4.0, 10.0)


class Counter:
    """A monotonically increasing value, optionally split by one label."""

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: dict[str, float] = {}

    def inc(self, label: str = "", amount: float = 1.0) -> None:
        self._values[label] = self._values.get(label, 0.0) + amount

    def value(self, label: str = "") -> float:
        return self._values.get(label, 0.0)

    @property
    def total(self) -> float:
        return sum(self._values.values())

    def items(self) -> Iterator[tuple[str, float]]:
        return iter(sorted(self._values.items()))

    def as_dict(self) -> dict[str, float]:
        return dict(sorted(self._values.items()))


class Gauge:
    """A point-in-time value, optionally split by one label."""

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: dict[str, float] = {}

    def set(self, value: float, label: str = "") -> None:
        self._values[label] = value

    def value(self, label: str = "") -> float | None:
        return self._values.get(label)

    def items(self) -> Iterator[tuple[str, float]]:
        return iter(sorted(self._values.items()))

    def as_dict(self) -> dict[str, float]:
        return dict(sorted(self._values.items()))


class Histogram:
    """Fixed-boundary cumulative-bucket histogram with one optional label.

    ``boundaries`` are upper bounds of the finite buckets; one implicit
    ``+Inf`` bucket is always appended, so every observation lands
    somewhere and ``count`` equals the sum of bucket increments.
    """

    def __init__(
        self, name: str, boundaries: tuple[float, ...], help: str = ""
    ) -> None:
        if not boundaries or list(boundaries) != sorted(boundaries):
            raise ValueError("histogram boundaries must be sorted and non-empty")
        self.name = name
        self.help = help
        self.boundaries = tuple(float(b) for b in boundaries)
        # label -> [per-bucket counts..., +Inf bucket]
        self._buckets: dict[str, list[int]] = {}
        self._sums: dict[str, float] = {}
        self._counts: dict[str, int] = {}

    def observe(self, value: float, label: str = "") -> None:
        if not math.isfinite(value):
            # NaN would poison every later quantile/mean and ±inf the sum;
            # non-finite observations are dropped (count stays exact for
            # everything actually measurable).
            return
        buckets = self._buckets.get(label)
        if buckets is None:
            buckets = [0] * (len(self.boundaries) + 1)
            self._buckets[label] = buckets
        buckets[bisect_left(self.boundaries, value)] += 1
        self._sums[label] = self._sums.get(label, 0.0) + value
        self._counts[label] = self._counts.get(label, 0) + 1

    def count(self, label: str = "") -> int:
        return self._counts.get(label, 0)

    def sum(self, label: str = "") -> float:
        return self._sums.get(label, 0.0)

    def mean(self, label: str = "") -> float | None:
        count = self.count(label)
        if count == 0:
            return None
        return self.sum(label) / count

    def quantile(self, q: float, label: str = "") -> float | None:
        """Estimate the *q*-quantile (0 < q <= 1) from the bucket counts.

        Uses linear interpolation inside the bucket where the cumulative
        count crosses ``q * count`` (the Prometheus ``histogram_quantile``
        rule): the first finite bucket interpolates from 0, and a target
        landing in the ``+Inf`` bucket is clamped to the highest finite
        boundary — an estimator, not an exact order statistic. Returns
        None when nothing was observed.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError("quantile q must be in (0, 1]")
        total = self.count(label)
        if total == 0:
            return None
        counts = self._buckets[label]
        target = q * total
        cumulative = 0
        for i, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                if i >= len(self.boundaries):
                    return self.boundaries[-1]
                low = self.boundaries[i - 1] if i > 0 else 0.0
                high = self.boundaries[i]
                fraction = (target - cumulative) / bucket_count
                return low + (high - low) * fraction
            cumulative += bucket_count
        return self.boundaries[-1]  # pragma: no cover - defensive

    def buckets(self, label: str = "") -> dict[str, int]:
        """Bucket counts keyed by ``le`` upper bound (non-cumulative)."""
        counts = self._buckets.get(label, [0] * (len(self.boundaries) + 1))
        keys = [f"{b:g}" for b in self.boundaries] + ["+Inf"]
        return dict(zip(keys, counts))

    def labels(self) -> list[str]:
        return sorted(self._buckets)

    def as_dict(self) -> dict[str, Any]:
        return {
            label: {
                "count": self.count(label),
                "sum": self.sum(label),
                "buckets": self.buckets(label),
            }
            for label in self.labels()
        }


class MetricsRegistry:
    """Get-or-create home for the metric objects of one measured scope."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, name: str, factory):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        metric = self._get_or_create(name, lambda: Counter(name, help))
        if not isinstance(metric, Counter):
            raise TypeError(f"metric {name!r} already registered as {type(metric).__name__}")
        return metric

    def gauge(self, name: str, help: str = "") -> Gauge:
        metric = self._get_or_create(name, lambda: Gauge(name, help))
        if not isinstance(metric, Gauge):
            raise TypeError(f"metric {name!r} already registered as {type(metric).__name__}")
        return metric

    def histogram(
        self, name: str, boundaries: tuple[float, ...], help: str = ""
    ) -> Histogram:
        metric = self._get_or_create(name, lambda: Histogram(name, boundaries, help))
        if not isinstance(metric, Histogram):
            raise TypeError(f"metric {name!r} already registered as {type(metric).__name__}")
        return metric

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def as_dict(self) -> dict[str, Any]:
        """A JSON-safe snapshot of every metric in the registry."""
        return {name: self._metrics[name].as_dict() for name in self.names()}

    def render_prometheus(self, label_name: str = "label") -> str:
        """Prometheus text exposition (``# HELP`` / ``# TYPE`` / series).

        Histograms render the standard cumulative ``_bucket{le=...}``
        series plus ``_sum`` and ``_count``. Every metric here carries at
        most one label dimension; *label_name* names it on the wire.
        """

        def escape(value: str) -> str:
            return (
                value.replace("\\", "\\\\")
                .replace('"', '\\"')
                .replace("\n", "\\n")
            )

        def series(name: str, label: str, extra: str = "") -> str:
            parts = []
            if label:
                parts.append(f'{label_name}="{escape(label)}"')
            if extra:
                parts.append(extra)
            return f"{name}{{{','.join(parts)}}}" if parts else name

        lines: list[str] = []
        for name in self.names():
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            if isinstance(metric, Counter):
                lines.append(f"# TYPE {name} counter")
                for label, value in metric.items():
                    lines.append(f"{series(name, label)} {value:g}")
            elif isinstance(metric, Gauge):
                lines.append(f"# TYPE {name} gauge")
                for label, value in metric.items():
                    lines.append(f"{series(name, label)} {value:g}")
            else:
                lines.append(f"# TYPE {name} histogram")
                for label in metric.labels():
                    cumulative = 0
                    for le, count in metric.buckets(label).items():
                        cumulative += count
                        bucket = series(name + "_bucket", label, f'le="{le}"')
                        lines.append(f"{bucket} {cumulative}")
                    lines.append(
                        f"{series(name + '_sum', label)} {metric.sum(label):g}"
                    )
                    lines.append(
                        f"{series(name + '_count', label)} {metric.count(label)}"
                    )
        return "\n".join(lines) + "\n" if lines else ""

    def render(self) -> str:
        """Plain-text exposition, one ``name{label} value`` line per series."""
        lines: list[str] = []
        for name in self.names():
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# {name}: {metric.help}")
            if isinstance(metric, (Counter, Gauge)):
                for label, value in metric.items():
                    series = f"{name}{{{label}}}" if label else name
                    rendered = f"{value:g}"
                    lines.append(f"{series} {rendered}")
            else:
                for label in metric.labels():
                    series = f"{name}{{{label}}}" if label else name
                    lines.append(
                        f"{series} count={metric.count(label)} "
                        f"sum={metric.sum(label):g} "
                        f"mean={metric.mean(label):.4g}"
                    )
                    bucket_line = " ".join(
                        f"le={le}:{count}"
                        for le, count in metric.buckets(label).items()
                        if count
                    )
                    if bucket_line:
                        lines.append(f"  {bucket_line}")
        return "\n".join(lines) if lines else "(no metrics recorded)"


def record_query_metrics(
    registry: MetricsRegistry, timeline: list[tuple[str, str, dict]], observation
) -> None:
    """Fold one run's observation into the per-query metrics of the
    catalogue: the flow counters and check, event and retry counts off its
    *timeline* (:meth:`~repro.obs.recorder.QueryObservability.timeline`),
    the final leg positions, and each inner leg's measured Eq (7)
    selectivity over its optimizer prior off the final legs snapshot.
    Every metric is registered, a run that had none of it too."""
    counter, gauge = registry.counter, registry.gauge
    counter("query_rows_emitted_total", "rows emitted by the join pipeline").inc(
        amount=observation.rows_emitted
    )
    driving_rows = counter("driving_rows_total", "rows produced by the driving leg")
    flows = (
        counter("leg_rows_in_total", "incoming outer rows probed at the leg"),
        counter("leg_index_matches_total", "access-method candidates at the leg"),
        counter("leg_rows_out_total", "rows surviving all of the leg's predicates"),
    )
    scan_rows = counter("scan_rows_total", "driving-scan rows fetched")
    scan_survived = counter(
        "scan_rows_survived_total", "driving-scan rows surviving residual locals"
    )
    checks = counter("reorder_checks_total", "reorder checks by kind and outcome")
    events = counter("adaptation_events_total", "applied adaptation events by kind")
    retries = counter("fault_retries_total", "transient-fault retries by site")
    positions = gauge("leg_position", "current pipeline position of the leg")
    errors = registry.histogram(
        "selectivity_error_ratio",
        RATIO_BUCKETS,
        "measured Eq (7) selectivity over the optimizer prior",
    )
    for name, _, attrs in timeline:
        if name == "reorder-check":
            # inner-reorder / inner-keep / driving-switch / driving-keep
            kind = attrs["check"]
            applied = "reorder" if kind == "inner" else "switch"
            checks.inc(f"{kind}-{applied if attrs['applied'] else 'keep'}")
        elif name == "adaptation":
            events.inc(attrs["event"])
        elif name == "fault-retry":
            retries.inc(attrs["site"])
        elif name == "leg-flow":
            leg = attrs["leg"]
            if attrs["rows_in"]:
                for metric, key in zip(flows, ("rows_in", "index_matches", "rows_out")):
                    metric.inc(leg, attrs[key])
            if attrs["rows_scanned"]:
                scan_rows.inc(leg, attrs["rows_scanned"])
                scan_survived.inc(leg, attrs["rows_survived"])
            if attrs["rows_survived"]:
                driving_rows.inc(leg, attrs["rows_survived"])
    for position, alias in enumerate(observation.order):
        positions.set(position, alias)
        leg = observation.final_legs.get(alias, {})
        measured, prior = leg.get("s_jp"), leg.get("s_jp_prior")
        if position and measured and prior and measured > 0 and prior > 0:
            errors.observe(measured / prior, alias)


def record_storage_gauges(
    registry: MetricsRegistry, storage: Mapping[str, Any]
) -> None:
    """Fold a ``Database.storage_stats()`` payload into footprint gauges.

    Per-table resident bytes and row counts become labelled gauges; the
    catalog-wide totals and the active backend (Prometheus info-style,
    value 1 with the backend name as the label) ride alongside, so one
    scrape shows where the columnar layout's memory savings land.
    """
    table_bytes = registry.gauge(
        "storage_table_bytes", "resident bytes of one table's storage"
    )
    table_rows = registry.gauge("storage_table_rows", "row count of one table")
    kernel_bytes = registry.gauge(
        "storage_kernel_bytes",
        "materialized kernel-plan bytes (index arrays + group kernels + row-rank "
        "arrays) per table",
    )
    for entry in storage.get("per_table", ()):
        table_bytes.set(float(entry["bytes"]), entry["table"])
        table_rows.set(float(entry["rows"]), entry["table"])
        if "kernel_bytes" in entry:
            kernel_bytes.set(float(entry["kernel_bytes"]), entry["table"])
    registry.gauge(
        "storage_total_bytes", "resident bytes across all tables"
    ).set(float(storage.get("total_bytes", 0)))
    registry.gauge(
        "storage_index_bytes", "resident bytes of every table's indexes"
    ).set(float(storage.get("index_bytes", 0)))
    registry.gauge(
        "storage_kernel_plan_bytes",
        "materialized kernel-plan bytes across all tables",
    ).set(float(storage.get("kernel_plan_bytes", 0)))
    registry.gauge(
        "storage_table_count", "number of tables in the catalog"
    ).set(float(storage.get("table_count", 0)))
    registry.gauge(
        "storage_backend_info", "1 for the active storage backend"
    ).set(1.0, str(storage.get("backend", "unknown")))


def record_plan_cache_gauges(
    registry: MetricsRegistry, cache: Mapping[str, Any]
) -> None:
    """Fold a ``Database.plan_cache.stats()`` payload into gauges.

    The counts are cumulative over the database's lifetime; they are
    gauges here because the registry receives snapshots of them, not the
    increments.
    """
    registry.gauge(
        "plan_cache_entries", "statements currently held by the plan cache"
    ).set(float(cache["size"]))
    registry.gauge(
        "plan_cache_capacity", "plan cache capacity in statements (0 = off)"
    ).set(float(cache["capacity"]))
    events = registry.gauge(
        "plan_cache_events", "plan cache lookups and removals, by kind"
    )
    for kind in (
        "hits", "misses", "single_flight_waits", "evictions", "invalidations",
        "feedback_writes", "feedback_hits",
    ):
        events.set(float(cache[kind]), kind)
