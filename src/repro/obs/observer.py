"""The engine-facing observability bundle.

A :class:`QueryObservability` groups an optional tracer, metrics
registry, and estimate sampler behind one object. Every instrumentation
site in the executor, access layer, and controller is guarded by a single
``if obs is not None`` check — with observability disabled the hot path
pays exactly one ``None`` comparison per site and performs no allocation,
no dict lookup, and no work-meter charge.

Probe-level tracing is **batched**: emitting a span per probe would dwarf
the execution itself, so probes are aggregated per leg and flushed as one
``probe-batch`` event every ``probe_batch`` incoming rows (and at query
end). Metrics counters are exact regardless of batching.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.obs.metrics import (
    MATCH_BUCKETS,
    RATIO_BUCKETS,
    MetricsRegistry,
)
from repro.obs.timeseries import EstimateSampler
from repro.obs.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.events import AdaptationEvent
    from repro.executor.pipeline import PipelineExecutor

DEFAULT_PROBE_BATCH = 64


class QueryObservability:
    """Bundle of tracer + metrics + sampler consulted by the engine."""

    def __init__(
        self,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        sampler: EstimateSampler | None = None,
        probe_batch: int = DEFAULT_PROBE_BATCH,
    ) -> None:
        if probe_batch < 1:
            raise ValueError("probe_batch must be >= 1")
        self.tracer = tracer
        self.metrics = metrics
        self.sampler = sampler
        self.probe_batch = probe_batch
        # Flight-recorder decision audit (obs/recorder.py). Fed only at the
        # controller's cold check points, so it does not make the bundle hot.
        self.audit = None
        # ``hot`` = some per-row/per-probe consumer is armed. The executor
        # only wires the hot hook sites (and runs a columnar-store query on
        # the scalar machine) for hot bundles; a recorder-only bundle stays on
        # the exact same code path as observability-off execution.
        self.hot = (
            tracer is not None or metrics is not None or sampler is not None
        )
        # Per-leg probe accumulators: [probes, index_matches, rows_out].
        self._batches: dict[str, list[int]] = {}
        if metrics is not None:
            m = metrics
            self._rows_emitted = m.counter(
                "query_rows_emitted_total", "rows emitted by the join pipeline"
            )
            self._driving_rows = m.counter(
                "driving_rows_total", "rows produced by the driving leg"
            )
            self._rows_in = m.counter(
                "leg_rows_in_total", "incoming outer rows probed at the leg"
            )
            self._index_matches = m.counter(
                "leg_index_matches_total", "access-method candidates at the leg"
            )
            self._rows_out = m.counter(
                "leg_rows_out_total", "rows surviving all of the leg's predicates"
            )
            self._scan_rows = m.counter(
                "scan_rows_total", "driving-scan rows fetched"
            )
            self._scan_survived = m.counter(
                "scan_rows_survived_total",
                "driving-scan rows surviving residual locals",
            )
            self._depletions = m.counter(
                "suffix_depletions_total", "depleted-state entries by position"
            )
            self._checks = m.counter(
                "reorder_checks_total", "reorder checks by kind and outcome"
            )
            self._events = m.counter(
                "adaptation_events_total", "applied adaptation events by kind"
            )
            self._retries = m.counter(
                "fault_retries_total", "transient-fault retries by site"
            )
            self._positions = m.gauge(
                "leg_position", "current pipeline position of the leg"
            )
            self._match_histogram = m.histogram(
                "probe_index_matches",
                MATCH_BUCKETS,
                "per-probe access-method candidate counts",
            )
            self._sel_error = m.histogram(
                "selectivity_error_ratio",
                RATIO_BUCKETS,
                "measured Eq (7) selectivity over the optimizer prior",
            )

    @classmethod
    def armed(
        cls,
        trace: bool = True,
        metrics: bool = True,
        sample_every: int | None = 10,
        probe_batch: int = DEFAULT_PROBE_BATCH,
    ) -> "QueryObservability":
        """A fully armed bundle (the ``obs=True`` facade default)."""
        return cls(
            tracer=Tracer() if trace else None,
            metrics=MetricsRegistry() if metrics else None,
            sampler=(
                EstimateSampler(every=sample_every)
                if sample_every is not None
                else None
            ),
            probe_batch=probe_batch,
        )

    # ------------------------------------------------------------------
    # Hot-path hooks (the engine guards each call with one None check)
    # ------------------------------------------------------------------
    def on_probe(self, alias: str, index_matches: int, rows_out: int) -> None:
        if self.metrics is not None:
            self._rows_in.inc(alias)
            self._index_matches.inc(alias, index_matches)
            self._rows_out.inc(alias, rows_out)
            self._match_histogram.observe(index_matches, alias)
        if self.tracer is not None:
            batch = self._batches.get(alias)
            if batch is None:
                batch = [0, 0, 0]
                self._batches[alias] = batch
            batch[0] += 1
            batch[1] += index_matches
            batch[2] += rows_out
            if batch[0] >= self.probe_batch:
                self._flush_batch(alias, batch)

    def on_scan_row(self, alias: str, survived: bool) -> None:
        if self.metrics is not None:
            self._scan_rows.inc(alias)
            if survived:
                self._scan_survived.inc(alias)

    def on_driving_row(self, pipeline: "PipelineExecutor") -> None:
        if self.metrics is not None:
            self._driving_rows.inc(pipeline.order[0])
        if self.sampler is not None:
            self.sampler.on_driving_row(pipeline)

    def on_rows_emitted(self, count: int = 1) -> None:
        if self.metrics is not None:
            self._rows_emitted.inc(amount=count)

    def on_suffix_depleted(self, position: int) -> None:
        if self.metrics is not None:
            self._depletions.inc(str(position))

    # ------------------------------------------------------------------
    # Structural hooks (cold path: opens, checks, events, faults)
    # ------------------------------------------------------------------
    def on_leg_open(self, alias: str, resumed: bool) -> None:
        if self.tracer is not None:
            self.tracer.event(
                "leg-open", kind="leg", leg=alias, resumed=resumed
            )

    def on_check(
        self,
        kind: str,
        applied: bool,
        driving_rows: int,
        position: int = 0,
    ) -> None:
        """A reorder check ran; *applied* says whether it changed the order."""
        if self.metrics is not None:
            # Catalogue labels: inner-reorder / inner-keep /
            # driving-switch / driving-keep.
            if applied:
                outcome = "reorder" if kind == "inner" else "switch"
            else:
                outcome = "keep"
            self._checks.inc(f"{kind}-{outcome}")
        if self.tracer is not None:
            self.tracer.event(
                "reorder-check",
                kind="check",
                check=kind,
                applied=applied,
                position=position,
                driving_rows=driving_rows,
            )

    def on_event(self, event: "AdaptationEvent") -> None:
        if self.metrics is not None:
            self._events.inc(event.kind.value)
        if self.tracer is not None:
            self.tracer.event(
                "adaptation",
                kind="adapt",
                event=event.kind.value,
                old_order=event.old_order,
                new_order=event.new_order,
                driving_rows=event.driving_rows_produced,
                est_current_cost=event.estimated_current_cost,
                est_new_cost=event.estimated_new_cost,
            )

    def on_order_change(self, order: tuple[str, ...]) -> None:
        if self.metrics is not None:
            for position, alias in enumerate(order):
                self._positions.set(position, alias)

    def on_fault_retry(self, site: str) -> None:
        if self.metrics is not None:
            self._retries.inc(site)
        if self.tracer is not None:
            self.tracer.event("fault-retry", kind="event", site=site)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _flush_batch(self, alias: str, batch: list[int]) -> None:
        assert self.tracer is not None
        self.tracer.event(
            "probe-batch",
            kind="leg",
            leg=alias,
            probes=batch[0],
            index_matches=batch[1],
            rows_out=batch[2],
        )
        batch[0] = batch[1] = batch[2] = 0

    def finish(self, pipeline: "PipelineExecutor | None" = None) -> None:
        """Flush batches, record final state, close dangling spans."""
        if self.tracer is not None:
            for alias, batch in self._batches.items():
                if batch[0] > 0:
                    self._flush_batch(alias, batch)
        if pipeline is not None:
            self.on_order_change(tuple(pipeline.order))
            if self.sampler is not None:
                self.sampler.sample(pipeline)
            if self.metrics is not None:
                self._observe_selectivity_errors(pipeline)
            if self.audit is not None:
                self.audit.on_finish(pipeline)
        if self.tracer is not None:
            self.tracer.close_all()

    def _observe_selectivity_errors(self, pipeline: "PipelineExecutor") -> None:
        """Fold final measured-vs-prior selectivity ratios into the histogram."""
        for position, alias in enumerate(pipeline.order):
            if position == 0:
                continue
            leg = pipeline.legs[alias]
            config = leg.probe_config
            if config is None or config.access_predicate is None:
                continue
            measured = leg.monitor.index_join_selectivity(leg.base_cardinality)
            if measured is None or measured <= 0:
                continue
            predicate = config.access_predicate
            class_id = pipeline.join_graph.class_id(
                predicate.left, predicate.left_column
            )
            if class_id is None:
                continue
            prior = pipeline.plan.class_selectivities.get(class_id)
            if prior is None or prior <= 0:
                continue
            self._sel_error.observe(measured / prior, alias)

    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        if self.metrics is not None:
            out["metrics"] = self.metrics.as_dict()
        if self.sampler is not None:
            out["samples"] = self.sampler.as_dicts()
        if self.tracer is not None:
            out["spans"] = [span.to_dict() for span in self.tracer.spans]
        return out
