"""The engine-facing observability bundle.

A :class:`QueryObservability` groups an optional tracer, metrics
registry, and estimate sampler behind one object. The engine consults it
at cold sites only — a leg opening, a reorder check, an applied event, a
fault retry, the end of the run — each guarded by a single
``if obs is not None``. Nothing is fed per row or per probe: the row flow
the metrics and the trace report is read at :meth:`finish` off the
counters every :class:`~repro.executor.access.RuntimeLeg` keeps anyway
(the oracle bumps them per probe, the engine once per chunk), so an
observed query runs the same machine, charges the same work and makes the
same decisions as an unobserved one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.obs.metrics import RATIO_BUCKETS, MetricsRegistry
from repro.obs.timeseries import EstimateSampler
from repro.obs.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.events import AdaptationEvent
    from repro.executor.pipeline import PipelineExecutor


class QueryObservability:
    """Bundle of tracer + metrics + sampler consulted by the engine."""

    def __init__(
        self,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        sampler: EstimateSampler | None = None,
    ) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.sampler = sampler
        # Flight-recorder decision audit (obs/recorder.py), fed at the
        # controller's check points.
        self.audit = None
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
            self._sel_error = m.histogram(
                "selectivity_error_ratio",
                RATIO_BUCKETS,
                "measured Eq (7) selectivity over the optimizer prior",
            )

    @classmethod
    def armed(
        cls, trace: bool = True, metrics: bool = True
    ) -> "QueryObservability":
        """A fully armed bundle (the ``obs=True`` facade default)."""
        return cls(
            tracer=Tracer() if trace else None,
            metrics=MetricsRegistry() if metrics else None,
            sampler=EstimateSampler(),
        )

    # ------------------------------------------------------------------
    # Cold sites: opens, checks, events, faults
    # ------------------------------------------------------------------
    def on_leg_open(self, alias: str, resumed: bool) -> None:
        if self.tracer is not None:
            self.tracer.event(
                "leg-open", kind="leg", leg=alias, resumed=resumed
            )

    def on_check(
        self,
        pipeline: "PipelineExecutor",
        kind: str,
        applied: bool,
        position: int = 0,
    ) -> None:
        """A reorder check ran; *applied* says whether it changed the order."""
        driving_rows = pipeline.driving_rows_total
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
        if self.sampler is not None:
            self.sampler.on_check(pipeline)

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
    def finish(self, pipeline: "PipelineExecutor | None" = None) -> None:
        """Read the run's row flow, record final state, close dangling spans."""
        if pipeline is not None:
            self._record_flow(pipeline)
            self.on_order_change(tuple(pipeline.order))
            if self.sampler is not None:
                self.sampler.sample(pipeline)
            if self.metrics is not None:
                self._observe_selectivity_errors(pipeline)
            if self.audit is not None:
                self.audit.on_finish(pipeline)
        if self.tracer is not None:
            self.tracer.close_all()

    def _record_flow(self, pipeline: "PipelineExecutor") -> None:
        """Each leg's flow counters as metrics and one ``leg-flow`` event."""
        if self.metrics is not None:
            self._rows_emitted.inc(amount=pipeline.rows_emitted)
            for alias, leg in pipeline.legs.items():
                if leg.rows_in:
                    self._rows_in.inc(alias, leg.rows_in)
                    self._index_matches.inc(alias, leg.index_matches)
                    self._rows_out.inc(alias, leg.rows_out)
                if leg.rows_scanned:
                    self._scan_rows.inc(alias, leg.rows_scanned)
                    self._scan_survived.inc(alias, leg.rows_survived)
                if leg.rows_survived:
                    self._driving_rows.inc(alias, leg.rows_survived)
        if self.tracer is not None:
            for alias, leg in pipeline.legs.items():
                self.tracer.event(
                    "leg-flow",
                    kind="leg",
                    leg=alias,
                    rows_in=leg.rows_in,
                    index_matches=leg.index_matches,
                    rows_out=leg.rows_out,
                    rows_scanned=leg.rows_scanned,
                    rows_survived=leg.rows_survived,
                )

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
