"""Time-series sampling of the run-time monitors' estimates.

The paper's estimator-convergence story (Sec 4.3, Eq 5-11; the Fig 10
window ablation) is about how monitored selectivities evolve as rows flow.
An :class:`EstimateSampler` snapshots every monitored estimate where the
controller checks — once per distinct driving-row count it checked at,
plus once at the end of the run — so convergence plots come from recorded
series instead of ad-hoc bench instrumentation, and each point is a state
a decision was taken from.

Each :class:`EstimateSample` captures, per leg:

* inner legs — window fill, join cardinality ``JC`` (Eq 11), measured
  probe cost ``PC``, index match rate (``O_1/I_1``), index join-predicate
  selectivity ``S_JP`` (Eq 7) with its optimizer prior, and residual
  selectivity ``S_LPR`` (Eq 6/8);
* the driving leg — entries scanned, rows surviving residual locals, and
  its windowed ``S_LPR``;

plus the live pipeline order and the per-equivalence-class join
selectivity table the cost model is currently using.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.executor.pipeline import PipelineRun


@dataclass(frozen=True)
class EstimateSample:
    """One snapshot of the monitors' view of the pipeline."""

    driving_rows: int
    work_units: float
    order: tuple[str, ...]
    # alias -> {"role": ..., "jc": ..., "pc": ..., ...}; None = no data yet.
    legs: dict[str, dict[str, Any]] = field(default_factory=dict)
    class_selectivities: dict[int, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "driving_rows": self.driving_rows,
            "work_units": self.work_units,
            "order": list(self.order),
            "legs": self.legs,
            "class_selectivities": {
                str(cid): sel for cid, sel in self.class_selectivities.items()
            },
        }


def snapshot_legs(
    pipeline: "PipelineRun", legs: Mapping[str, Any] | None = None
) -> dict[str, dict[str, Any]]:
    """Per-leg monitor estimates for the pipeline's current order, of its
    own legs or of *legs* (its plan's prepared record's starting legs,
    which an unmonitored run ends as)."""
    if legs is None:
        legs = pipeline.legs
    snapshot: dict[str, dict[str, Any]] = {}
    for position, alias in enumerate(pipeline.order):
        leg = legs[alias]
        if position == 0:
            monitor = leg.driving_monitor
            snapshot[alias] = {
                "role": "driving",
                "position": 0,
                "entries_scanned": monitor.entries_scanned if monitor else 0,
                "rows_survived": monitor.rows_survived if monitor else 0,
                "s_lpr": monitor.residual_selectivity() if monitor else None,
            }
            continue
        monitor = leg.monitor
        snapshot[alias] = {
            "role": "inner",
            "position": position,
            "window_fill": monitor.incoming_rows,
            "lifetime_incoming": monitor.lifetime_incoming,
            "jc": monitor.join_cardinality(),
            "pc": monitor.probe_cost(),
            "index_match_rate": monitor.index_match_rate(),
            "s_jp": monitor.index_join_selectivity(leg.model_parts.base_cardinality),
            "s_jp_prior": _access_prior(pipeline, leg),
            "s_lpr": monitor.residual_selectivity(),
        }
    return snapshot


def _access_prior(pipeline: "PipelineRun", leg) -> float | None:
    """The optimizer's initial selectivity for *leg*'s access predicate."""
    config = leg.probe_config
    if config is None or config.access_predicate is None:
        return None
    predicate = config.access_predicate
    class_id = pipeline.join_graph.class_id(
        predicate.left, predicate.left_column
    )
    if class_id is None:
        return None
    return pipeline.plan.class_selectivities.get(class_id)


class EstimateSampler:
    """Snapshots the monitored estimates where the controller checks."""

    def __init__(self, max_samples: int = 100_000) -> None:
        self.max_samples = max_samples
        self.samples: list[EstimateSample] = []

    def on_check(self, pipeline: "PipelineRun") -> None:
        """A check ran: one snapshot per distinct driving-row count."""
        samples = self.samples
        if samples and samples[-1].driving_rows == pipeline.driving_rows_total:
            return
        self.sample(pipeline)

    def sample(
        self,
        pipeline: "PipelineRun",
        legs: dict[str, dict[str, Any]] | None = None,
    ) -> EstimateSample | None:
        """Record one snapshot now: of *legs* when the caller took it (the
        final sample reads the run's final legs snapshot), else live."""
        if len(self.samples) >= self.max_samples:
            return None
        meter_before = pipeline.meter_before
        work = (
            (pipeline.catalog.meter - meter_before).total_units
            if meter_before is not None
            else 0.0
        )
        sample = EstimateSample(
            driving_rows=pipeline.driving_rows_total,
            work_units=work,
            order=tuple(pipeline.order),
            legs=snapshot_legs(pipeline) if legs is None else legs,
            class_selectivities=dict(pipeline.class_selectivities),
        )
        self.samples.append(sample)
        return sample
