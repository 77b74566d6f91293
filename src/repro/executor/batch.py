"""The engine: what a columnar database executes with.

``Database`` builds this executor iff its store is columnar, and it runs
every statement on the columnar cascade (:mod:`repro.executor.vector`):
rows and final work totals equal the scalar oracle's, and a monitored run
folds each chunk into a leg's window as one weighted aggregate and fires
its reorder checks at chunk boundaries (DESIGN.md Sec 4d). It shares only
the run with the row store's scalar machine
(:class:`~repro.executor.pipeline.PipelineRun`). An unmonitored run
executes its plan's prepared step program and builds nothing the record
holds — no leg, no registry, and flow counters only where an observation
reads them. A monitored one keeps slim legs
(:class:`~repro.executor.access.LegState`) and a position registry, and
its driving scan is a walk (:class:`~repro.executor.vector._DrivingWalk`)
that a switch freezes and a switch back takes from again; it runs the
record's steps until a check applies a change, then steps assembled from
the statement's step memo. What checks a run (the invariant oracle, a
fault plan, limits, an observation, any controller) chooses neither.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import TransientStorageError
from repro.executor.access import LegFlow, LegState
from repro.executor.pipeline import PipelineRun
from repro.executor.vector import _driving_walk, _DrivingWalk, cascade
from repro.robustness.faults import call_with_retry


class BatchedPipelineExecutor(PipelineRun):
    """Drop-in executor running the cascade: its run yields a list of rows
    per chunk, which :meth:`run_to_completion` extends its result with and
    :meth:`rows` streams row by row."""

    engine_used = "vector"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        """A monitored run's slim legs and registry; an unmonitored run
        builds none — its order, history and events are its plan's — and
        counts its flow (one counter set per alias) only when observed."""
        super().__init__(*args, **kwargs)
        if self.config.mode.monitors:
            self._adapting(LegState)
        else:
            self.flows = (
                None
                if self.obs is None
                else {alias: LegFlow(alias) for alias in self.order}
            )

    def _open_scan(self, alias: str) -> _DrivingWalk:
        """A fresh walk of *alias*'s driving scan: the plan's own is its
        prepared record's."""
        leg = self.legs[alias]
        if alias == self.plan.order[0]:
            walk = self.prepared.cascade[1]
        else:
            walk = _driving_walk(leg.plan_leg, self.prepared.bindings.legs[alias])
        return walk.restarted(self.catalog.meter, leg, True)

    def rows(self) -> Iterator[tuple[Any, ...]]:
        chunks = self._accounted(cascade(self))
        try:
            for chunk in chunks:
                yield from chunk
        finally:
            chunks.close()

    def run_to_completion(self) -> list[tuple[Any, ...]]:
        return self._accounted(self._collect)

    def _collect(self) -> list[tuple[Any, ...]]:
        rows: list[tuple[Any, ...]] = []
        for chunk in cascade(self):
            rows += chunk
        return rows

    def consult(self, site: str) -> None:
        """The fault plan at *site*, once per chunk (and inner leg): a
        transient fault is retried, each retry noted in an observed run's
        :attr:`~repro.obs.recorder.QueryObservability.retries` (the scalar
        machine consults per row). A consultation that does not fail is
        one call."""
        faults = self.catalog.faults
        try:
            faults.fire(site)
        except TransientStorageError as exc:
            on_retry = None if self.obs is None else lambda: self._note_retry(site)
            call_with_retry(lambda: faults.fire(site), on_retry=on_retry, failed=exc)
