"""The engine: what a columnar database executes with.

``Database`` builds this executor iff its store is columnar, and it runs
every statement on the columnar cascade (:mod:`repro.executor.vector`):
rows and final work totals equal the scalar oracle's, and a monitored run
folds each chunk into a leg's window as one weighted aggregate and fires
its reorder checks at chunk boundaries (DESIGN.md Sec 4d). A run is one of
two things, by its mode alone: an unmonitored one runs straight off its
plan's prepared record with one flow-counter set per leg, a monitored one
on the machine built at init. What checks a run (the invariant oracle, a
fault plan, limits, an observation, any controller) chooses neither, and
no shape does: the row store is the only scalar machine.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.executor.access import LegFlow
from repro.executor.pipeline import PipelineExecutor
from repro.executor.vector import cascade
from repro.robustness.faults import call_with_retry


class BatchedPipelineExecutor(PipelineExecutor):
    """Drop-in executor running the cascade: its run yields a list of rows
    per chunk, which :meth:`run_to_completion` extends its result with and
    :meth:`rows` streams row by row."""

    def rows(self) -> Iterator[tuple[Any, ...]]:
        chunks = self._accounted(self._run())
        try:
            for chunk in chunks:
                yield from chunk
        finally:
            chunks.close()

    def run_to_completion(self) -> list[tuple[Any, ...]]:
        return self._accounted(self._collect)

    def _collect(self) -> list[tuple[Any, ...]]:
        rows: list[tuple[Any, ...]] = []
        for chunk in self._cascade():
            rows += chunk
        return rows

    def _run(self) -> Iterator[list[tuple]]:
        yield from self._cascade()

    def _build_machine(self) -> None:
        """A monitored run's machine. An unmonitored run builds no leg,
        cursor or registry: only what it writes (one flow-counter set per
        alias; walk progress, meter charges and rows are the cascade's)."""
        if self.config.mode.monitors:
            super()._build_machine()
            return
        plan = self.plan
        order = plan.order
        self.order, self.order_history, self.events = list(order), [order], []
        self.class_selectivities = plan.class_selectivities
        meter = self.catalog.meter
        self.flows = {alias: LegFlow(alias, meter) for alias in order}

    def _cascade(self) -> Iterator[list[tuple]]:
        """This run's chunk generator: a monitored run's on its machine,
        an unmonitored one's straight off the plan's prepared record."""
        if self.config.mode.monitors:
            self._open_driving(self.order[0])
            self.engine_used = "vector-adaptive"
            return cascade(self, self.legs, self.prepared_start, self.driving_cursor)
        self.engine_used = "vector"
        return cascade(self, self.flows, self.prepared.cascade, None)

    def consult(self, site: str) -> None:
        """The fault plan at *site*, once per chunk (and inner leg): a
        transient fault is retried, each retry noted in an observed run's
        :attr:`~repro.obs.recorder.QueryObservability.retries` (the scalar
        machine consults per row)."""
        faults = self.catalog.faults
        on_retry = None if self.obs is None else lambda: self._note_retry(site)
        call_with_retry(lambda: faults.fire(site), on_retry=on_retry)
