"""The engine: what a columnar database executes with.

``Database`` builds this executor iff its store is columnar, and it runs
every statement on the columnar cascade (:mod:`repro.executor.vector`):
rows and final work totals equal the scalar oracle's, and a monitored run
folds each chunk into a leg's window as one weighted aggregate and fires
its reorder checks at chunk boundaries (DESIGN.md Sec 4d). A run is one of
two things, by its mode alone: an unmonitored one executes its plan's
prepared step program and builds nothing the record holds — no leg, no
cursor, no registry, and flow counters only where an observation reads
them — and a monitored one runs on the machine built at init, through the
same steps until a check applies a change, then through steps assembled
from the entries of the statement's step memo the change installed. What
checks a run (the invariant oracle, a fault plan, limits, an observation,
any controller) chooses neither, and no shape does: the row store is the
only scalar machine.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import TransientStorageError
from repro.executor.access import LegFlow
from repro.executor.pipeline import PipelineExecutor
from repro.executor.vector import cascade
from repro.robustness.faults import call_with_retry


class BatchedPipelineExecutor(PipelineExecutor):
    """Drop-in executor running the cascade: its run yields a list of rows
    per chunk, which :meth:`run_to_completion` extends its result with and
    :meth:`rows` streams row by row."""

    engine_used = "vector"

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

    def _build_machine(self) -> None:
        """A monitored run's machine. An unmonitored run builds no leg,
        cursor or registry — its order, history and events are its plan's —
        and counts its flow (one counter set per alias) only when observed;
        walk progress, meter charges and rows are the cascade's."""
        if self.config.mode.monitors:
            super()._build_machine()
            return
        plan = self.plan
        order = plan.order
        self.order, self.order_history, self.events = list(order), [order], []
        self.class_selectivities = plan.class_selectivities
        self.flows = (
            None if self.obs is None else {alias: LegFlow(alias) for alias in order}
        )

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
