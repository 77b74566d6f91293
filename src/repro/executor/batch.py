"""The engine: what a columnar database executes with.

``Database`` builds this executor iff its store is columnar, and it runs
every statement on the columnar cascade (:mod:`repro.executor.vector`):
rows and final work totals equal the scalar oracle's, and a monitored run
folds each chunk into a leg's window as one weighted aggregate and fires
its reorder checks at chunk boundaries (DESIGN.md Sec 4d). What checks a
run (the invariant oracle, a fault plan, any controller) does not choose
the machine, and no shape does: the row store is the only scalar machine.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.executor.access import LegFlow
from repro.executor.pipeline import PipelineExecutor
from repro.executor.vector import cascade


class BatchedPipelineExecutor(PipelineExecutor):
    """Drop-in executor running the cascade: its run yields a list of rows
    per chunk, which :meth:`run_to_completion` extends its result with and
    :meth:`rows` streams row by row."""

    _lazy_machine = True

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

    def _cascade(self) -> Iterator[list[tuple]]:
        """This run's chunk generator. An unmonitored run nothing checks
        (mode NONE, a learned plan) builds no leg, cursor or registry: only
        what it writes (flow counters, walk progress, meter charges, rows)."""
        # A monitored or oracle-checked run built its machine at init.
        if "legs" in self.__dict__ or self.catalog.faults is not None:
            self._open_driving(self.order[0])
            self._compile_all_probes()
            monitored = self.config.mode.monitors
            self.engine_used = "vector-adaptive" if monitored else "vector"
            return cascade(self, self.legs, self.prepared_start, self.driving_cursor)
        self.engine_used = "vector"
        plan = self.plan
        order = plan.order
        self.order, self.order_history, self.events = list(order), [order], []
        self.class_selectivities = plan.class_selectivities
        meter = self.catalog.meter
        self.flows = {alias: LegFlow(alias, meter) for alias in order}
        return cascade(self, self.flows, self.prepared.cascade, None)
