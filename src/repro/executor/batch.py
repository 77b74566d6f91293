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

from repro.executor.pipeline import PipelineExecutor
from repro.executor.vector import cascade


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
        rows: list[tuple[Any, ...]] = []
        for chunk in self._accounted(self._run()):
            rows += chunk
        return rows

    def _run(self) -> Iterator[list[tuple]]:
        self._open_driving(self.order[0])
        self._compile_all_probes()
        self.engine_used = (
            "vector-adaptive" if self.config.mode.monitors else "vector"
        )
        # Armed limits are enforced at the chunk boundaries (see
        # vector._run_cascade).
        yield from cascade(self)
