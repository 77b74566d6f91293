"""The engine: what a columnar database executes with.

``Database`` builds this executor iff its store is columnar, and it runs
the columnar cascade (:mod:`repro.executor.vector`) where its gates pass:
rows and final work totals equal the scalar oracle's, and a monitored run
folds each chunk into a leg's window as one weighted aggregate and fires
its reorder checks at chunk boundaries (DESIGN.md Sec 4d).

Dispatch (:meth:`BatchedPipelineExecutor._run`): the cascade; a shape its
gates refuse runs the scalar machine — from the first row, or from the
chunk boundary where the cascade handed back a plan it could not rebuild
(cursors, check counters and windows are then exactly what that machine
reads). ``vector_gate_reason`` names the gate. What checks a run (the
invariant oracle, a fault plan, any controller) does not choose the
machine.
"""

from __future__ import annotations

from typing import Iterator

from repro.executor.pipeline import PipelineExecutor
from repro.executor.vector import cascade


class BatchedPipelineExecutor(PipelineExecutor):
    """Drop-in executor running the cascade (scalar fallback built in)."""

    def _run(self) -> Iterator[tuple]:
        self._open_driving(self.order[0])
        self._compile_all_probes()
        # None when a gate fails (the gate names itself on
        # vector_gate_reason); the generator returns False when a plan
        # rebuilt mid-query is refused and the partially consumed cursors
        # come back. Armed limits are enforced at its chunk boundaries (see
        # vector._run_cascade).
        engine = cascade(self)
        if engine is not None:
            self.engine_used = (
                "vector-adaptive" if self.config.mode.monitors else "vector"
            )
            if (yield from engine):
                return
            self.engine_used = "scalar"
        yield from self._run_scalar()

