"""The engine: what a columnar database executes with.

``Database`` builds this executor iff its store is columnar, and it runs
the columnar cascade (:mod:`repro.executor.vector`) where its screens and
gates pass: rows and final work totals equal the scalar oracle's, and a
monitored run folds each chunk into a leg's window as one weighted
aggregate and fires its reorder checks at chunk boundaries (DESIGN.md
Sec 4d).

Dispatch (:meth:`BatchedPipelineExecutor._run`): a configuration that needs
per-row visibility (invariant oracle, fault injection,
``switch_at_key_boundary``, a custom controller) runs the scalar machine;
otherwise the cascade; a shape its gates refuse runs
the scalar machine too — from the first row, or from the chunk boundary
where the cascade handed back a plan it could not rebuild (cursors, check
counters and windows are then exactly what that machine reads).
``vector_gate_reason`` names the screen or gate.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.controller import AdaptationController
from repro.executor.pipeline import PipelineExecutor, _NoAdaptation
from repro.executor.vector import cascade
from repro.robustness.guard import SandboxedController


class BatchedPipelineExecutor(PipelineExecutor):
    """Drop-in executor running the cascade (scalar fallback built in)."""

    # One weighted ring entry per chunk. The scalar fallbacks still work
    # against them: a per-row observation is an n=1 aggregate with exact
    # eviction.
    aggregated_windows = True

    def _scalar_fallback_reason(self) -> str | None:
        if self.oracle is not None:
            return "invariant oracle armed"
        if self.catalog.faults is not None:
            return "fault injection armed"
        if self.config.switch_at_key_boundary:
            return "switch_at_key_boundary peeks the live cursor"
        controller = self.controller
        if isinstance(controller, SandboxedController):
            controller = controller.inner
        if not isinstance(controller, (AdaptationController, _NoAdaptation)):
            # A custom controller may permute the pipeline between chunk
            # boundaries, where the cascade's kernels would go stale.
            return "unrecognized adaptation controller"
        return None

    def _run(self) -> Iterator[tuple]:
        self._open_driving(self.order[0])
        self._compile_all_probes()
        self.vector_gate_reason = self._scalar_fallback_reason()
        if self.vector_gate_reason is None:
            # None when a gate fails (the gate names itself on
            # vector_gate_reason); the generator returns False when a plan
            # rebuilt mid-query is refused and the partially consumed
            # cursors come back. Armed limits are enforced at its chunk
            # boundaries (see vector._run_cascade).
            engine = cascade(self)
            if engine is not None:
                self.engine_used = (
                    "vector-adaptive" if self.config.mode.monitors else "vector"
                )
                if (yield from engine):
                    return
                self.engine_used = "scalar"
        yield from self._run_scalar()

    def _flush_chunk_folds(self) -> None:
        """Apply every leg's deferred window folds.

        The cascade defers one window aggregate per leg per chunk
        (:meth:`LegMonitor.defer_chunk`); this applies each as ONE
        :meth:`AggregatedWindow.observe_chunk`. Called at every chunk
        boundary before anything (a reorder check, an end-of-query
        snapshot, the scalar continuation) can read a window. No-op for
        legs with nothing pending.
        """
        for leg in self.legs.values():
            leg.monitor.flush_chunk()
