"""Adaptation sandboxing: the adaptive layer may never fail a query.

The monitoring/controller layer (Sec 4.3) is pure *advice*: every query it
could answer adaptively, the static plan can answer too. The
:class:`SandboxedController` wraps any :class:`AdaptationHooks`
implementation so that an exception escaping the adaptive layer —
model-building bugs, injected faults, bad cost arithmetic — records a
``DEGRADED`` event, permanently disables further reordering for that
query, and lets execution continue under the current order.

The one case the sandbox will *not* absorb is a half-applied mutation: if
the controller raised *after* changing the pipeline's leg order or driving
scan, continuing could violate the duplicate-prevention invariant, so
the exception is re-raised (chained) instead. In practice the mutation
primitives validate before they mutate, so this path indicates a genuine
executor bug rather than an adaptive-layer failure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.events import AdaptationEvent, EventKind
from repro.errors import ExecutionError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.controller import AdaptationController
    from repro.executor.pipeline import PipelineRun


def describe_failure(exc: BaseException) -> str:
    """Flatten an exception and its ``__cause__`` chain into one line."""
    parts = []
    seen: set[int] = set()
    current: BaseException | None = exc
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        parts.append(f"{type(current).__name__}: {current}")
        current = current.__cause__ or current.__context__
    return " <- ".join(parts)


class SandboxedController:
    """Wraps an adaptation controller; implements the same hooks protocol."""

    def __init__(self, inner: "AdaptationController") -> None:
        self.inner = inner
        self.pipeline: "PipelineRun | None" = None
        self.disabled = False
        self.failure: BaseException | None = None

    # Delegate the controller surface the facade reads.
    @property
    def inner_checks(self) -> int:
        return self.inner.inner_checks

    @property
    def driving_checks(self) -> int:
        return self.inner.driving_checks

    @property
    def check_seconds(self) -> float:
        return self.inner.check_seconds

    def attach(self, pipeline: "PipelineRun") -> None:
        self.pipeline = pipeline
        self.inner.attach(pipeline)

    # ------------------------------------------------------------------
    # Sandboxed hook dispatch
    # ------------------------------------------------------------------
    def _degrade(self, exc: BaseException, position: int) -> None:
        pipeline = self.pipeline
        assert pipeline is not None
        self.disabled = True
        self.failure = exc
        order = tuple(pipeline.order)
        pipeline.events.append(
            AdaptationEvent(
                kind=EventKind.DEGRADED,
                driving_rows_produced=pipeline.driving_rows_total,
                old_order=order,
                new_order=order,
                estimated_current_cost=0.0,
                estimated_new_cost=0.0,
                position=position,
                reason=describe_failure(exc),
            )
        )

    def on_suffix_depleted(self, position: int) -> None:
        if self.disabled or self.pipeline is None:
            return
        order_before = tuple(self.pipeline.order)
        try:
            self.inner.on_suffix_depleted(position)
        except Exception as exc:
            if tuple(self.pipeline.order) != order_before:
                raise ExecutionError(
                    "adaptive layer failed mid-mutation during an inner "
                    f"reorder at position {position}; cannot degrade safely"
                ) from exc
            self._degrade(exc, position)

    def on_pipeline_depleted(self) -> bool:
        if self.disabled or self.pipeline is None:
            return False
        pipeline = self.pipeline
        order_before = tuple(pipeline.order)
        scan_before = pipeline.scan
        try:
            return self.inner.on_pipeline_depleted()
        except Exception as exc:
            if (
                tuple(pipeline.order) != order_before
                or pipeline.scan is not scan_before
            ):
                raise ExecutionError(
                    "adaptive layer failed mid-mutation during a driving "
                    "switch; cannot degrade safely"
                ) from exc
            self._degrade(exc, position=0)
            return False
