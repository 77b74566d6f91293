"""Debug-mode invariant oracles: machine-checkable adaptation safety.

The paper's two correctness claims are structural:

* inner-leg permutation fires only in a *depleted state* — every leg at a
  position >= the permutation point has exhausted its match iterator
  (Sec 4.1, Fig 2);
* driving-leg switches never duplicate or drop output rows, because frozen
  scan positions plus positional predicates partition each table's rows
  between "already joined" and "still to come" (Sec 4.2, Fig 3).

An :class:`InvariantOracle` attached to a run of either machine
(:class:`~repro.executor.pipeline.PipelineRun`) turns both claims into
runtime assertions. The executor shadows its control state into the
oracle: it maintains ``depleted_from`` (the smallest position whose suffix
is currently depleted) and, in oracle mode, tracks the RID of every bound
row so each emitted result is identified by its **RID tuple** — the
(alias, rid) pairs of the joined rows, invariant under any reordering.
A repeated RID tuple is a duplicate by construction and raises
:class:`~repro.errors.OracleViolation` at the emit site; comparing two
executions' RID-tuple multisets (:meth:`diff_against`) additionally
catches *missing* rows, which no single execution can see on its own.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Sequence

from repro.errors import OracleViolation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.executor.pipeline import PipelineRun

# An emitted row's identity: ((alias, rid), ...) sorted by alias, so the
# signature is stable across driving switches and inner reorders.
Signature = tuple[tuple[str, int], ...]


class InvariantOracle:
    """Shadow checker for one pipeline execution."""

    def __init__(self) -> None:
        self.signatures: Counter[Signature] = Counter()
        self.emits = 0
        self.inner_reorders_checked = 0
        self.driving_switches_checked = 0

    # ------------------------------------------------------------------
    # Depleted-state preconditions (checked before any mutation applies)
    # ------------------------------------------------------------------
    def check_inner_reorder(
        self, pipeline: "PipelineRun", position: int, new_suffix: Sequence[str]
    ) -> None:
        """Assert the Fig 2 precondition for a suffix permutation."""
        self.inner_reorders_checked += 1
        depleted_from = pipeline.depleted_from
        if depleted_from is None or depleted_from > position:
            raise OracleViolation(
                f"inner reorder at position {position} outside a depleted "
                f"state (depleted suffix starts at {depleted_from}); "
                f"proposed suffix {list(new_suffix)}"
            )
        if position < 1:
            raise OracleViolation(
                "inner reorder may not include the driving leg (position 0)"
            )

    def check_driving_switch(self, pipeline: "PipelineRun") -> None:
        """Assert the Fig 3 precondition: the whole pipeline is depleted."""
        self.driving_switches_checked += 1
        if pipeline.depleted_from != 0:
            raise OracleViolation(
                "driving switch attempted while the pipeline is not fully "
                f"depleted (depleted suffix starts at {pipeline.depleted_from})"
            )

    # ------------------------------------------------------------------
    # Output-row identity tracking
    # ------------------------------------------------------------------
    def record_emit(self, rid_binding: dict[str, int]) -> None:
        """Record one emitted row; raise on a duplicate RID tuple."""
        signature: Signature = tuple(sorted(rid_binding.items()))
        self.emits += 1
        self.signatures[signature] += 1
        if self.signatures[signature] > 1:
            raise OracleViolation(
                f"duplicate output row {signature!r}: the same RID "
                "combination was emitted twice (driving-switch duplicate "
                "prevention failed)"
            )

    def diff_against(self, reference: "InvariantOracle") -> str | None:
        """Compare RID-tuple multisets; None when identical.

        *reference* is typically a ``ReorderMode.NONE`` execution of the
        same plan. Rows present here but not in the reference are
        duplicates/phantoms; rows only in the reference are missing.
        """
        extra = self.signatures - reference.signatures
        missing = reference.signatures - self.signatures
        if not extra and not missing:
            return None
        parts = []
        if extra:
            parts.append(f"{sum(extra.values())} unexpected row(s)")
        if missing:
            parts.append(f"{sum(missing.values())} missing row(s)")
        samples = list(extra) + list(missing)
        return ", ".join(parts) + f"; e.g. {samples[0]!r}"
