"""Frozen scan positions and duplicate prevention (Sec 4.2).

When the driving leg is switched, the outgoing driving table's scan position
is *frozen*. From then on:

* whenever that table serves as an **inner leg**, every candidate row must
  lie strictly *after* the frozen position in the original scan order — the
  paper's added local predicate ``key > v OR (key = v AND rid > r)``
  (index-scan order) or ``rid > r`` (table-scan order);
* whenever it becomes the **driving leg again**, its retained scan resumes
  from the frozen position instead of restarting.

A scan is whatever the machine reads its driving leg through: a storage
cursor on the row store's scalar machine, the engine's driving walk
(:class:`repro.executor.vector._DrivingWalk`) on the columnar store. The
registry asks a scan only its ``order`` and ``last_position``, and keeps
the scan itself to hand back when the leg drives again.

Correctness invariant (DESIGN.md Sec 4): with ``P(T)`` the frozen position
of every previously-driving table (unbounded for the rest), the un-emitted
result set is always ``⋈ of { rows of T after P(T) }``. Each driving phase
emits one "slab" — the cross product of the driving table's newly scanned
positions with the other tables' after-P(T) remainders — and advances
exactly one ``P(T)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.query.predicates import PositionalPredicate
from repro.storage.cursor import Position, ScanOrder


@dataclass
class FrozenScan:
    """A previously-driving leg's frozen state."""

    order: ScanOrder
    position: Position
    scan: Any


class PositionRegistry:
    """Tracks the frozen scan of every table that has ever driven."""

    def __init__(self) -> None:
        self._frozen: dict[str, FrozenScan] = {}
        self.switch_count = 0

    def freeze(self, alias: str, scan: Any) -> None:
        """Freeze *alias*'s driving *scan* at its current position.

        A leg that never produced a row freezes at "before everything",
        which the positional predicate represents as ``None`` (no
        restriction) — handled in :meth:`predicate_for`.
        """
        position = scan.last_position
        self._frozen[alias] = FrozenScan(
            order=scan.order,
            position=() if position is None else position,
            scan=scan,
        )
        self.switch_count += 1

    def predicate_for(self, alias: str) -> PositionalPredicate | None:
        """The duplicate-prevention predicate for *alias* as an inner leg."""
        frozen = self._frozen.get(alias)
        if frozen is None or not frozen.position:
            # Never driving, or froze before its first row: nothing emitted,
            # nothing to exclude.
            return None
        return PositionalPredicate(order=frozen.order, after=frozen.position)

    def frozen_scan(self, alias: str) -> FrozenScan | None:
        return self._frozen.get(alias)

    def resume_scan(self, alias: str) -> Any:
        """The retained scan of *alias*, if it drove before (else None)."""
        frozen = self._frozen.get(alias)
        return frozen.scan if frozen is not None else None
