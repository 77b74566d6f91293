"""Pipelined hash probes — the Sec 6 hash-join extension.

The paper closes with: "Although we focused our adaptive join reordering on
nested-loop joins, it is not difficult to see that this technique can be
extended to pipelined hash joins as well." This module implements that
extension: an inner leg with an available join predicate but no index on
any available join column is probed through an in-memory hash table on
its most selective available join column. That is what an unindexed join
column means, on both stores; no option chooses it (the full scan per
probe it replaced cost 556x the work, EXPERIMENTS.md "Ablations"). This
class is the oracle's table, on the row store; the engine probes the same
buckets through a columnar build of them
(:meth:`~repro.storage.columnar.ColumnarTable.hash_build`) and charges the
same work, the build included (:class:`repro.executor.vector._Probe`).

The hash table is built lazily on the leg's first probe, over the rows that
satisfy the leg's **local** predicates only. Positional predicates (the
driving-switch duplicate preventers) and residual join predicates are
evaluated per probe, never baked into the table — they change as the
pipeline adapts, while the build is immutable. Because the build keys on a
column, one build is reused across inner reorders and driving switches as
long as the leg's access column stays the same; a different access column
triggers a new build.

All the safe-point reasoning is unchanged: a hash-probed leg is depleted
exactly when its match list for the current outer row is drained, so
inner reordering and driving switching work identically (and are tested
against the same chaos schedules as the NLJN path).

Work accounting: each build entry charges a row fetch (reading the heap),
the local-predicate evaluations, and a ``HASH_BUILD_ENTRY``; each probe
charges one ``HASH_PROBE`` plus a ``HASH_MATCH`` per row in the bucket.
"""

from __future__ import annotations

from typing import Any

from repro.storage.counters import WorkMeter
from repro.storage.table import HeapTable, Row


class HashProbeTable:
    """An immutable hash table over one column of a (locally filtered) table."""

    def __init__(
        self,
        table: HeapTable,
        column: str,
        local_tests: list,
        meter: WorkMeter,
        local_counts: list | None = None,
    ) -> None:
        self.table = table
        self.column = column
        self._buckets: dict[Any, list[tuple[int, Row]]] = {}
        self.build_entries = 0
        self._build(local_tests, meter, local_counts)

    def _build(
        self, local_tests: list, meter: WorkMeter, local_counts: list | None
    ) -> None:
        slot = self.table.schema.position_of(self.column)
        for rid, row in enumerate(self.table.raw_rows()):
            meter.charge_row_fetch()
            passed_all = True
            for index, (_, test) in enumerate(local_tests):
                meter.charge_predicate_eval()
                passed = test(row)
                if local_counts is not None:
                    # Build-time counts are *table-wide* (unbiased by the
                    # join population) — strictly better input for the
                    # controller's leg-cardinality estimates.
                    counts = local_counts[index]
                    counts[0] += 1
                    counts[1] += 1 if passed else 0
                if not passed:
                    passed_all = False
                    break
            if not passed_all:
                continue
            key = row[slot]
            if key is None:
                continue  # NULL never matches an equi-join
            self._buckets.setdefault(key, []).append((rid, row))
            self.build_entries += 1
        meter.charge_hash_build(self.build_entries)

    def probe(self, key: Any, meter: WorkMeter) -> list[tuple[int, Row]]:
        """(rid, row) pairs whose build key equals *key*."""
        faults = self.table.faults
        if faults is not None:
            # The table is immutable once built, so probes are idempotent
            # and transient faults here are always retryable.
            faults.fire("hash-probe")
        matches = self._buckets.get(key, []) if key is not None else []
        meter.charge_hash_probe(len(matches))
        return matches

    def __len__(self) -> int:
        return self.build_entries
