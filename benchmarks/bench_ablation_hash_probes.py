"""Ablation — pipelined hash probes (the Sec 6 hash-join extension).

The paper argues indexed NLJN is the pipelined method of choice because of
its tiny memory footprint, and notes the reordering technique "can be
extended to pipelined hash joins as well". Here an inner leg with no index
on any available join column is hash-probed: no option chooses it, the
schema does. So the trade-off is measured on two twin databases that
differ in one index and run the same plan (Owner drives, Demo is probed):

* ``Demo.ownerid`` unindexed — one O(|T|) hash build over the rows passing
  Demo's locals, then one bucket lookup per outer row;
* ``Demo.ownerid`` indexed — index NLJN: one index descend per outer row,
  no memory held beyond the index.

Both run through ``Database.execute`` on both stores: the row store's
oracle and the columnar engine, which probes the same buckets through a
columnar build of them and must charge the oracle's work field by field.
The wall column is the fastest of :data:`REPEATS` executions of the plan.

Shape: the two land within a small factor of each other in work; the hash
probe pays for it with one build entry held in memory per qualifying row.
The probe this replaced on an unindexed column, a full scan per outer row,
cost 555.9x the hash probe's work on this workload (EXPERIMENTS.md,
"Ablations") and is gone.
"""

import dataclasses
import random

from conftest import emit_report

from repro import AdaptiveConfig, Database, ReorderMode
from repro.bench import format_table

STATIC = AdaptiveConfig(mode=ReorderMode.NONE)
#: Executions per (twin, store); the wall column is the fastest.
REPEATS = 7


def build_twin(
    indexed: bool, backend: str = "row", owners: int = 3000, seed: int = 23
) -> Database:
    rng = random.Random(seed)
    db = Database(backend=backend)
    db.create_table("Owner", [("id", "int"), ("name", "string"), ("country", "string")])
    db.create_table("Demo", [("ownerid", "int"), ("salary", "int")])
    db.insert(
        "Owner", [(i, f"n{i}", rng.choice(["DE", "US", "FR"])) for i in range(owners)]
    )
    db.insert("Demo", [(i, 20_000 + rng.randrange(80_000)) for i in range(owners)])
    db.create_index("Owner", "id")
    db.create_index("Owner", "country")
    if indexed:
        db.create_index("Demo", "ownerid")
    db.analyze()
    return db


SQL = (
    "SELECT o.name, d.salary FROM Owner o, Demo d "
    "WHERE o.id = d.ownerid AND o.country = 'DE' AND d.salary < 70000"
)


def run_twins():
    """``{(twin, store): (engine, WorkMeter, fastest wall seconds)}``."""
    results = {}
    reference = None
    for label, indexed in [("unindexed", False), ("indexed", True)]:
        for backend in ("row", "columnar"):
            db = build_twin(indexed, backend)
            plan = db.plan(SQL).with_order(("o", "d"))  # Demo is the probed leg
            runs = [db.execute(plan, STATIC) for _ in range(REPEATS)]
            first = runs[0]
            rows = sorted(first.rows)
            if reference is None:
                reference = rows
            assert rows == reference, f"{label} {backend} changed the result"
            results[label, backend] = (
                first.stats.engine,
                first.stats.work,
                min(run.stats.wall_seconds for run in runs),
            )
    return results


def test_hash_probe_ablation(benchmark):
    results = benchmark.pedantic(run_twins, rounds=1, iterations=1)
    index_work = results["indexed", "row"][1].total_units
    rows = [
        (
            f"Demo.ownerid {label}",
            backend,
            engine,
            "hash probe" if work.hash_probes else "index NLJN",
            f"{work.total_units:,.0f}",
            f"{work.total_units / index_work:.2f}x",
            f"{work.hash_build_entries:,d}",
            f"{wall * 1000:.2f}",
        )
        for (label, backend), (engine, work, wall) in results.items()
    ]
    emit_report(
        "ablation_hash_probes",
        format_table(
            [
                "twin", "store", "engine", "probe", "total work",
                "vs index NLJN", "rows held in memory", "wall ms (min of 7)",
            ],
            rows,
            title="Ablation — hash probe vs index NLJN on twin databases",
        ),
    )
    for label in ("unindexed", "indexed"):
        oracle, engine = results[label, "row"], results[label, "columnar"]
        # The engine runs the hash probe too, at the oracle's work.
        assert (oracle[0], engine[0]) == ("scalar", "vector"), label
        assert dataclasses.asdict(engine[1]) == dataclasses.asdict(oracle[1])
    hashed, nljn = results["unindexed", "row"][1], results["indexed", "row"][1]
    assert hashed.hash_probes > 0 and hashed.hash_build_entries > 0
    assert nljn.hash_probes == 0 and nljn.hash_build_entries == 0
    assert nljn.index_descends > 0
    # Neither probe method is in another league: the full scan per outer
    # row that an unindexed column used to mean was.
    assert hashed.total_units < 5 * nljn.total_units
    assert nljn.total_units < 5 * hashed.total_units
