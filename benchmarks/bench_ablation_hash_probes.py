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

Shape: the two land within a small factor of each other in work; the hash
probe pays for it with one build entry held in memory per qualifying row.
The probe this replaced on an unindexed column, a full scan per outer row,
cost 555.9x the hash probe's work on this workload (EXPERIMENTS.md,
"Ablations") and is gone.
"""

import random

from conftest import emit_report

from repro import AdaptiveConfig, Database, ReorderMode
from repro.bench import format_table
from repro.executor.pipeline import PipelineExecutor


def build_twin(indexed: bool, owners: int = 3000, seed: int = 23) -> Database:
    rng = random.Random(seed)
    db = Database()
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
    results = {}
    reference = None
    for label, indexed in [("unindexed", False), ("indexed", True)]:
        db = build_twin(indexed)
        plan = db.plan(SQL).with_order(("o", "d"))  # Demo is the probed leg
        executor = PipelineExecutor(
            plan, db.catalog, AdaptiveConfig(mode=ReorderMode.NONE)
        )
        rows = sorted(executor.run_to_completion())
        if reference is None:
            reference = rows
        assert rows == reference, f"{label} changed the result"
        results[label] = executor.work
    return results


def test_hash_probe_ablation(benchmark):
    results = benchmark.pedantic(run_twins, rounds=1, iterations=1)
    index_work = results["indexed"].total_units
    rows = [
        (
            f"Demo.ownerid {label}",
            "hash probe" if work.hash_probes else "index NLJN",
            f"{work.total_units:,.0f}",
            f"{work.total_units / index_work:.2f}x",
            f"{work.hash_build_entries:,d}",
        )
        for label, work in results.items()
    ]
    emit_report(
        "ablation_hash_probes",
        format_table(
            ["twin", "probe", "total work", "vs index NLJN", "rows held in memory"],
            rows,
            title="Ablation — hash probe vs index NLJN on twin databases",
        ),
    )
    hashed, nljn = results["unindexed"], results["indexed"]
    assert hashed.hash_probes > 0 and hashed.hash_build_entries > 0
    assert nljn.hash_probes == 0 and nljn.hash_build_entries == 0
    assert nljn.index_descends > 0
    # Neither probe method is in another league: the full scan per outer
    # row that an unindexed column used to mean was.
    assert hashed.total_units < 5 * nljn.total_units
    assert nljn.total_units < 5 * hashed.total_units
