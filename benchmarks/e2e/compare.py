#!/usr/bin/env python3
"""Compare two sets of runs under the bounds BENCHMARK.json fixes.

    python3 benchmarks/e2e/compare.py A.json B.json

A and B are set files written by ``run.py --repeat N --out FILE`` (A the
parent, B the change). One row per (workload, end-to-end metric) with both
medians and quartiles and a verdict:

* ``worse``      B's median is worse than A's by more than the bound;
* ``unresolved`` the run-to-run spread of either side is wider than the
                 bound, so the medians cannot settle the question;
* ``ok``         otherwise.

Counts that must repeat exactly (work units, checks, switches, storage
actions per query) are compared between traced runs of the same workload
and seed. Exit code 1 on any ``worse`` or on more failed operations.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from estimators import median, quartiles

ROOT = Path(__file__).resolve().parents[2]
EXACT_PREFIXES = ("core.", "storage.index", "storage.row", "storage.pred")
EXACT_NAMES = ("executor.work_units_per_query", "executor.rows_per_query")


def by_workload(runs, kind) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = {}
    for run in runs:
        if run["kind"] == kind:
            grouped.setdefault(run["workload"], []).append(run)
    return grouped


def summary(runs, name) -> tuple[float, float, float]:
    values = [run["metrics"][name]["value"] for run in runs]
    if len(values) < 2:
        return values[0], values[0], values[0]
    return quartiles(values)


def failed_share(runs) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def is_exact(name: str) -> bool:
    exact = name.startswith(EXACT_PREFIXES) or name in EXACT_NAMES
    return exact and not name.endswith("elapsed_vs_static")


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = (json.loads(Path(path).read_text())["runs"] for path in argv)
    bad = False

    # The host's speed during each set, which the values are adjusted for.
    factors = [median(run["host"]["speed_factor"] for run in runs) for runs in (a, b)]
    print(f"host speed factor, median: A {factors[0]:.3f}, B {factors[1]:.3f}")
    a_runs, b_runs = by_workload(a, "end_to_end"), by_workload(b, "end_to_end")
    print(f"{'workload':14s} {'metric':14s} {'A q1':>10s} {'A median':>10s} "
          f"{'A q3':>10s} {'B q1':>10s} {'B median':>10s} {'B q3':>10s} "
          f"{'change':>8s} {'bound':>6s} verdict")
    for workload in a_runs:  # also workloads that were run by name
        if workload not in b_runs:
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a1, a2, a3 = summary(a_runs[workload], name)
            b1, b2, b3 = summary(b_runs[workload], name)
            change = b2 / a2 - 1.0
            worsening = -change if metric["better"] == "higher" else change
            if worsening > bound:
                verdict, bad = "worse", True
            elif max((a3 - a1) / a2, (b3 - b1) / b2) > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:14s} {name:14s} {a1:10.4g} {a2:10.4g} {a3:10.4g} "
                  f"{b1:10.4g} {b2:10.4g} {b3:10.4g} {change:+8.1%} "
                  f"{bound:6.0%} {verdict}")
        share_a = failed_share(a_runs[workload])
        share_b = failed_share(b_runs[workload])
        verdict = "worse" if share_b > share_a else "ok"
        bad |= share_b > share_a
        print(f"{workload:14s} {'failed_share':14s} {'':10s} {share_a:10.4g} "
              f"{'':21s} {share_b:10.4g} {'':27s} {verdict}")

    a_traced = {(r["workload"], r["seed"]): r for r in a if r["kind"] == "trace"}
    for run in b:
        twin = a_traced.get((run["workload"], run["seed"]))
        if run["kind"] != "trace" or twin is None:
            continue
        differing = [
            f"{name} {twin['metrics'][name]['value']:g} -> {metric['value']:g}"
            for name, metric in run["metrics"].items()
            if is_exact(name) and metric["value"] != twin["metrics"][name]["value"]
        ]
        print(f"{run['workload']:14s} seed {run['seed']}: exact counts "
              + ("identical" if not differing else "DIFFER: " + "; ".join(differing)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
