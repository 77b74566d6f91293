"""Where a warm grid pass spends its wall clock, layer by layer.

One pass is every statement of a template grid through
``Database.execute(sql, config)`` on a columnar database (the engine: what
``benchmarks/e2e`` runs). ``perf_counter`` wrappers
around the layers named in :data:`LAYERS` give each one's milliseconds a
pass and its share of the pass; "other" is what no wrapper covers. Two
static passes come first and are not reported (plan cache, kernels, rank
arrays). In a monitored mode the executions of a text are not alike —
the first asks at the end of its scan and writes what it learned, every
later one runs that lesson as a static plan — so executions 1 and 2+ are
reported apart, each with its checks, applied switches and the executions
that ran a learned plan; the layer table is of 2+. The
wrappers cost a few microseconds a call, so read the numbers
against another run of this script, not against an unwrapped pass. A
ledger, not a gate: no thresholds.

Usage::

    PYTHONPATH=src python scripts/layer_times.py --grid six --mode none
"""

from __future__ import annotations

import argparse
from statistics import median
from time import perf_counter

from repro import AdaptiveConfig, Database, ReorderMode
from repro.core.controller import AdaptationController
from repro.dmv import four_table_workload, load_dmv, six_table_workload
from repro.executor import vector
from repro.executor.pipeline import PipelineExecutor

LAYERS = [
    (Database, "_plan_sql"),
    (PipelineExecutor, "__init__"),
    (vector, "_adaptive_plan"),
    (vector, "_driving_walk"),
    (vector, "_expand"),
    (vector, "_project"),
    (AdaptationController, "on_suffix_depleted"),
    (AdaptationController, "on_pipeline_depleted"),
]


def timed(function, spent: dict, name: str):
    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            spent[name] += perf_counter() - start

    return wrapper


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", choices=("four", "six"), default="six")
    parser.add_argument("--mode", choices=("none", "both"), default="none")
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--passes", type=int, default=9)
    args = parser.parse_args()

    workload = (
        four_table_workload(queries_per_template=10**9)
        if args.grid == "four"
        else six_table_workload(count=10**9)
    )
    sqls = [query.sql for query in workload]
    config = AdaptiveConfig(mode=ReorderMode(args.mode))
    db, _ = load_dmv(scale=args.scale, extended=True, backend="columnar")
    spent: dict[str, float] = {}
    for owner, name in LAYERS:
        label = f"{owner.__name__.rsplit('.', 1)[-1]}.{name}"
        spent[label] = 0.0
        setattr(owner, name, timed(getattr(owner, name), spent, label))

    def one_pass(config) -> tuple[dict, tuple]:
        """``({layer: seconds}, (rows, checks, switches, learned runs))``."""
        for label in spent:
            spent[label] = 0.0
        rows = checks = switches = learned = 0
        start = perf_counter()
        for sql in sqls:
            result = db.execute(sql, config)
            rows += len(result.rows)
            checks += result.stats.inner_checks + result.stats.driving_checks
            switches += result.stats.total_switches
            learned += result.stats.plan_feedback is not None
        wall = perf_counter() - start
        layers = {**spent, "other": wall - sum(spent.values()), "pass": wall}
        return layers, (rows, checks, switches, learned)

    for _ in range(2):
        one_pass(AdaptiveConfig(mode=ReorderMode.NONE))
    learning = 1 if config.mode.monitors else 0
    measured = [one_pass(config) for _ in range(args.passes + learning)]
    warm = measured[learning:]
    fastest = min(warm, key=lambda one: one[0]["pass"])
    passes = [layers for layers, _ in warm]
    best = fastest[0]
    print(
        f"{args.grid}-table grid, mode {args.mode}, scale {args.scale}: "
        f"{len(sqls)} statements, {fastest[1][0]} rows a pass, "
        f"{len(passes)} warm passes"
    )
    hooks = [label for label in spent if ".on_" in label]
    print(
        f"{'execution':<12}{'pass ms':>9}{'hooks ms':>10}{'_expand ms':>12}"
        f"{'checks':>8}{'switches':>10}{'learned':>9}"
    )
    names = [str(number + 1) for number in range(learning)] + [f"{learning + 1}+"]
    for name, (layers, (_, checks, switches, learned)) in zip(
        names, measured[:learning] + [fastest]
    ):
        print(
            f"{name:<12}{layers['pass'] * 1e3:>9.1f}"
            f"{sum(layers[label] for label in hooks) * 1e3:>10.1f}"
            f"{layers['vector._expand'] * 1e3:>12.1f}"
            f"{checks:>8d}{switches:>10d}{learned:>9d}"
        )
    print(f"{'layer':<42}{'min ms':>9}{'median ms':>11}{'share':>8}")
    for label in best:
        low = min(layers[label] for layers in passes)
        mid = median(layers[label] for layers in passes)
        share = best[label] / best["pass"]  # within the fastest pass
        print(f"{label:<42}{low * 1e3:>9.1f}{mid * 1e3:>11.1f}{share:>8.1%}")


if __name__ == "__main__":
    main()
