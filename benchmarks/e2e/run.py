#!/usr/bin/env python3
"""The repository's benchmark: end-to-end wall-clock for static vs adaptive
execution, through the library and through ``repro serve``.

One run (what the driver calls; the last stdout line is the result)::

    python3 benchmarks/e2e/run.py --workload six_static --seed 2007 \
        --seconds 30 --trace 0

A set of runs, each in a fresh process, written to one file for
``compare.py`` (no ``--workload`` means every workload of BENCHMARK.json)::

    python3 benchmarks/e2e/run.py --repeat 10 --out benchmarks/e2e/out/a.json

Also ``--smoke`` (every workload at scale 0.02, names checked against
BENCHMARK.json), ``--selftest`` (estimators) and ``--write-expected``
(oracle results for the whole template grid). See README.md.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import estimators

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: What the driver runs, and what a set runs when no workload is named.
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
#: Runnable by name only: the four-table grid is not in BENCHMARK.json,
#: because the driver's time limit buys three workloads at 30 s a run or
#: five at 17 s, and short runs spread past the bounds on this kind of host
#: (see README.md).
BY_NAME_ONLY = ["four_static", "four_adaptive"]
NAME_RULE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SCALE = 0.1
SMOKE_SCALE = 0.02


def at_nominal_speed(value: float, unit: str, factor: float) -> float:
    """A time or a rate as the nominal host would show it (hostspeed.py)."""
    if unit in ("s", "ms", "ns"):
        return value / factor
    return value * factor if unit == "1/s" else value


def host_metadata() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
    }


def record_path(workload: str, seed: int, trace: int) -> Path:
    return OUT / f"{workload}.seed{seed}.trace{trace}.json"


def run_one(args) -> int:
    """One workload in this process; prints the metrics and, as the last
    line, the result object the driver reads."""
    import hostspeed
    import library
    import oracle
    import served

    import_s = time.perf_counter() - PROCESS_START
    speed = hostspeed.HostSpeed()
    OUT.mkdir(exist_ok=True)
    kind = "trace" if args.trace else "end_to_end"
    spec = SPEC["per_layer" if args.trace else "end_to_end"]
    expected = oracle.load(library.every_statement(), args.scale)
    common = (args.seed, args.seconds, args.scale, expected, speed)
    try:
        if args.workload == "served_mix":
            run = served.run_traced if args.trace else served.run_untraced
            result = run(*common, SRC, OUT)
        elif args.trace:
            result = library.run_traced(args.workload, *common)
        else:
            result = library.run_untraced(args.workload, *common, import_s)
    except served.ServerFailed as error:
        # A child that dies or never listens fails every request it was due.
        print(f"served_mix: {error}", file=sys.stderr)
        due = len(served.pairs())
        result = {"metrics": {}, "attempted": due, "failed": due, "counts": {}}

    factor = speed.factor() if speed.seconds else 1.0  # none: the child failed
    spans = result.pop("spans", None)
    if spans is not None:
        with open(OUT / f"{args.workload}.trace.jsonl", "w") as sink:
            for span in spans:
                sink.write(json.dumps(span) + "\n")
    # A layer the workload does not pass through reports 0.
    metrics = {
        metric["name"]: {
            "value": at_nominal_speed(
                result["metrics"].get(metric["name"], 0.0), metric["unit"], factor
            ),
            "unit": metric["unit"],
        }
        for metric in spec
    }
    unknown = set(result["metrics"]) - set(metrics)
    if unknown:
        raise SystemExit(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "kind": kind,
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "counts": result["counts"],
        "metrics": metrics,
        "host": {
            **host_metadata(),
            "speed_factor": factor,
            "speed_samples": len(speed.seconds),
        },
    }
    record_path(args.workload, args.seed, args.trace).write_text(
        json.dumps(record, indent=1) + "\n"
    )

    print(f"# {args.workload} seed={args.seed} scale={args.scale:g} {kind} "
          f"{json.dumps(result['counts'])}")
    print(f"# host speed factor {factor:.4f} over {len(speed.seconds)} samples: "
          f"times are as measured / factor, rates as measured x factor")
    for name, metric in metrics.items():
        print(f"{name:44s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


def run_set(args, workloads) -> list[dict]:
    """Each run in a fresh process, as the driver does it: ``--repeat``
    end-to-end runs per workload on consecutive seeds, then one traced
    run on the first seed."""
    records = []
    for workload in workloads:
        plan = [(args.seed + i, 0) for i in range(args.repeat)]
        plan.append((args.seed, 1))
        for seed, trace in plan:
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--scale", str(args.scale),
            ]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                raise SystemExit(f"{' '.join(command)} exited {done.returncode}")
            sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
            sys.stdout.flush()
            records.append(json.loads(record_path(workload, seed, trace).read_text()))
    return records


def summarize(records) -> None:
    """Medians and spreads per (workload, metric), and the paper's headline."""
    grouped: dict[tuple[str, str], list[float]] = {}
    for record in records:
        if record["kind"] == "end_to_end":
            for name, metric in record["metrics"].items():
                grouped.setdefault((record["workload"], name), []).append(
                    metric["value"]
                )
    print("# end-to-end medians over the set (spread = IQR / median)")
    for (workload, name), values in grouped.items():
        spread = estimators.spread(values) if len(values) > 1 else float("nan")
        print(f"{workload:14s} {name:16s} {estimators.median(values):12.5g} "
              f"spread {spread:7.2%} n={len(values)}")
    for shape in ("four", "six"):
        static = grouped.get((f"{shape}_static", "queries_per_s"))
        adaptive = grouped.get((f"{shape}_adaptive", "queries_per_s"))
        if static and adaptive:
            ratio = estimators.median(static) / estimators.median(adaptive)
            print(f"# {shape}_adaptive / {shape}_static elapsed: {ratio:.2f}x")


def check_names(records) -> list[str]:
    """Every name printed is one BENCHMARK.json declares, and well-formed."""
    problems = []
    for record in records:
        declared = SPEC["per_layer" if record["kind"] == "trace" else "end_to_end"]
        want = {metric["name"]: metric["unit"] for metric in declared}
        got = {name: m["unit"] for name, m in record["metrics"].items()}
        label = f"{record['workload']} ({record['kind']})"
        if got != want:
            problems.append(f"{label}: names or units differ from BENCHMARK.json")
        problems += [
            f"{label}: bad name {name!r}"
            for name in got if not NAME_RULE.fullmatch(name)
        ]
        if not record["correct"]:
            problems.append(f"{label}: {record['failed']} operations failed")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + BY_NAME_ONLY)
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=SCALE)
    parser.add_argument("--repeat", type=int, help="run a set: N runs per workload")
    parser.add_argument("--out", type=Path, help="set file (default out/set.json)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)

    if args.selftest:
        estimators.selftest()
        print("selftest ok")
        return 0
    if not (SRC / "repro").is_dir():
        print(f"error: no engine to measure at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_expected:
        import library
        import oracle

        print(f"wrote {oracle.write(library.every_statement(), args.scale)}")
        return 0
    if args.workload and not (args.repeat or args.smoke):
        return run_one(args)

    if args.smoke:
        args.scale, args.seconds, args.repeat = SMOKE_SCALE, 1.0, 1
    args.repeat = args.repeat or 1
    started = time.perf_counter()
    if args.workload:
        workloads = [args.workload]
    else:  # the smoke run keeps the by-name workloads from rotting
        workloads = WORKLOADS + (BY_NAME_ONLY if args.smoke else [])
    records = run_set(args, workloads)
    summarize(records)
    OUT.mkdir(exist_ok=True)
    out = args.out or OUT / "set.json"
    out.write_text(json.dumps(
        {"host": host_metadata(), "scale": args.scale, "seed": args.seed,
         "seconds": args.seconds, "runs": records}, indent=1) + "\n")
    print(f"# wrote {out} ({time.perf_counter() - started:.1f} s)")
    if args.smoke:
        problems = check_names(records)
        for problem in problems:
            print(f"smoke: {problem}", file=sys.stderr)
        print("smoke " + ("FAILED" if problems else "ok"))
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
