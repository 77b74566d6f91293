"""Estimators shared by the benchmark runner and ``compare.py``.

Kept free of ``repro`` imports so ``run.py --selftest`` and ``compare.py``
work without the engine on the path.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Mapping, Sequence

#: A percentile is reported only with this many samples beyond it
#: (choosing-metrics guide, section 1): p95 therefore needs 200 samples.
MIN_BEYOND = 10


def median(values: Iterable[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; refuses when fewer than MIN_BEYOND samples
    lie beyond it, because the estimate would rest on a handful of points."""
    n = len(values)
    if n * (1.0 - q) < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} needs {math.ceil(MIN_BEYOND / (1.0 - q))} samples "
            f"({MIN_BEYOND} beyond it), got {n}"
        )
    return sorted(values)[math.ceil(q * n) - 1]


def pooled_percentile(groups: Sequence[Sequence[float]], q: float) -> float:
    """Nearest-rank percentile of all samples with every group weighing the
    same, however many samples it happens to hold (with groups of one size
    it is ``percentile`` of the pooled samples); refuses like ``percentile``."""
    n = sum(len(group) for group in groups)
    if n * (1.0 - q) < MIN_BEYOND:
        raise ValueError(f"p{q * 100:g} needs {MIN_BEYOND} samples beyond it, got {n}")
    weighted = sorted(
        (value, 1.0 / len(group)) for group in groups for value in group
    )
    reached, wanted = 0.0, q * len(groups) - 1e-9
    for value, weight in weighted:
        reached += weight
        if reached >= wanted:
            break
    return value


def throughput(latencies_by_statement: Sequence[Sequence[float]]) -> float:
    """Statements per second from each statement's *median* latency.

    One scheduler spike lands in one sample of one statement, and that
    statement's median over the passes ignores it; a plain
    statements / wall would carry every spike into the result.
    """
    return len(latencies_by_statement) / sum(
        statistics.median(samples) for samples in latencies_by_statement
    )


def self_times(spans: Sequence[Mapping]) -> dict[int, float]:
    """Self time of each span: its duration minus its children's.

    Spans are ``{"id", "parent", "start", "end", ...}``; children of one
    span do not overlap each other (the runner records them in sequence).
    """
    own = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's rule)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def selftest() -> None:
    # Per-statement median sum: the 1.0 s spike on statement 0 is ignored.
    assert throughput([[0.010, 1.0, 0.010], [0.030, 0.030, 0.030]]) == 2 / 0.040
    # Percentile needs ten samples beyond it.
    values = [float(i) for i in range(1, 201)]
    assert percentile(values, 0.95) == 190.0
    assert percentile(values, 0.5) == 100.0
    try:
        percentile(values[:199], 0.95)
    except ValueError:
        pass
    else:
        raise AssertionError("p95 of 199 samples must be refused")
    # Pooled percentile: equal groups give the plain percentile; a group
    # sampled twice as often does not count twice.
    groups = [values[i::4] for i in range(4)]
    assert pooled_percentile(groups, 0.95) == 190.0
    assert pooled_percentile(groups, 0.5) == 100.0
    uneven = [[1.0] * 30, [2.0] * 10]
    assert percentile(uneven[0] + uneven[1], 0.5) == 1.0
    assert pooled_percentile(uneven, 0.5) == 1.0
    assert pooled_percentile(uneven, 0.51) == 2.0
    # Self time: parent minus children, grandchildren charged to the child.
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 3.0},
        {"id": 2, "parent": 0, "start": 3.0, "end": 9.0},
        {"id": 3, "parent": 2, "start": 4.0, "end": 8.0},
    ]
    assert self_times(spans) == {0: 2.0, 1: 2.0, 2: 2.0, 3: 4.0}
    assert sum(self_times(spans).values()) == 10.0
    assert spread([10.0] * 10) == 0.0
    assert abs(spread([9, 9, 9, 10, 10, 10, 10, 11, 11, 11]) - 0.2) < 1e-9
