"""The host's speed during a run, from a fixed loop timed between the passes.

The VM this benchmark runs on changes speed by 15-40% for minutes at a time
(neighbours on the same processor), and everything slows together: the
loop below, a static pass and an adaptive pass kept their ratios to 1-3%
through such shifts (README.md, "Host-speed adjustment"). Ten runs of the
same code therefore measure the host's levels unless each run also
measures the host. The loop is half interpreter work and half numpy calls
on arrays of the sizes the engine handles, and touches no engine code.
"""

from __future__ import annotations

import time

import numpy as np

from estimators import median

#: What one turn of the loop takes at the speed times are reported at (the
#: usual level of the 2-vCPU VM the baseline in README.md was taken on).
NOMINAL_S = 0.060


class HostSpeed:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.base = np.sort(rng.integers(0, 10**6, 300_000))
        self.keys = rng.integers(0, 10**6, 50_000)
        self.seconds: list[float] = []
        self._turn()  # first touch of the pages and numpy's lazy set-up

    def _turn(self) -> None:
        counts: dict[int, int] = {}
        for i in range(250_000):
            key = i & 1023
            counts[key] = counts.get(key, 0) + i
        base, keys = self.base, self.keys
        for _ in range(3):
            found = base.take(np.searchsorted(base, keys) % len(base))
            np.repeat(keys[(found & 7) == 3], 3).cumsum()
        few = keys[:64]
        for _ in range(600):
            np.flatnonzero((few + 1) & 1)

    def sample(self, turns: int = 1) -> None:
        for _ in range(turns):
            start = time.perf_counter()
            self._turn()
            self.seconds.append(time.perf_counter() - start)

    def factor(self) -> float:
        """How slow the host ran, against the nominal speed: measured times
        divided by it (rates multiplied) are what the nominal host shows."""
        return median(self.seconds) / NOMINAL_S
