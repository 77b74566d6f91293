"""Deterministic fault injection and transient-fault retry.

A :class:`FaultPlan` describes *where* and *when* storage or adaptation
operations should fail; compiling it yields a :class:`FaultInjector` whose
``fire(site)`` calls are consulted at fixed trigger points — per row on
the scalar machine, per chunk on the engine
(``BatchedPipelineExecutor.consult``):

==================  ===========================================  ================================
site                scalar machine                               engine: once per
==================  ===========================================  ================================
``index-lookup``    ``SortedIndex.lookup_rids`` (per probe)      index-probed inner leg and chunk
``cursor-advance``  ``__next__`` of both scan cursor classes     chunk the driving walk takes
``hash-probe``      ``HashProbeTable.probe``                     hash-probed inner leg and chunk
``controller``      both checks in ``AdaptationController``      check, as on the scalar one
``monitor``         a probe's monitoring block (``RuntimeLeg``)  monitored inner leg and chunk
==================  ===========================================  ================================

Faults are **transient** (:class:`~repro.errors.TransientStorageError` —
the access layer retries them with exponential backoff) or **permanent**
(:class:`~repro.errors.PermanentStorageError` — never retried). Triggers
are either *nth-call* (fire on exactly the nth consultation of that site,
deterministic) or *probability-per-op* (seeded RNG, deterministic for a
given seed). Every fire is counted, so tests can assert a plan actually
did something instead of passing vacuously.

The injector itself is engine-agnostic: trigger points pass plain string
site names, so the storage layer does not import this module's types.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, TypeVar

from repro.errors import (
    PermanentStorageError,
    StorageError,
    TransientStorageError,
)

KNOWN_SITES = (
    "index-lookup",
    "cursor-advance",
    "hash-probe",
    "controller",
    "monitor",
)

TRANSIENT = "transient"
PERMANENT = "permanent"


@dataclass(frozen=True)
class FaultSpec:
    """One fault trigger: a site, a kind, and when it fires.

    Exactly one of *nth_call* (1-based call number at the site) and
    *probability* (per-consultation chance) must be given. *max_fires*
    bounds how often the spec can fire; nth-call specs default to a single
    fire, probabilistic specs to unlimited.
    """

    site: str
    kind: str = TRANSIENT
    nth_call: int | None = None
    probability: float | None = None
    max_fires: int | None = None

    def __post_init__(self) -> None:
        if self.site not in KNOWN_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; expected one of {KNOWN_SITES}"
            )
        if self.kind not in (TRANSIENT, PERMANENT):
            raise ValueError(
                f"fault kind must be {TRANSIENT!r} or {PERMANENT!r}, "
                f"got {self.kind!r}"
            )
        if (self.nth_call is None) == (self.probability is None):
            raise ValueError(
                "exactly one of nth_call and probability must be set"
            )
        if self.nth_call is not None and self.nth_call < 1:
            raise ValueError("nth_call is 1-based and must be >= 1")
        if self.probability is not None and not 0.0 < self.probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        if self.max_fires is not None and self.max_fires < 1:
            raise ValueError("max_fires must be >= 1")

    @property
    def fire_budget(self) -> float:
        if self.max_fires is not None:
            return self.max_fires
        return 1 if self.nth_call is not None else float("inf")


@dataclass(frozen=True)
class FaultPlan:
    """A seedable, JSON-serialisable collection of fault specs.

    Plans are immutable; :meth:`build` compiles a fresh injector (with its
    own call counters and RNG) so one plan can drive many executions with
    identical behaviour.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse ``{"seed": int, "faults": [{site, kind, ...}, ...]}``."""
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"fault plan is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError("fault plan must be a JSON object")
        unknown = set(raw) - {"seed", "faults"}
        if unknown:
            raise ValueError(f"unknown fault-plan keys: {sorted(unknown)}")
        specs = []
        for entry in raw.get("faults", []):
            if not isinstance(entry, dict):
                raise ValueError("each fault must be a JSON object")
            allowed = {"site", "kind", "nth_call", "probability", "max_fires"}
            bad = set(entry) - allowed
            if bad:
                raise ValueError(f"unknown fault keys: {sorted(bad)}")
            specs.append(FaultSpec(**entry))
        return cls(specs=tuple(specs), seed=int(raw.get("seed", 0)))

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "faults": [
                    {
                        key: value
                        for key, value in (
                            ("site", spec.site),
                            ("kind", spec.kind),
                            ("nth_call", spec.nth_call),
                            ("probability", spec.probability),
                            ("max_fires", spec.max_fires),
                        )
                        if value is not None
                    }
                    for spec in self.specs
                ],
            }
        )

    def build(self) -> "FaultInjector":
        return FaultInjector(self)


class FaultInjector:
    """Run-time state of one plan over one execution: counters + RNG."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        # Seeded on the first probability draw: the same seed, the same
        # draws, and nothing built for a plan that never draws.
        self._rng: random.Random | None = None
        self._calls: dict[str, int] = dict.fromkeys(KNOWN_SITES, 0)
        self._fires_left: list[float] = [s.fire_budget for s in plan.specs]
        # site -> number of faults raised there (for assertions/reports).
        self.fired: dict[str, int] = dict.fromkeys(KNOWN_SITES, 0)

    @property
    def total_fired(self) -> int:
        return sum(self.fired.values())

    def calls(self, site: str) -> int:
        return self._calls[site]

    def fire(self, site: str) -> None:
        """Consult the plan at *site*; raise if a spec triggers.

        Trigger points must call this *before* mutating any state, so a
        raised transient fault leaves the operation retryable.
        """
        self._calls[site] += 1
        count = self._calls[site]
        for slot, spec in enumerate(self.plan.specs):
            if spec.site != site or self._fires_left[slot] <= 0:
                continue
            if spec.nth_call is not None:
                triggered = count == spec.nth_call
            else:
                if self._rng is None:
                    self._rng = random.Random(self.plan.seed)
                triggered = self._rng.random() < (spec.probability or 0.0)
            if not triggered:
                continue
            self._fires_left[slot] -= 1
            self.fired[site] += 1
            message = (
                f"injected {spec.kind} fault at {site!r} (call #{count})"
            )
            if spec.kind == TRANSIENT:
                raise TransientStorageError(message)
            raise PermanentStorageError(message)


T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff for transient storage faults.

    *base_delay* seconds doubles per attempt up to *max_delay*; the sleeper
    is injectable so tests run without real waiting. Retries only
    :class:`~repro.errors.TransientStorageError`; permanent faults and
    non-storage exceptions pass straight through.
    """

    max_attempts: int = 4
    base_delay: float = 0.0005
    max_delay: float = 0.05
    sleep: Callable[[float], None] = field(default=time.sleep)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")

    def delay_for(self, attempt: int) -> float:
        """Backoff before retry number *attempt* (1-based)."""
        return min(self.base_delay * (2 ** (attempt - 1)), self.max_delay)


DEFAULT_RETRY_POLICY = RetryPolicy()


def call_with_retry(
    operation: Callable[[], T],
    policy: RetryPolicy = DEFAULT_RETRY_POLICY,
    on_retry: Callable[[], None] | None = None,
    failed: TransientStorageError | None = None,
) -> T:
    """Run *operation*, retrying transient storage faults with backoff.

    After ``policy.max_attempts`` transient failures the last error is
    re-raised with the attempt count chained in, so callers can tell an
    exhausted retry budget from a first-try permanent failure. *on_retry*
    (when given) is invoked once per retry, before the backoff sleep —
    the observability layer counts retries through it. *failed* is the
    transient fault of a first attempt the caller made itself: the retries
    continue from it, with the same attempts in all.
    """
    attempt = 0
    while True:
        attempt += 1
        if failed is None:
            try:
                return operation()
            except TransientStorageError as exc:
                failed = exc
        if attempt >= policy.max_attempts:
            raise StorageError(
                f"transient fault persisted across {attempt} attempts: {failed}"
            ) from failed
        if on_retry is not None:
            on_retry()
        delay = policy.delay_for(attempt)
        failed = None
        if delay > 0:
            policy.sleep(delay)
