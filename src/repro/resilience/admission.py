"""Admission control: refuse work before overload refuses it for you.

The serving loop (PR 2) has an unbounded dispatch queue: under a flash
crowd every request is eventually served, each slower than the last, until
the whole window blows its SLO. Real platforms survive overload by
*shedding* — rejecting requests at the door so the ones admitted still
meet their bound ("Practical Scheduling for Real-World Serverless
Computing" makes the same observation for scheduler queues).

Controllers here decide admit-vs-shed per arrival, given the instantaneous
queue depth and in-flight dispatch count:

* :class:`UnboundedAdmission` — the PR 2 behaviour (admit everything), the
  unprotected baseline every overload experiment compares against.
* :class:`ConcurrencyLimitAdmission` — a fixed cap on admitted-but-
  unfinished requests, with per-priority watermarks so low-priority
  traffic sheds first.
* :class:`TokenBucketAdmission` — rate-based: a continuous-refill token
  bucket (the same arithmetic providers use for 429s) with reserve
  headroom that only high-priority requests may dip into.
* :class:`AIMDAdmission` — adaptive: a concurrency limit that grows
  additively while the windowed SLO holds and shrinks multiplicatively on
  breach, TCP-style, so the limit converges to what the platform can
  actually sustain.

A controller only decides. The serving run that asks it keeps the one
account of what was decided, in its
:class:`~repro.serving.service.ResilienceReport`: ``admitted + shed ==
arrivals`` bit-for-bit, and per priority class through its
``admitted_by_priority`` and ``shed_by_priority``.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from repro.faults.throttle import TokenBucket

#: Priority classes, ordered from most to least important. Shedding always
#: prefers the higher index (lower priority).
HIGH, NORMAL, LOW = 0, 1, 2
N_PRIORITIES = 3
PRIORITY_NAMES = ("high", "normal", "low")


@dataclass(frozen=True)
class PriorityMix:
    """Seeded priority assignment: fractions of high/normal/low traffic."""

    high: float = 0.2
    normal: float = 0.6
    low: float = 0.2

    def __post_init__(self) -> None:
        for share in (self.high, self.normal, self.low):
            if share < 0.0:
                raise ValueError("priority shares must be non-negative")
        if not math.isclose(self.high + self.normal + self.low, 1.0, abs_tol=1e-9):
            raise ValueError("priority shares must sum to 1")

    def draw(self, gen: np.random.Generator) -> int:
        """One priority class from one uniform draw (deterministic per seed)."""
        return self.draws(gen, 1)[0]

    def draws(self, gen: np.random.Generator, n: int) -> list[int]:
        """``n`` classes from one ``random(n)`` call: the classes ``n``
        calls of :meth:`draw` give, in the same order."""
        u = gen.random(n)
        return np.where(
            u < self.high, HIGH, np.where(u < self.high + self.normal, NORMAL, LOW)
        ).tolist()


class AdmissionController(abc.ABC):
    """Admit-or-shed decisions."""

    name = "admission"

    @abc.abstractmethod
    def admit(
        self, now: float, priority: int, queue_depth: int, in_flight: int
    ) -> bool:
        """Would a request of ``priority`` be admitted right now?"""

    def observe_window(self, now: float, violation_fraction: float) -> None:
        """Feedback hook: the last window's SLO violation fraction."""

    @property
    def concurrency_limit(self) -> float:
        """Current cap on admitted-but-unfinished requests (inf = none)."""
        return math.inf

    #: Whether :meth:`set_limit` is available (remediation actuation seam).
    supports_limit_override = False

    def set_limit(self, limit: int) -> None:
        """Override the live concurrency limit (controllers that cap)."""
        raise NotImplementedError(f"{self.name} has no concurrency limit")


class UnboundedAdmission(AdmissionController):
    """Admit everything — the PR 2 behaviour, kept as the baseline."""

    name = "unbounded"

    def admit(
        self, now: float, priority: int, queue_depth: int, in_flight: int
    ) -> bool:
        return True


def _validate_watermarks(watermarks: tuple[float, ...]) -> tuple[float, ...]:
    if len(watermarks) != N_PRIORITIES:
        raise ValueError(f"need {N_PRIORITIES} priority watermarks")
    if any(not 0.0 < w <= 1.0 for w in watermarks):
        raise ValueError("watermarks must be in (0, 1]")
    if any(watermarks[i] < watermarks[i + 1] for i in range(N_PRIORITIES - 1)):
        raise ValueError("watermarks must not increase with lower priority")
    return tuple(float(w) for w in watermarks)


class ConcurrencyLimitAdmission(AdmissionController):
    """A fixed cap on admitted-but-unfinished requests.

    ``queue_depth + in_flight`` counts everything admitted and not yet
    completed; a request is admitted while that load sits below
    ``limit × watermark(priority)``. Watermarks are non-increasing with
    priority, so as load climbs the classes shed in strict low-to-high
    order — the load-shedding discipline the brownout controller relies on.
    """

    def __init__(
        self,
        limit: int,
        priority_watermarks: tuple[float, ...] = (1.0, 0.9, 0.7),
    ) -> None:
        if limit < 1:
            raise ValueError("limit must be >= 1")
        self.limit = int(limit)
        self.priority_watermarks = _validate_watermarks(priority_watermarks)
        self.name = f"limit-{limit}"

    @property
    def concurrency_limit(self) -> float:
        return float(self.limit)

    supports_limit_override = True

    def set_limit(self, limit: int) -> None:
        if limit < 1:
            raise ValueError("limit must be >= 1")
        self.limit = int(limit)

    def admit(
        self, now: float, priority: int, queue_depth: int, in_flight: int
    ) -> bool:
        load = queue_depth + in_flight
        return load < self.limit * self.priority_watermarks[priority]


class TokenBucketAdmission(AdmissionController):
    """Rate-based admission: one token per request, reserves for priority.

    The bucket refills continuously at ``refill_per_s`` up to ``capacity``.
    A request needs one token, *plus* headroom: class ``p`` is admitted
    only while ``reserve_fractions[p] × capacity`` tokens would remain —
    so when the bucket runs low, low-priority traffic sheds first and the
    reserve is left for high-priority requests.
    """

    def __init__(
        self,
        capacity: int,
        refill_per_s: float,
        reserve_fractions: tuple[float, ...] = (0.0, 0.1, 0.25),
    ) -> None:
        if len(reserve_fractions) != N_PRIORITIES:
            raise ValueError(f"need {N_PRIORITIES} reserve fractions")
        if any(not 0.0 <= r < 1.0 for r in reserve_fractions):
            raise ValueError("reserve fractions must be in [0, 1)")
        if any(
            reserve_fractions[i] > reserve_fractions[i + 1]
            for i in range(N_PRIORITIES - 1)
        ):
            raise ValueError("reserves must not decrease with lower priority")
        self.bucket = TokenBucket(capacity, refill_per_s)
        self.reserve_fractions = tuple(float(r) for r in reserve_fractions)
        self.name = f"token-bucket-{capacity}@{refill_per_s:g}/s"

    def admit(
        self, now: float, priority: int, queue_depth: int, in_flight: int
    ) -> bool:
        reserve = self.reserve_fractions[priority] * self.bucket.capacity
        if self.bucket.available(now) < 1.0 + reserve:
            return False
        return self.bucket.try_acquire(now)


class AIMDAdmission(AdmissionController):
    """Additive-increase / multiplicative-decrease concurrency limit.

    The live limit starts at ``initial_limit``; every SLO window observed
    healthy (violation fraction ≤ ``breach_threshold``) grows it by
    ``additive_step``, every breached window shrinks it by
    ``decrease_factor``. TCP's congestion-avoidance argument carries over:
    the limit oscillates just below the largest load the platform can
    serve within SLO, without knowing that capacity in advance.
    """

    def __init__(
        self,
        initial_limit: int = 64,
        min_limit: int = 4,
        max_limit: int = 4096,
        additive_step: float = 4.0,
        decrease_factor: float = 0.5,
        breach_threshold: float = 0.02,
        priority_watermarks: tuple[float, ...] = (1.0, 0.9, 0.7),
    ) -> None:
        if not 1 <= min_limit <= initial_limit <= max_limit:
            raise ValueError("need 1 <= min_limit <= initial_limit <= max_limit")
        if not (math.isfinite(additive_step) and additive_step > 0.0):
            raise ValueError(
                f"additive_step must be finite and positive (got {additive_step})"
            )
        if not 0.0 < decrease_factor < 1.0:
            raise ValueError("decrease_factor must be in (0, 1)")
        if not 0.0 <= breach_threshold < 1.0:
            raise ValueError("breach_threshold must be in [0, 1)")
        self.limit = float(initial_limit)
        self.min_limit = float(min_limit)
        self.max_limit = float(max_limit)
        self.additive_step = float(additive_step)
        self.decrease_factor = float(decrease_factor)
        self.breach_threshold = float(breach_threshold)
        self.priority_watermarks = _validate_watermarks(priority_watermarks)
        self.increases = 0
        self.decreases = 0
        self.name = f"aimd-{initial_limit}"

    @property
    def concurrency_limit(self) -> float:
        return math.floor(self.limit)

    supports_limit_override = True

    def set_limit(self, limit: int) -> None:
        """Re-anchor the AIMD limit (clamped to the configured band)."""
        if limit < 1:
            raise ValueError("limit must be >= 1")
        self.limit = min(self.max_limit, max(self.min_limit, float(limit)))

    def observe_window(self, now: float, violation_fraction: float) -> None:
        if violation_fraction > self.breach_threshold:
            self.limit = max(self.min_limit, self.limit * self.decrease_factor)
            self.decreases += 1
        else:
            self.limit = min(self.max_limit, self.limit + self.additive_step)
            self.increases += 1

    def admit(
        self, now: float, priority: int, queue_depth: int, in_flight: int
    ) -> bool:
        load = queue_depth + in_flight
        return load < math.floor(self.limit) * self.priority_watermarks[priority]
