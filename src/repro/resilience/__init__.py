"""Overload resilience: admission control, circuit breakers, brownout.

This package is the protection layer the long-horizon serving loop
(:mod:`repro.serving`) runs behind: admission controllers shed excess
arrivals by priority class, per-fault-domain circuit breakers quarantine
crash-looping dispatch targets, and a brownout controller degrades
gracefully (deeper packing first, then low-priority shedding) when the
windowed SLO breaches. See ``docs/RESILIENCE.md``.
"""

from dataclasses import dataclass, field
from typing import Optional

from repro.resilience.admission import (
    HIGH,
    LOW,
    N_PRIORITIES,
    NORMAL,
    PRIORITY_NAMES,
    AdmissionController,
    AIMDAdmission,
    ConcurrencyLimitAdmission,
    PriorityMix,
    TokenBucketAdmission,
    UnboundedAdmission,
)
from repro.resilience.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    CircuitBreakerBank,
)
from repro.resilience.brownout import LEVEL_NAMES, BrownoutController


@dataclass
class ResiliencePolicy:
    """The protection bundle one serving run executes.

    Every component is optional; an empty bundle reproduces the
    unprotected PR 2 serving loop bit-for-bit. ``priority_mix`` assigns
    each arrival a seeded priority class that admission, brownout
    shedding, and the shed accounting all agree on.
    """

    admission: Optional[AdmissionController] = None
    breakers: Optional[CircuitBreakerBank] = None
    brownout: Optional[BrownoutController] = None
    priority_mix: PriorityMix = field(default_factory=PriorityMix)

    @property
    def active(self) -> bool:
        return (
            self.admission is not None
            or self.breakers is not None
            or self.brownout is not None
        )


__all__ = [
    "HIGH",
    "NORMAL",
    "LOW",
    "N_PRIORITIES",
    "PRIORITY_NAMES",
    "AdmissionController",
    "AIMDAdmission",
    "ConcurrencyLimitAdmission",
    "PriorityMix",
    "TokenBucketAdmission",
    "UnboundedAdmission",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "CircuitBreaker",
    "CircuitBreakerBank",
    "LEVEL_NAMES",
    "BrownoutController",
    "ResiliencePolicy",
]
