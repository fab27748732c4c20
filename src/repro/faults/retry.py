"""Pluggable retry policies and speculative (hedged) re-execution.

The seed hard-coded Lambda's "retry immediately, up to ``max_retries``
times" loop inside the invoker. Real deployments choose among retry
disciplines with very different cost/latency trades, especially when a
crash of a packed instance re-pays ``P×`` work:

* :class:`ImmediateRetry` — the platform default (what Lambda's async
  invoke does); reproduces the seed's behaviour exactly.
* :class:`FixedDelayRetry` — a constant pause before each retry.
* :class:`ExponentialBackoffRetry` — exponential backoff with
  *decorrelated jitter* (``sleep = min(cap, uniform(base, 3·prev))``), the
  discipline AWS recommends for contended retries.
* :class:`RetryBudget` — wraps any policy and caps the *total* number of
  retries spent across a whole run (a burst or a serving run), so a
  correlated failure storm cannot multiply costs unboundedly.

:class:`HedgePolicy` configures straggler hedging: when an attempt runs
past ``trigger_factor ×`` the modeled execution time, a speculative
duplicate is launched; the first copy to finish wins and the loser is
cancelled (its elapsed time is still billed — the provider does not refund
abandoned work).
"""

from __future__ import annotations

import abc
import math
import numbers
from dataclasses import dataclass
from typing import Any, Mapping, Optional

import numpy as np


def _require(ok: bool, name: str, rule: str, value: Any) -> None:
    """Raise a ``ValueError`` naming field ``name`` unless ``ok``.

    The delay rules test finiteness first: NaN passes every comparison, so
    a NaN delay would fail only once a run scheduled it.
    """
    if not ok:
        raise ValueError(f"{name} must be {rule} (got {value!r})")


def _require_count(value: Any, name: str, least: int) -> None:
    """Raise a ``ValueError`` naming field ``name`` unless ``value`` is an
    integer (``numbers.Integral``) ``>= least``: a NaN count passes every
    comparison, and a fractional one rounds up where it is compared."""
    _require(isinstance(value, numbers.Integral) and value >= least,
             name, f"an integer >= {least}", value)


class RetryPolicy(abc.ABC):
    """Decides whether (and when) a failed attempt is retried."""

    @abc.abstractmethod
    def next_delay(
        self,
        failed_attempt: int,
        prev_delay: float,
        rng: np.random.Generator,
    ) -> Optional[float]:
        """Delay in seconds before the next attempt, or ``None`` to give up.

        ``failed_attempt`` is the 1-based index of the attempt that just
        failed; ``prev_delay`` is the delay that preceded it (0.0 for the
        first attempt), which decorrelated jitter feeds back on.
        """

    def fresh(self) -> "RetryPolicy":
        """A per-run copy; stateless policies return themselves."""
        return self


@dataclass(frozen=True)
class ImmediateRetry(RetryPolicy):
    """Retry instantly, up to ``max_retries`` times (Lambda async default)."""

    max_retries: int = 2

    def __post_init__(self) -> None:
        _require_count(self.max_retries, "max_retries", 0)

    def next_delay(
        self, failed_attempt: int, prev_delay: float, rng: np.random.Generator
    ) -> Optional[float]:
        return 0.0 if failed_attempt <= self.max_retries else None


@dataclass(frozen=True)
class FixedDelayRetry(RetryPolicy):
    """A constant pause before every retry."""

    delay_s: float = 1.0
    max_retries: int = 2

    def __post_init__(self) -> None:
        _require(math.isfinite(self.delay_s) and self.delay_s >= 0.0,
                 "delay_s", "finite and >= 0", self.delay_s)
        _require_count(self.max_retries, "max_retries", 0)

    def next_delay(
        self, failed_attempt: int, prev_delay: float, rng: np.random.Generator
    ) -> Optional[float]:
        return self.delay_s if failed_attempt <= self.max_retries else None


@dataclass(frozen=True)
class ExponentialBackoffRetry(RetryPolicy):
    """Exponential backoff with decorrelated jitter.

    The k-th retry waits ``min(cap_s, uniform(base_s, 3·prev))`` where
    ``prev`` is the previous wait (``base_s`` initially) — the decorrelated
    jitter scheme, which de-synchronizes retry herds after a correlated
    failure burst far better than full or equal jitter.
    """

    base_s: float = 0.2
    cap_s: float = 20.0
    max_retries: int = 4

    def __post_init__(self) -> None:
        _require(math.isfinite(self.base_s) and self.base_s > 0.0,
                 "base_s", "finite and positive", self.base_s)
        _require(math.isfinite(self.cap_s) and self.cap_s >= self.base_s,
                 "cap_s", "finite and >= base_s", self.cap_s)
        _require_count(self.max_retries, "max_retries", 0)

    def next_delay(
        self, failed_attempt: int, prev_delay: float, rng: np.random.Generator
    ) -> Optional[float]:
        if failed_attempt > self.max_retries:
            return None
        prev = max(prev_delay, self.base_s)
        return float(min(self.cap_s, rng.uniform(self.base_s, 3.0 * prev)))


class RetryBudget(RetryPolicy):
    """Caps total retries across a run, on top of an inner policy.

    A packed instance crash re-pays ``P×`` work per retry, so a run-wide
    budget bounds the worst-case retry spend of a failure storm: once
    ``budget`` retries have been granted, every further failure is final.
    Each burst or serving run spends its own ``fresh()`` copy.
    """

    def __init__(self, inner: RetryPolicy, budget: int) -> None:
        _require_count(budget, "budget", 0)
        self.inner = inner
        self.budget = budget
        self._spent = 0

    @property
    def spent(self) -> int:
        return self._spent

    def next_delay(
        self, failed_attempt: int, prev_delay: float, rng: np.random.Generator
    ) -> Optional[float]:
        if self._spent >= self.budget:
            return None
        delay = self.inner.next_delay(failed_attempt, prev_delay, rng)
        if delay is not None:
            self._spent += 1
        return delay

    def fresh(self) -> "RetryBudget":
        return RetryBudget(self.inner.fresh(), self.budget)


# --------------------------------------------------------------------- #
# Validated JSON round-trip (policies embed in harness manifests)
# --------------------------------------------------------------------- #
#: kind tag -> (class, constructor-field names)
_RETRY_KINDS: dict[str, tuple[type, tuple[str, ...]]] = {
    "immediate": (ImmediateRetry, ("max_retries",)),
    "fixed-delay": (FixedDelayRetry, ("delay_s", "max_retries")),
    "exponential-backoff": (
        ExponentialBackoffRetry,
        ("base_s", "cap_s", "max_retries"),
    ),
}


def retry_policy_to_dict(policy: RetryPolicy) -> dict[str, Any]:
    """JSON-safe description of any built-in retry policy.

    ``RetryBudget`` nests its inner policy; runtime state (``spent``) is
    deliberately excluded — a round-tripped policy is always fresh.
    """
    if isinstance(policy, RetryBudget):
        return {
            "kind": "budget",
            "budget": policy.budget,
            "inner": retry_policy_to_dict(policy.inner),
        }
    for kind, (cls, field_names) in _RETRY_KINDS.items():
        if type(policy) is cls:
            return {"kind": kind, **{f: getattr(policy, f) for f in field_names}}
    raise ValueError(
        f"cannot serialize retry policy of type {type(policy).__name__}"
    )


def retry_policy_from_dict(payload: Mapping[str, Any]) -> RetryPolicy:
    """Rebuild a retry policy, rejecting unknown kinds/keys and invalid
    values (negative delays, ``cap_s < base_s``, …) via the constructors."""
    data = dict(payload)
    kind = data.pop("kind", None)
    if kind == "budget":
        inner = data.pop("inner", None)
        budget = data.pop("budget", None)
        if data:
            raise ValueError(f"budget retry policy: unknown keys {sorted(data)}")
        if not isinstance(inner, Mapping) or budget is None:
            raise ValueError("budget retry policy needs 'inner' and 'budget'")
        return RetryBudget(retry_policy_from_dict(inner), budget)
    if kind not in _RETRY_KINDS:
        raise ValueError(
            f"unknown retry policy kind {kind!r} "
            f"(known: {', '.join(sorted(_RETRY_KINDS))}, budget)"
        )
    cls, field_names = _RETRY_KINDS[kind]
    unknown = set(data) - set(field_names)
    if unknown:
        raise ValueError(f"{kind} retry policy: unknown keys {sorted(unknown)}")
    return cls(**data)


@dataclass(frozen=True)
class HedgePolicy:
    """Speculative re-execution for straggler attempts.

    When an attempt's elapsed time passes ``trigger_factor ×`` the modeled
    (noise-free) execution time, one duplicate is launched through the full
    cold pipeline. The first copy to complete wins; the loser is cancelled
    and billed for its elapsed time only.
    """

    trigger_factor: float = 2.0
    max_hedges_per_group: int = 1

    def __post_init__(self) -> None:
        _require(math.isfinite(self.trigger_factor) and self.trigger_factor > 1.0,
                 "trigger_factor", "finite and > 1", self.trigger_factor)
        _require_count(self.max_hedges_per_group, "max_hedges_per_group", 1)

    def trigger_seconds(self, reference_seconds: float) -> float:
        return self.trigger_factor * reference_seconds
