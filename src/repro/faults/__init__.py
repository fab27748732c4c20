"""Fault configuration for the platform simulation.

* :mod:`~repro.faults.scenario` — declarative fault environments
  (correlated crash bursts, throttling, stragglers, persistent faults,
  billed timeouts) with presets.
* :mod:`~repro.faults.retry` — pluggable retry policies (immediate, fixed
  delay, exponential backoff with decorrelated jitter, burst-wide retry
  budgets) and straggler hedging.
* :mod:`~repro.faults.throttle` — token-bucket admission control.

This package is configuration and arithmetic only: it imports no other
``repro`` package. The draws a fault environment implies are made by
:class:`~repro.engine.kernel.DispatchKernel`, which binds a run's profile,
scenario and retry policy once and draws every crash, straggler and
correlated kill on dedicated RNG streams.
"""

from repro.faults.retry import (
    ExponentialBackoffRetry,
    FixedDelayRetry,
    HedgePolicy,
    ImmediateRetry,
    RetryBudget,
    RetryPolicy,
    retry_policy_from_dict,
    retry_policy_to_dict,
)
from repro.faults.scenario import (
    CALM,
    FLAKY,
    SCENARIOS,
    STORMY,
    THROTTLED,
    FaultScenario,
)
from repro.faults.throttle import TokenBucket

__all__ = [
    "FaultScenario",
    "RetryPolicy",
    "ImmediateRetry",
    "FixedDelayRetry",
    "ExponentialBackoffRetry",
    "RetryBudget",
    "HedgePolicy",
    "retry_policy_to_dict",
    "retry_policy_from_dict",
    "TokenBucket",
    "CALM",
    "FLAKY",
    "STORMY",
    "THROTTLED",
    "SCENARIOS",
]
