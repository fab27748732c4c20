"""Token-bucket admission control (429-style invocation throttling).

Providers cap the rate at which an account can launch new instances; above
the quota the control plane rejects invocations with HTTP 429 and the
client retries with backoff. The bucket is pure arithmetic — tokens refill
continuously as a function of elapsed simulation time — so it adds no
events of its own and stays bit-deterministic.
"""

from __future__ import annotations

import math


class TokenBucket:
    """A continuous-refill token bucket keyed to an external clock."""

    def __init__(self, capacity: int, refill_per_s: float) -> None:
        # NaN passes every comparison, so finiteness is checked first: a
        # NaN refill would refill the bucket to full on every call.
        if not (math.isfinite(capacity) and capacity >= 1):
            raise ValueError(f"capacity must be finite and >= 1 (got {capacity})")
        if not (math.isfinite(refill_per_s) and refill_per_s > 0.0):
            raise ValueError(
                f"refill_per_s must be finite and positive (got {refill_per_s})"
            )
        self.capacity = capacity
        self.refill_per_s = refill_per_s
        self._tokens = float(capacity)
        self._last = 0.0

    def _refill(self, now: float) -> None:
        if now < self._last:
            raise ValueError("token bucket clock moved backwards")
        self._tokens = min(
            float(self.capacity),
            self._tokens + (now - self._last) * self.refill_per_s,
        )
        self._last = now

    def available(self, now: float) -> float:
        """Tokens available at ``now`` without consuming any."""
        self._refill(now)
        return self._tokens

    def try_acquire(self, now: float) -> bool:
        """Admit one invocation at time ``now`` if a token is available."""
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def seconds_until_token(self, now: float) -> float:
        """Time from ``now`` until one token will be available."""
        self._refill(now)
        if self._tokens >= 1.0:
            return 0.0
        return (1.0 - self._tokens) / self.refill_per_s
