"""Brownout: degrade service quality gracefully instead of missing SLOs.

When admission control alone cannot hold the SLO (the admitted load is
within the concurrency limit but the platform is slow — cold-start storms,
fault retries, a throttled control plane), a brownout controller trades
*quality* for *survival* in ordered steps:

* **level 1 — boost packing**: multiply the live packing degree, so the
  same traffic needs fewer instances. Deeper packing raises per-request
  execution time but slashes dispatch count, cold starts, and scaling
  cost — exactly the lever ProPack's model says is cheap to pull when the
  backlog, not the execution time, dominates the sojourn.
* **level 2 — shed low priority**: stop admitting the lowest priority
  class entirely, reserving capacity for traffic that matters.

Escalation is immediate (one breached observation per level); recovery is
hysteretic — the controller steps *down* one level only after
``recover_ticks`` consecutive healthy observations, so an SLO flapping
around its threshold cannot flap the degradation with it. The controller
*composes* with the :class:`~repro.serving.controller.OnlineReplanner`
rather than fighting it: the replanner keeps choosing the base policy for
the observed rate, and the brownout multiplier is applied on top of
whatever policy is live.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.resilience.admission import LOW

#: Human-readable level names, index == level.
LEVEL_NAMES = ("normal", "boost-packing", "shed-low")


class BrownoutController:
    """Stepwise degradation driven by windowed SLO health and backlog."""

    def __init__(
        self,
        violation_threshold: float = 0.02,
        backlog_threshold: Optional[int] = None,
        degree_boost: float = 2.0,
        recover_ticks: int = 3,
        max_level: int = 2,
    ) -> None:
        if not 0.0 <= violation_threshold < 1.0:
            raise ValueError("violation_threshold must be in [0, 1)")
        if backlog_threshold is not None and not backlog_threshold >= 1:
            raise ValueError(
                f"backlog_threshold must be >= 1 or None (got {backlog_threshold})"
            )
        if not (math.isfinite(degree_boost) and degree_boost >= 1.0):
            raise ValueError(
                f"degree_boost must be finite and >= 1.0 (got {degree_boost})"
            )
        if recover_ticks < 1:
            raise ValueError("recover_ticks must be >= 1")
        if not 0 <= max_level < len(LEVEL_NAMES):
            raise ValueError(f"max_level must be in [0, {len(LEVEL_NAMES) - 1}]")
        self.violation_threshold = float(violation_threshold)
        self.backlog_threshold = backlog_threshold
        self.degree_boost = float(degree_boost)
        self.recover_ticks = int(recover_ticks)
        self.max_level = int(max_level)
        self.level = 0
        self.max_level_seen = 0
        self.escalations = 0
        self.recoveries = 0
        self._healthy_streak = 0

    # ------------------------------------------------------------------ #
    def _breached(self, violation_fraction: float, backlog: int) -> bool:
        if violation_fraction > self.violation_threshold:
            return True
        return (
            self.backlog_threshold is not None
            and backlog > self.backlog_threshold
        )

    def observe(self, now: float, violation_fraction: float, backlog: int) -> int:
        """One control tick; returns the (possibly new) brownout level."""
        if self._breached(violation_fraction, backlog):
            self._healthy_streak = 0
            if self.level < self.max_level:
                self.level += 1
                self.escalations += 1
                self.max_level_seen = max(self.max_level_seen, self.level)
        else:
            self._healthy_streak += 1
            if self.level > 0 and self._healthy_streak >= self.recover_ticks:
                self.level -= 1
                self.recoveries += 1
                self._healthy_streak = 0
        return self.level

    # ------------------------------------------------------------------ #
    @property
    def degree_multiplier(self) -> float:
        """Factor applied on top of the live policy's packing degree."""
        return self.degree_boost if self.level >= 1 else 1.0

    def sheds(self, priority: int) -> bool:
        """Is this priority class refused outright at the current level?"""
        return self.level >= 2 and priority >= LOW

    @property
    def level_name(self) -> str:
        return LEVEL_NAMES[self.level]
