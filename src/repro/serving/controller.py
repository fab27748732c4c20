"""Online replanning: adapt the packing degree and pool size as load drifts.

Every serving run dispatches under a :class:`StreamingPolicy`: pack up to
``degree`` requests per instance, hold none longer than ``batch_timeout_s``.
A static policy planned for the average rate is wrong twice a day under
diurnal traffic — too shallow at the peak (paying for
instances that batching would have merged) and too deep in the trough
(holding requests for batches that never fill). :class:`OnlineReplanner`
closes the loop: it re-fits the arrival rate over a sliding window of
observed arrivals, re-runs the planning stack —
:class:`~repro.extensions.streaming.StreamingPlanner` for the QoS-feasible
``(degree, timeout)`` and, when a scaling model is available, a fresh
:class:`~repro.core.optimizer.PackingOptimizer` whose joint optimum caps
the degree — and emits a new policy plus a Little's-law pool-size target.

Hysteresis prevents flapping: a new plan is *adopted* only if the observed
rate moved by more than ``hysteresis`` relative to the rate behind the
current plan AND the cooldown since the last adoption has elapsed.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.models import ExecutionTimeModel, ScalingTimeModel
from repro.core.optimizer import PackingOptimizer
from repro.platform.providers import PlatformProfile
from repro.serving.warmpool import pool_size_for
from repro.workloads.base import AppSpec


@dataclass(frozen=True)
class StreamingPolicy:
    """Dispatch policy: pack up to ``degree``, wait at most ``batch_timeout_s``."""

    degree: int
    batch_timeout_s: float

    def __post_init__(self) -> None:
        # A float degree fails only when a batch is sliced, and a NaN
        # timeout passes every comparison: both are refused here.
        if not isinstance(self.degree, numbers.Integral) or self.degree < 1:
            raise ValueError(f"degree must be an integer >= 1 (got {self.degree!r})")
        if not (math.isfinite(self.batch_timeout_s) and self.batch_timeout_s >= 0.0):
            raise ValueError(
                f"batch_timeout_s must be finite and >= 0 (got {self.batch_timeout_s})"
            )


@dataclass(frozen=True)
class ReplanDecision:
    """Outcome of one replanning tick."""

    time: float
    observed_rate_per_s: float
    policy: StreamingPolicy
    pool_target: int
    changed: bool        # did this tick adopt a new plan?
    reason: str          # "initial" / "rate-drift" / "hysteresis-hold" / "cooldown-hold"


class OnlineReplanner:
    """Sliding-window rate estimation + hysteretic replanning."""

    def __init__(
        self,
        profile: PlatformProfile,
        app: AppSpec,
        exec_model: ExecutionTimeModel,
        qos_sojourn_s: float,
        scaling_model: Optional[ScalingTimeModel] = None,
        window_s: float = 300.0,
        hysteresis: float = 0.25,
        cooldown_s: float = 180.0,
        pool_headroom: float = 1.25,
        min_rate_per_s: float = 1e-3,
        joint_weight_service: float = 0.5,
    ) -> None:
        # NaN passes every comparison, so finiteness is checked first.
        for name, value, positive in (
            ("qos_sojourn_s", qos_sojourn_s, True),
            ("window_s", window_s, True),
            ("hysteresis", hysteresis, False),
            ("cooldown_s", cooldown_s, False),
            ("pool_headroom", pool_headroom, True),
            ("min_rate_per_s", min_rate_per_s, True),
        ):
            if not math.isfinite(value) or value < 0.0 or (positive and value == 0.0):
                bound = "positive" if positive else ">= 0"
                raise ValueError(f"{name} must be finite and {bound} (got {value})")
        self.profile = profile
        self.app = app
        self.exec_model = exec_model
        self.qos_sojourn_s = float(qos_sojourn_s)
        self.scaling_model = scaling_model
        self.window_s = float(window_s)
        self.hysteresis = float(hysteresis)
        self.cooldown_s = float(cooldown_s)
        self.pool_headroom = float(pool_headroom)
        self.min_rate_per_s = float(min_rate_per_s)
        self.joint_weight_service = float(joint_weight_service)
        # Local import: extensions.streaming imports StreamingPolicy from here.
        from repro.extensions.streaming import StreamingPlanner

        self._planner = StreamingPlanner(profile, app, exec_model)
        self._arrivals: deque[float] = deque()
        self._policy: Optional[StreamingPolicy] = None
        self._planned_rate: Optional[float] = None
        self._last_change_at = float("-inf")
        self.replans = 0
        self.changes = 0
        self.decisions: list[ReplanDecision] = []

    # ------------------------------------------------------------------ #
    def record_arrivals(self, times: Sequence[float]) -> None:
        """Record a run of sorted arrival times, all at or after the last
        one recorded. The window is trimmed once, to the last arrival:
        each arrival's cutoff only grows, so trimming after each one would
        leave the same window."""
        if not times:
            return
        self._arrivals.extend(times)
        cutoff = times[-1] - self.window_s
        while self._arrivals and self._arrivals[0] < cutoff:
            self._arrivals.popleft()

    def observed_rate(self, now: float) -> float:
        cutoff = now - self.window_s
        while self._arrivals and self._arrivals[0] < cutoff:
            self._arrivals.popleft()
        return len(self._arrivals) / self.window_s

    # ------------------------------------------------------------------ #
    def _plan_for(self, rate: float) -> StreamingPolicy:
        policy = self._planner.plan(
            arrival_rate_per_s=rate, qos_sojourn_s=self.qos_sojourn_s
        )
        if self.scaling_model is None:
            return policy
        # Re-run the burst optimizer over the window-equivalent burst: the
        # joint (service, expense) optimum caps how deep streaming packs —
        # no point packing past the degree a one-shot planner would reject.
        window_burst = max(1, int(round(rate * self.window_s)))
        optimizer = PackingOptimizer(
            self.exec_model,
            self.scaling_model,
            self.app,
            self.profile,
            concurrency=window_burst,
        )
        cap = optimizer.optimal_joint(w_s=self.joint_weight_service)
        if policy.degree > cap:
            # The planner's timeout was budgeted for a deeper (slower)
            # degree, so it remains feasible at the shallower one.
            policy = StreamingPolicy(
                degree=cap, batch_timeout_s=policy.batch_timeout_s
            )
        return policy

    def replan(self, now: float) -> ReplanDecision:
        """One replanning tick; adopts a new plan only past the deadbands."""
        self.replans += 1
        rate = max(self.observed_rate(now), self.min_rate_per_s)
        if self._policy is None:
            decision = self._adopt(now, rate, "initial")
        else:
            drift = abs(rate - self._planned_rate) / self._planned_rate
            if drift <= self.hysteresis:
                decision = self._hold(now, rate, "hysteresis-hold")
            elif now - self._last_change_at < self.cooldown_s:
                decision = self._hold(now, rate, "cooldown-hold")
            else:
                decision = self._adopt(now, rate, "rate-drift")
        self.decisions.append(decision)
        return decision

    def _pool_target(self, rate: float, policy: StreamingPolicy) -> int:
        return pool_size_for(
            rate,
            self.exec_model.predict(policy.degree),
            policy.degree,
            self.pool_headroom,
        )

    def _adopt(self, now: float, rate: float, reason: str) -> ReplanDecision:
        self._policy = self._plan_for(rate)
        self._planned_rate = rate
        self._last_change_at = now
        self.changes += 1
        return ReplanDecision(
            time=now,
            observed_rate_per_s=rate,
            policy=self._policy,
            pool_target=self._pool_target(rate, self._policy),
            changed=True,
            reason=reason,
        )

    def _hold(self, now: float, rate: float, reason: str) -> ReplanDecision:
        return ReplanDecision(
            time=now,
            observed_rate_per_s=rate,
            policy=self._policy,
            pool_target=self._pool_target(self._planned_rate, self._policy),
            changed=False,
            reason=reason,
        )

    @property
    def policy(self) -> Optional[StreamingPolicy]:
        return self._policy
