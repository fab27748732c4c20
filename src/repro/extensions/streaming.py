"""Planning packing for sustained request streams (extension).

The paper evaluates one-shot concurrent bursts. Serverless services also
face *sustained* arrivals (the Xapian scenario between bursts): requests
arrive continuously and a dispatcher must decide how to group them into
packed instances. Packing now costs *batching delay* — a request waits
until its instance fills (or a timeout fires) — in exchange for the same
interference-vs-instance-count trade-off.

:class:`StreamingPlanner` picks the ``(degree, timeout)``
:class:`~repro.serving.controller.StreamingPolicy` minimizing cost per
request subject to a latency QoS on the per-request sojourn time, using
the fitted interference model. The policy is simulated by
:class:`~repro.serving.service.ServingSimulator` (warm pool, cold-start
initialization, keep-alive billing), which validates the plan in the
test suite and in experiment S1.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.models import ExecutionTimeModel
from repro.platform.providers import PlatformProfile
from repro.serving import StreamingPolicy
from repro.workloads.base import AppSpec


class StreamingPlanner:
    """Chooses ``(degree, timeout)`` under a sojourn-time QoS bound.

    The timeout *is* the latency guarantee: a request's sojourn is at most
    ``timeout + start_latency + ET(degree)`` regardless of the arrival
    process, because the oldest waiting request force-flushes its batch.
    The planner therefore budgets ``timeout(p) = safety·QoS − ET(p)`` and
    among feasible degrees picks the cheapest per request, estimating the
    expected batch fill as ``min(p, 1 + λ·timeout)``.
    """

    def __init__(
        self,
        profile: PlatformProfile,
        app: AppSpec,
        exec_model: ExecutionTimeModel,
        max_degree: Optional[int] = None,
    ) -> None:
        self.profile = profile
        self.app = app
        self.exec_model = exec_model
        self.max_degree = max_degree or app.max_packing_degree(profile.max_memory_mb)

    def estimate_cost_per_request_usd(self, degree: int) -> float:
        et = self.exec_model.predict(degree)
        billed_gb = self.profile.max_memory_mb / 1024.0
        return (
            et * billed_gb * self.profile.gb_second_usd
            + self.profile.per_request_usd
        ) / degree

    def plan(
        self,
        arrival_rate_per_s: float,
        qos_sojourn_s: float,
        safety: float = 0.88,
        noise_margin: float = 1.05,
    ) -> StreamingPolicy:
        """Cheapest feasible policy; degree 1 if nothing meets the bound.

        ``safety`` reserves QoS headroom for the start latency;
        ``noise_margin`` inflates the predicted ET for execution noise.
        """
        for name, value in (
            ("arrival_rate_per_s", arrival_rate_per_s), ("qos_sojourn_s", qos_sojourn_s)
        ):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive (got {value})")
        budget = qos_sojourn_s * safety
        best: Optional[tuple[float, StreamingPolicy]] = None
        for degree in range(1, self.max_degree + 1):
            et = self.exec_model.predict(degree) * noise_margin
            timeout = budget - et
            if timeout < 0:
                break  # ET grows with degree; deeper is also infeasible
            expected_fill = min(degree, 1.0 + arrival_rate_per_s * timeout)
            fill_degree = max(1, int(expected_fill))
            cost = self.estimate_cost_per_request_usd(fill_degree) * (
                fill_degree / expected_fill
            )
            policy = StreamingPolicy(degree=degree, batch_timeout_s=timeout)
            if best is None or cost < best[0] - 1e-12:
                best = (cost, policy)
        if best is None:
            return StreamingPolicy(degree=1, batch_timeout_s=0.0)
        return best[1]
