"""Packing for sustained request streams (extension).

The paper evaluates one-shot concurrent bursts. Serverless services also
face *sustained* arrivals (the Xapian scenario between bursts): requests
arrive continuously and a dispatcher must decide how to group them into
packed instances. Packing now costs *batching delay* — a request waits
until its instance fills (or a timeout fires) — in exchange for the same
interference-vs-instance-count trade-off.

:class:`StreamingDispatcher` simulates a Poisson arrival stream dispatched
with a ``(degree, timeout)`` policy: an instance launches when ``degree``
requests have accumulated or the oldest waiting request has waited
``batch_timeout_s``. Warm instances are reused from a pool, so sustained
traffic mostly avoids the cold-start pipeline. A
:class:`~repro.faults.scenario.FaultScenario` can be injected into the
dispatch path: crashed attempts are billed up to the crash point and
re-executed under a :class:`~repro.faults.retry.RetryPolicy` (re-paying
payload egress), 429 throttling backs dispatches off, and stragglers
stretch individual attempts — all on dedicated random streams, so the
fault-free path stays byte-identical to the original dispatcher.

:class:`StreamingPlanner` picks the ``(degree, timeout)`` pair minimizing
cost per request subject to a latency QoS on the per-request sojourn time,
using the fitted interference model plus M/D/c-style waiting estimates, and
is validated against the simulation in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.models import ExecutionTimeModel
from repro.engine import (
    AttemptChain,
    DispatchCosts,
    DispatchKernel,
    resolve_retry_policy,
)
from repro.faults.retry import RetryPolicy
from repro.faults.scenario import FaultScenario
from repro.platform.providers import PlatformProfile
from repro.serving.arrivals import ArrivalProcess, PoissonProcess
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.workloads.base import AppSpec


@dataclass(frozen=True)
class StreamingPolicy:
    """Dispatch policy: pack up to ``degree``, wait at most ``batch_timeout_s``."""

    degree: int
    batch_timeout_s: float

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.batch_timeout_s < 0:
            raise ValueError("batch timeout must be non-negative")


@dataclass
class StreamingResult:
    """Measured outcome of a streaming simulation."""

    policy: StreamingPolicy
    n_requests: int
    sojourn_times: list[float] = field(default_factory=list)
    batch_sizes: list[int] = field(default_factory=list)
    billed_gb_seconds: float = 0.0
    cold_starts: int = 0
    crashes: int = 0
    retries: int = 0
    failed_requests: int = 0      # crashed out of retries / throttled out
    throttled_attempts: int = 0   # 429 rejections at dispatch
    dropped_batches: int = 0      # batches that exhausted the 429 budget
    wasted_gb_seconds: float = 0.0
    retry_egress_gb: float = 0.0

    @property
    def completed_requests(self) -> int:
        return self.n_requests - self.failed_requests

    @property
    def mean_sojourn_s(self) -> float:
        return float(np.mean(self.sojourn_times))

    @property
    def p95_sojourn_s(self) -> float:
        return float(np.quantile(self.sojourn_times, 0.95))

    @property
    def mean_batch_size(self) -> float:
        return float(np.mean(self.batch_sizes))

    def cost_per_request_usd(self, profile: PlatformProfile) -> float:
        compute = self.billed_gb_seconds * profile.gb_second_usd
        requests = len(self.batch_sizes) * profile.per_request_usd
        egress = self.retry_egress_gb * profile.egress_usd_per_gb
        return (compute + requests + egress) / self.n_requests


class _StreamAttemptEnv:
    """Kernel attempt-walk hooks for the streaming dispatcher.

    Implements :class:`~repro.engine.kernel.SyncAttemptEnv`: the kernel
    arbitrates throttling/crashes/retries while this object owns the
    stream's warm-window bookkeeping, execution modeling, and
    :class:`StreamingResult` accounting. A chain's ``payload`` is the
    batch's list of arrival times.
    """

    def __init__(
        self,
        kernel: DispatchKernel,
        result: StreamingResult,
        state: dict,
        costs: DispatchCosts,
        exec_model: ExecutionTimeModel,
        exec_noise_sigma: float,
        io_mb: float,
        warm_pool_ttl_s: float,
        billed_gb: float,
    ) -> None:
        self.kernel = kernel
        self.result = result
        self.state = state
        self.costs = costs
        self.exec_model = exec_model
        self.exec_noise_sigma = exec_noise_sigma
        self.io_mb = io_mb
        self.warm_pool_ttl_s = warm_pool_ttl_s
        self.billed_gb = billed_gb

    def throttle_clock(self, launch_at: float) -> float:
        # The bucket clock must be monotone even though batch clocks
        # interleave (a retry reaches into the future).
        t = max(launch_at, self.state["bucket_clock"])
        self.state["bucket_clock"] = t
        return t

    def on_throttled(self, chain: AttemptChain) -> None:
        self.result.throttled_attempts += 1

    def on_rejected(self, chain: AttemptChain) -> None:
        self.result.dropped_batches += 1
        self.result.failed_requests += chain.n_packed

    def is_warm(self, launch_at: float) -> bool:
        return launch_at <= self.state["warm_until"]

    def attempt_seconds(self, chain: AttemptChain, warm: bool) -> float:
        if not warm:
            self.result.cold_starts += 1
        factor = self.kernel.exec_noise_factor(self.exec_noise_sigma)
        factor *= self.kernel.straggler_factor()
        exec_time = self.exec_model.predict(chain.n_packed) * factor
        self.result.batch_sizes.append(chain.n_packed)
        return exec_time

    def on_success(
        self, chain: AttemptChain, launch_at: float, warm: bool, exec_seconds: float
    ) -> None:
        finish = launch_at + self.costs.start_latency(warm) + exec_seconds
        self.state["warm_until"] = finish + self.warm_pool_ttl_s
        for arrived in chain.payload:
            self.result.sojourn_times.append(finish - arrived)
        self.result.billed_gb_seconds += exec_seconds * self.billed_gb

    def on_crash(
        self, chain: AttemptChain, launch_at: float, warm: bool,
        exec_seconds: float, crash,
    ) -> float:
        self.result.crashes += 1
        wasted = crash.at_fraction * exec_seconds * self.billed_gb
        self.result.billed_gb_seconds += wasted
        self.result.wasted_gb_seconds += wasted
        return (
            launch_at
            + self.costs.start_latency(warm)
            + crash.at_fraction * exec_seconds
        )

    def on_retry(self, chain: AttemptChain, delay: float) -> None:
        self.result.retries += 1
        self.result.retry_egress_gb += chain.n_packed * self.io_mb / 1024.0

    def on_exhausted(self, chain: AttemptChain) -> None:
        self.result.failed_requests += chain.n_packed


class StreamingDispatcher:
    """Simulates Poisson arrivals under a batch-and-pack policy."""

    def __init__(
        self,
        profile: PlatformProfile,
        app: AppSpec,
        exec_model: ExecutionTimeModel,
        seed: int = 0,
        cold_start_s: float = 1.5,
        warm_dispatch_s: float = 0.02,
        warm_pool_ttl_s: float = 120.0,
    ) -> None:
        self.profile = profile
        self.app = app
        self.exec_model = exec_model
        self.seed = seed
        self.cold_start_s = cold_start_s
        self.warm_dispatch_s = warm_dispatch_s
        self.warm_pool_ttl_s = warm_pool_ttl_s

    def run(
        self,
        policy: StreamingPolicy,
        arrival_rate_per_s: float,
        n_requests: int,
        repetition: int = 0,
        process: Optional[ArrivalProcess] = None,
        scenario: Optional[FaultScenario] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> StreamingResult:
        """Simulate ``n_requests`` arrivals under ``policy``.

        By default arrivals are homogeneous Poisson at
        ``arrival_rate_per_s`` (via :class:`repro.serving.arrivals.
        PoissonProcess`, byte-identical to the generator this class
        historically inlined). Pass any other
        :class:`~repro.serving.arrivals.ArrivalProcess` to drive the same
        dispatcher with diurnal, bursty, or trace-shaped traffic; the
        stream is then time-bounded at ``n_requests / rate`` and
        ``n_requests`` only sizes the horizon.

        ``scenario`` injects faults into the dispatch path (crashes,
        throttling, stragglers); ``retry_policy`` governs re-execution of
        crashed attempts (defaults to :class:`~repro.faults.retry.
        ImmediateRetry` when a scenario is given). Without a scenario the
        simulation is byte-identical to the fault-free dispatcher.
        """
        if arrival_rate_per_s <= 0:
            raise ValueError("arrival rate must be positive")
        if n_requests < 1:
            raise ValueError("need at least one request")
        rng = RandomStreams(self.seed).spawn(f"stream/r{repetition}")
        if process is None:
            arrivals = PoissonProcess(arrival_rate_per_s).sample_n(rng, n_requests)
        else:
            arrivals = process.sample(rng, n_requests / arrival_rate_per_s)
        if len(arrivals) == 0:
            raise ValueError("arrival process produced no arrivals in the horizon")
        n_requests = len(arrivals)
        # Fault/throttle/retry arbitration is the shared dispatch kernel's;
        # the dispatcher keeps only batching and warm-window bookkeeping.
        kernel = DispatchKernel(
            rng,
            scenario=scenario,
            retry_policy=resolve_retry_policy(retry_policy, scenario),
            profile_failure_rate=self.profile.failure_rate,
        )
        sim = Simulator()
        result = StreamingResult(policy=policy, n_requests=n_requests)
        waiting: list[float] = []  # arrival times of queued requests
        warm_until = -math.inf
        billed_gb = self.profile.max_memory_mb / 1024.0
        state = {"warm_until": warm_until, "timer": None, "bucket_clock": 0.0}
        env = _StreamAttemptEnv(
            kernel=kernel,
            result=result,
            state=state,
            costs=DispatchCosts(self.cold_start_s, self.warm_dispatch_s),
            exec_model=self.exec_model,
            exec_noise_sigma=self.profile.exec_noise_sigma,
            io_mb=self.app.io_mb,
            warm_pool_ttl_s=self.warm_pool_ttl_s,
            billed_gb=billed_gb,
        )

        def dispatch() -> None:
            if not waiting:
                return
            batch = waiting[: policy.degree]
            del waiting[: len(batch)]
            if state["timer"] is not None:
                state["timer"].cancel()
                state["timer"] = None
            if kernel.injector is not None:
                # The batch's whole fault story (429 backoffs, crashes,
                # retries) advances the kernel's arithmetic clock instead
                # of scheduling events, mirroring the fault-free inline
                # ``finish`` computation below.
                chain = kernel.new_chain(
                    n_packed=len(batch), payload=batch, retry=kernel.fresh_retry()
                )
                kernel.run_synchronous_chain(chain, env, sim.now)
                if waiting:
                    arm_timer()
                return
            start_latency = (
                self.warm_dispatch_s
                if sim.now <= state["warm_until"]
                else self.cold_start_s
            )
            if start_latency == self.cold_start_s:
                result.cold_starts += 1
            exec_time = self.exec_model.predict(len(batch)) * rng.lognormal_factor(
                "exec", self.profile.exec_noise_sigma
            )
            finish = sim.now + start_latency + exec_time
            state["warm_until"] = finish + self.warm_pool_ttl_s
            for arrived in batch:
                result.sojourn_times.append(finish - arrived)
            result.batch_sizes.append(len(batch))
            result.billed_gb_seconds += (
                exec_time * self.profile.max_memory_mb / 1024.0
            )
            # Re-arm the timer for any requests still waiting.
            if waiting:
                arm_timer()

        def arm_timer() -> None:
            if state["timer"] is not None:
                return
            oldest = waiting[0]
            deadline = oldest + policy.batch_timeout_s
            state["timer"] = sim.schedule(
                max(0.0, deadline - sim.now), timer_fired
            )

        def timer_fired() -> None:
            state["timer"] = None
            dispatch()

        def on_arrival(t: float) -> None:
            waiting.append(t)
            if len(waiting) >= policy.degree:
                dispatch()
            else:
                arm_timer()

        for t in arrivals:
            sim.schedule_at(float(t), on_arrival, float(t))
        sim.run()
        # Flush any tail still waiting when arrivals stop.
        while waiting:
            dispatch()
        return result


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

    def estimate_sojourn_s(
        self, degree: int, arrival_rate_per_s: float, timeout_s: float
    ) -> float:
        batch_wait = min((degree - 1) / max(arrival_rate_per_s, 1e-9), timeout_s)
        return batch_wait + self.exec_model.predict(degree)

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
        if qos_sojourn_s <= 0:
            raise ValueError("QoS bound must be positive")
        if arrival_rate_per_s <= 0:
            raise ValueError("arrival rate must be positive")
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
