"""Shadow verification: replay a proposed action before trusting it.

The verifier is what separates this loop from a bag of if-statements: a
proposed action is *never* applied on heuristic grounds alone. Instead the
loop captures a :class:`ShadowSpec` — a frozen snapshot of the live run's
platform, workload, fault scenario (with the currently-poisoned domains
baked in via ``FaultScenario.initially_poisoned``), protection knobs, and
observed arrival rate — and replays a short-horizon serving simulation
twice: once as-is (the baseline) and once with the candidate action
overlaid. The action is accepted only if the counterfactual wins.

Determinism: the shadow seed is spawned off the live run's RNG streams
(``RandomStreams.spawn``) — spawning derives a child generator family
*without consuming draws*, so verification is byte-deterministic per seed
and the live run is bit-identical with the loop on or off (until an action
is actually applied). Baseline and candidates share one seed per tick, so
the comparison is paired: both see the same arrival schedule and fault
draws wherever their trajectories have not yet diverged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # annotation-only imports
    from repro.core.models import ExecutionTimeModel
    from repro.faults.retry import RetryPolicy
    from repro.faults.scenario import FaultScenario
    from repro.platform.providers import PlatformProfile
    from repro.remediation.actions import RemediationAction
    from repro.serving.service import ServingConfig
    from repro.workloads.base import AppSpec


def _round(value):
    return round(value, 9) if isinstance(value, float) else value


@dataclass(frozen=True)
class ShadowSpec:
    """Frozen snapshot of the live run, sufficient to clone it briefly."""

    profile: "PlatformProfile"
    app: "AppSpec"
    exec_model: "ExecutionTimeModel"
    config: "ServingConfig"
    scenario: Optional["FaultScenario"]     # already carries initially_poisoned
    retry_policy: Optional["RetryPolicy"]
    arrival_rate_per_s: float
    degree: int
    batch_timeout_s: float
    warm_ttl_s: float
    pool_capacity: Optional[int]
    admission_limit: Optional[int]
    quarantined: tuple[int, ...] = ()
    breaker_failure_threshold: Optional[int] = None  # None = no breaker bank
    breaker_recovery_s: float = 30.0


@dataclass(frozen=True)
class ShadowScore:
    """What one shadow replay measured."""

    attainment: float          # windowed P99 attainment
    cost_per_completed: float  # USD per completed request
    completed: int

    def signature(self) -> tuple:
        return (
            _round(self.attainment),
            _round(self.cost_per_completed),
            self.completed,
        )


@dataclass(frozen=True)
class ShadowVerdict:
    """The verifier's ruling on one proposed action."""

    time: float
    action_kind: str
    action_signature: tuple
    accepted: bool
    reason: str
    baseline: ShadowScore
    candidate: Optional[ShadowScore]  # None when rejected before replay

    def signature(self) -> tuple:
        return (
            _round(self.time),
            self.action_kind,
            self.action_signature,
            self.accepted,
            self.reason,
            self.baseline.signature(),
            None if self.candidate is None else self.candidate.signature(),
        )


class ShadowVerifier:
    """Score candidate actions in cloned short-horizon simulations."""

    def __init__(
        self,
        horizon_s: float = 240.0,
        attainment_margin: float = 0.0,
        attainment_tolerance: float = 0.005,
        cost_margin: float = 0.02,
        completion_floor: float = 0.5,
    ) -> None:
        from repro.serving.arrivals import check_horizon

        check_horizon(horizon_s)
        if not 0.0 <= completion_floor <= 1.0:
            raise ValueError("completion_floor must be in [0, 1]")
        self.horizon_s = float(horizon_s)
        self.attainment_margin = float(attainment_margin)
        self.attainment_tolerance = float(attainment_tolerance)
        self.cost_margin = float(cost_margin)
        self.completion_floor = float(completion_floor)

    # ------------------------------------------------------------------ #
    def score(self, spec: ShadowSpec, seed: int) -> ShadowScore:
        """One shadow replay of ``spec``; deterministic given (spec, seed)."""
        # Local imports: repro.serving imports nothing from this package,
        # but keeping the dependency one-directional at module-load time
        # makes the layering obvious (and cheap when the loop never fires).
        from repro.resilience import ResiliencePolicy
        from repro.resilience.admission import ConcurrencyLimitAdmission
        from repro.resilience.breaker import CircuitBreakerBank
        from repro.serving.arrivals import PoissonProcess
        from repro.serving.controller import StreamingPolicy
        from repro.serving.service import ServingSimulator
        from repro.serving.warmpool import FixedTTL, WarmPool

        pool = WarmPool(FixedTTL(spec.warm_ttl_s))
        pool.set_capacity(spec.pool_capacity)

        admission = None
        if spec.admission_limit is not None:
            admission = ConcurrencyLimitAdmission(max(1, spec.admission_limit))
        breakers = None
        if spec.breaker_failure_threshold is not None:
            breakers = CircuitBreakerBank(
                spec.config.fault_domains,
                rng=np.random.default_rng(seed),
                failure_threshold=spec.breaker_failure_threshold,
                recovery_s=spec.breaker_recovery_s,
            )
            for domain in spec.quarantined:
                breakers.quarantine(domain)
        resilience = None
        if admission is not None or breakers is not None:
            resilience = ResiliencePolicy(admission=admission, breakers=breakers)

        sim = ServingSimulator(
            spec.profile,
            spec.app,
            spec.exec_model,
            pool,
            config=spec.config,
            resilience=resilience,
            scenario=spec.scenario,
            retry_policy=spec.retry_policy,
            seed=seed,
        )
        run = sim.run(
            PoissonProcess(spec.arrival_rate_per_s),
            StreamingPolicy(
                degree=spec.degree, batch_timeout_s=spec.batch_timeout_s
            ),
            self.horizon_s,
        )
        return ShadowScore(
            attainment=run.windowed_p99_attainment(),
            cost_per_completed=run.cost_per_completed_request_usd(),
            completed=run.n_completed,
        )

    # ------------------------------------------------------------------ #
    def verify(
        self,
        action: "RemediationAction",
        spec: ShadowSpec,
        seed: int,
        baseline: ShadowScore,
        now: float,
    ) -> ShadowVerdict:
        """Rule on ``action``: does its counterfactual beat the baseline?"""
        candidate_spec = action.overlay(spec)
        if candidate_spec == spec:
            return ShadowVerdict(
                time=now,
                action_kind=action.kind,
                action_signature=action.signature(),
                accepted=False,
                reason="no-op overlay",
                baseline=baseline,
                candidate=None,
            )
        candidate = self.score(candidate_spec, seed)
        accepted, reason = self._rule(baseline, candidate)
        return ShadowVerdict(
            time=now,
            action_kind=action.kind,
            action_signature=action.signature(),
            accepted=accepted,
            reason=reason,
            baseline=baseline,
            candidate=candidate,
        )

    def _rule(
        self, baseline: ShadowScore, candidate: ShadowScore
    ) -> tuple[bool, str]:
        if candidate.completed == 0 and baseline.completed > 0:
            return False, "candidate completed nothing"
        # "Cheaper" by strangling throughput is not a win: per-completed
        # cost normalises away shed work, so guard the completion count.
        if candidate.completed < self.completion_floor * baseline.completed:
            return False, "completed-count collapse"
        gain = candidate.attainment - baseline.attainment
        if gain > self.attainment_margin:
            return True, f"attainment {gain:+.3f}"
        cheaper = (
            baseline.cost_per_completed > 0.0
            and candidate.cost_per_completed
            < baseline.cost_per_completed * (1.0 - self.cost_margin)
        )
        if gain >= -self.attainment_tolerance and cheaper:
            return True, "cheaper at attainment parity"
        return False, f"no improvement ({gain:+.3f})"


def scenario_for_shadow(
    scenario: Optional["FaultScenario"],
    poisoned: tuple[int, ...],
    shadow_horizon_s: float,
    live_horizon_s: float,
) -> Optional["FaultScenario"]:
    """The live scenario re-based for a short replay.

    Currently-poisoned domains become ``initially_poisoned`` (the shadow
    starts inside the storm, not before it), and the correlated-burst count
    is scaled to the horizon ratio so a short replay is not proportionally
    stormier than the live run.
    """
    if scenario is None:
        return None
    bursts = scenario.correlated_bursts
    if bursts > 0 and live_horizon_s > 0.0:
        bursts = max(1, round(bursts * shadow_horizon_s / live_horizon_s))
    return replace(
        scenario,
        initially_poisoned=tuple(sorted(poisoned)),
        correlated_bursts=bursts,
    )
