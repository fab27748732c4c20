"""Unit tests for the auto-remediation control plane.

Covers each stage in isolation — actions against a fake actuator port,
detectors on synthetic :class:`LoopView` snapshots, the risk-ranked
scheduler's cooldown/rollback bookkeeping, the shadow verifier's decision
rule — and then the assembled loop end-to-end inside a real serving run.
"""

import json
import math

import numpy as np
import pytest

from repro.chaos import assert_serving_invariants
from repro.core.models import ExecutionTimeModel
from repro.extensions.streaming import StreamingPolicy
from repro.faults.retry import ExponentialBackoffRetry
from repro.faults.scenario import FaultScenario
from repro.platform.providers import GOOGLE_CLOUD_FUNCTIONS
from repro.remediation import (
    BacklogGrowthDetector,
    BreakerFlapDetector,
    Detection,
    DomainPoisonDetector,
    LoopView,
    QuarantineDomain,
    QuarantineProposer,
    RecoveryDetector,
    ReleaseDomain,
    RemediationConfig,
    RemediationLoop,
    ResizeWarmPool,
    RiskRankedScheduler,
    SetAdmissionLimit,
    SetPackingDegree,
    ShadowScore,
    ShadowVerifier,
    SLOBurnDetector,
    scenario_for_shadow,
)
from repro.resilience import (
    CircuitBreakerBank,
    ConcurrencyLimitAdmission,
    ResiliencePolicy,
)
from repro.serving import (
    FixedTTL,
    PoissonProcess,
    ServingConfig,
    ServingSimulator,
    WarmPool,
)
from repro.workloads import XAPIAN

SEED = 2023


# --------------------------------------------------------------------- #
# Fakes
# --------------------------------------------------------------------- #
class FakeActuators:
    """In-memory knob state implementing the Actuators protocol."""

    def __init__(self, degree=4, pool_capacity=8, admission_limit=40):
        self.degree = degree
        self.pool_capacity = pool_capacity
        self.admission_limit = admission_limit
        self.quarantined: set[int] = set()

    def get_degree(self):
        return self.degree

    def set_degree(self, degree):
        self.degree = degree

    def get_pool_capacity(self):
        return self.pool_capacity

    def set_pool_capacity(self, capacity):
        self.pool_capacity = capacity

    def get_admission_limit(self):
        return self.admission_limit

    def set_admission_limit(self, limit):
        self.admission_limit = limit

    def quarantined_domains(self):
        return frozenset(self.quarantined)

    def quarantine_domain(self, domain):
        self.quarantined.add(domain)

    def release_domain(self, domain):
        self.quarantined.discard(domain)


def make_view(**overrides):
    base = dict(
        now=60.0,
        violation_fraction=0.0,
        backlog_depth=0,
        backlog_threshold=50,
        in_flight=4,
        arrival_rate_per_s=1.0,
        degree=4,
        max_degree=12,
        pool_capacity=8,
        admission_limit=40,
        baseline_admission_limit=40,
        n_domains=4,
        open_domains=(),
        quarantined_domains=(),
        breaker_flaps=(0, 0, 0, 0),
        crashes_by_domain=(0, 0, 0, 0),
        predict_exec_s=lambda d: 12.0 + 0.4 * d,
    )
    base.update(overrides)
    return LoopView(**base)


# --------------------------------------------------------------------- #
# Actions
# --------------------------------------------------------------------- #
def test_actions_apply_and_invert_round_trip():
    acts = FakeActuators(degree=4, pool_capacity=8, admission_limit=40)
    for action, attr, target in [
        (SetPackingDegree(6), "degree", 6),
        (ResizeWarmPool(16), "pool_capacity", 16),
        (SetAdmissionLimit(20), "admission_limit", 20),
    ]:
        before = getattr(acts, attr)
        inverse = action.apply(acts)
        assert getattr(acts, attr) == target
        inverse.apply(acts)
        assert getattr(acts, attr) == before


def test_quarantine_release_invert_each_other():
    acts = FakeActuators()
    inv = QuarantineDomain(2).apply(acts)
    assert acts.quarantined == {2}
    assert isinstance(inv, ReleaseDomain) and inv.domain == 2
    inv2 = inv.apply(acts)
    assert acts.quarantined == set()
    assert isinstance(inv2, QuarantineDomain)
    # Applying to an already-clean state is a no-op with no inverse.
    assert ReleaseDomain(2).apply(acts) is None
    acts.quarantined.add(1)
    assert QuarantineDomain(1).apply(acts) is None


def test_no_op_apply_returns_none():
    acts = FakeActuators(degree=4)
    assert SetPackingDegree(4).apply(acts) is None
    assert ResizeWarmPool(8).apply(acts) is None
    assert SetAdmissionLimit(40).apply(acts) is None


def test_uncapped_pool_inverse_restores_none():
    acts = FakeActuators(pool_capacity=None)
    inverse = ResizeWarmPool(8).apply(acts)
    assert acts.pool_capacity == 8
    inverse.apply(acts)
    assert acts.pool_capacity is None


def test_admission_action_requires_overridable_limit():
    acts = FakeActuators(admission_limit=None)
    with pytest.raises(ValueError):
        SetAdmissionLimit(10).apply(acts)


def test_action_keys_scope_cooldowns():
    # Domain actions are independent per domain; knob turns share one slot.
    assert QuarantineDomain(0).key() != QuarantineDomain(1).key()
    assert SetPackingDegree(4).key() == SetPackingDegree(8).key()
    assert QuarantineDomain(1).key() != ReleaseDomain(1).key()


# --------------------------------------------------------------------- #
# Detectors
# --------------------------------------------------------------------- #
def test_slo_burn_requires_consecutive_ticks():
    det = SLOBurnDetector(budget=0.05, consecutive=2)
    assert det.observe(make_view(violation_fraction=0.2)) == []
    hits = det.observe(make_view(violation_fraction=0.2))
    assert len(hits) == 1 and hits[0].kind == "slo-burn"
    # A healthy tick resets the streak.
    assert det.observe(make_view(violation_fraction=0.0)) == []
    assert det.observe(make_view(violation_fraction=0.2)) == []


def test_backlog_growth_requires_threshold_and_growth():
    det = BacklogGrowthDetector(consecutive=2)
    assert det.observe(make_view(backlog_depth=60)) == []
    assert len(det.observe(make_view(backlog_depth=80))) == 1
    # Draining backlog stops firing even while above threshold.
    assert det.observe(make_view(backlog_depth=70)) == []


def test_breaker_flap_detector_windows_deltas():
    det = BreakerFlapDetector(flap_threshold=2, window_ticks=3)
    det.observe(make_view(breaker_flaps=(0, 0, 0, 0)))
    det.observe(make_view(breaker_flaps=(1, 0, 0, 0)))
    hits = det.observe(make_view(breaker_flaps=(3, 0, 0, 0)))
    assert len(hits) == 1
    assert hits[0].get("domain") == 0 and hits[0].get("flaps") == 3
    # Quarantined domains are not re-flagged.
    det2 = BreakerFlapDetector(flap_threshold=2, window_ticks=3)
    det2.observe(make_view(breaker_flaps=(0, 0, 0, 0)))
    assert det2.observe(make_view(
        breaker_flaps=(3, 0, 0, 0), quarantined_domains=(0,)
    )) == []


def test_domain_poison_detector_counter_fallback():
    det = DomainPoisonDetector(crash_threshold=3, window_ticks=5, share=0.5)
    det.observe(make_view(crashes_by_domain=(0, 0, 0, 0)))
    assert det.observe(make_view(crashes_by_domain=(1, 1, 0, 0))) == []
    hits = det.observe(make_view(crashes_by_domain=(5, 1, 0, 0)))
    assert len(hits) == 1 and hits[0].get("domain") == 0


def test_recovery_fires_only_while_holding_back():
    det = RecoveryDetector(budget=0.02, healthy_ticks=2)
    tight = dict(admission_limit=20, baseline_admission_limit=40)
    assert det.observe(make_view(**tight)) == []
    assert len(det.observe(make_view(**tight))) == 1
    # Nothing held back -> no recovery events even when healthy.
    det.reset()
    det.observe(make_view())
    assert det.observe(make_view()) == []
    # Outstanding quarantines count as holding back.
    det.reset()
    det.observe(make_view(quarantined_domains=(1,)))
    assert len(det.observe(make_view(quarantined_domains=(1,)))) == 1


def test_quarantine_proposer_releases_on_recovery():
    proposer = QuarantineProposer()
    recovered = Detection(time=120.0, kind="recovered", severity=0.1)
    actions = proposer.propose(
        recovered, make_view(quarantined_domains=(1, 3))
    )
    assert [a.domain for a in actions] == [1, 3]
    assert all(isinstance(a, ReleaseDomain) for a in actions)
    # Never quarantines down to the last routable domain.
    poisoned = Detection(
        time=120.0, kind="domain-poisoning", severity=0.9,
        detail=(("domain", 2),),
    )
    assert proposer.propose(
        poisoned, make_view(quarantined_domains=(0, 1), n_domains=3)
    ) == []


# --------------------------------------------------------------------- #
# Scheduler
# --------------------------------------------------------------------- #
def test_scheduler_orders_by_risk_and_caps():
    sched = RiskRankedScheduler(cooldown_s=300.0, max_actions_per_tick=2)
    actions = [SetPackingDegree(8), QuarantineDomain(1), SetAdmissionLimit(20)]
    chosen = sched.select(actions, now=60.0)
    assert [a.kind for a in chosen] == [
        "quarantine-domain", "set-admission-limit"
    ]


def test_scheduler_cooldown_blocks_repeat_keys():
    sched = RiskRankedScheduler(cooldown_s=300.0)
    action = SetAdmissionLimit(20)
    sched.on_applied(action, SetAdmissionLimit(40), now=60.0, violation=0.1)
    assert sched.select([SetAdmissionLimit(10)], now=120.0) == []
    # A different key is unaffected; the same key frees after cooldown.
    assert sched.select([QuarantineDomain(0)], now=120.0) != []
    assert sched.select([SetAdmissionLimit(10)], now=361.0) != []


def test_scheduler_rolls_back_on_regression():
    sched = RiskRankedScheduler(
        cooldown_s=300.0, rollback_window_s=600.0, regression_margin=0.10
    )
    action = SetAdmissionLimit(20)
    sched.on_applied(action, SetAdmissionLimit(40), now=60.0, violation=0.05)
    # Within margin: no rollback.
    assert sched.due_rollbacks(now=120.0, violation=0.10) == []
    due = sched.due_rollbacks(now=180.0, violation=0.30)
    assert len(due) == 1 and due[0].action is action
    assert due[0].rolled_back
    # The key now sits in the extended cooldown.
    assert not sched.ready(action.key(), now=500.0)
    # Watch list is pruned; no double rollback.
    assert sched.due_rollbacks(now=240.0, violation=0.9) == []


def test_scheduler_watch_expires_after_window():
    sched = RiskRankedScheduler(rollback_window_s=600.0)
    sched.on_applied(QuarantineDomain(0), ReleaseDomain(0), 60.0, 0.0)
    assert sched.due_rollbacks(now=700.0, violation=1.0) == []
    assert sched.watched == 0


# --------------------------------------------------------------------- #
# Shadow verifier rule
# --------------------------------------------------------------------- #
def _score(att, cost, completed=100):
    return ShadowScore(
        attainment=att, cost_per_completed=cost, completed=completed
    )


@pytest.mark.parametrize("horizon_s", [float("nan"), float("inf"), 0.0])
def test_verifier_rejects_a_non_finite_or_non_positive_horizon(horizon_s):
    with pytest.raises(ValueError, match="horizon_s"):
        ShadowVerifier(horizon_s=horizon_s)


def test_verifier_rule_accepts_attainment_gain():
    v = ShadowVerifier()
    ok, reason = v._rule(_score(0.5, 0.002), _score(0.6, 0.002))
    assert ok and "attainment" in reason


def test_verifier_rule_accepts_cheaper_at_parity():
    v = ShadowVerifier(cost_margin=0.02)
    ok, reason = v._rule(_score(0.5, 0.002), _score(0.5, 0.0015))
    assert ok and reason == "cheaper at attainment parity"


def test_verifier_rule_rejects_regression_and_collapse():
    v = ShadowVerifier()
    assert not v._rule(_score(0.5, 0.002), _score(0.3, 0.001))[0]
    # Cheaper per completed request by completing half as much: rejected.
    ok, reason = v._rule(
        _score(0.5, 0.002, completed=100), _score(0.5, 0.001, completed=20)
    )
    assert not ok and reason == "completed-count collapse"
    assert not v._rule(
        _score(0.5, 0.002, completed=50), _score(0.5, 0.0, completed=0)
    )[0]


def test_scenario_for_shadow_rebases_poison_and_bursts():
    scenario = FaultScenario(
        name="storm", crash_rate=0.05, correlated_bursts=4,
        correlated_fraction=0.3, correlated_window_s=40.0,
    )
    shadow = scenario_for_shadow(
        scenario, poisoned=(2, 0), shadow_horizon_s=240.0,
        live_horizon_s=3600.0,
    )
    assert shadow.initially_poisoned == (0, 2)
    assert shadow.correlated_bursts == 1  # 4 * 240/3600, floored at >= 1
    assert scenario_for_shadow(None, (0,), 240.0, 3600.0) is None


# --------------------------------------------------------------------- #
# End-to-end inside a serving run
# --------------------------------------------------------------------- #
def _exec_model():
    return ExecutionTimeModel(
        coeff_a=XAPIAN.base_seconds, coeff_b=0.03, mem_gb=XAPIAN.mem_gb
    )


def _scenario():
    return FaultScenario(
        name="poison-test",
        crash_rate=0.04,
        correlated_bursts=2,
        correlated_fraction=0.5,
        correlated_window_s=120.0,
        persistent_fraction=0.5,
        poison_heal_s=600.0,
        straggler_rate=0.01,
    )


def _simulator(loop, seed=SEED):
    config = ServingConfig(qos_sojourn_s=45.0)
    return ServingSimulator(
        GOOGLE_CLOUD_FUNCTIONS,
        XAPIAN,
        _exec_model(),
        pool=WarmPool(FixedTTL(120.0)),
        config=config,
        resilience=ResiliencePolicy(
            admission=ConcurrencyLimitAdmission(limit=64),
            breakers=CircuitBreakerBank(
                n_domains=config.fault_domains,
                rng=np.random.default_rng(seed),
                failure_threshold=5,
                recovery_s=45.0,
            ),
        ),
        scenario=_scenario(),
        retry_policy=ExponentialBackoffRetry(max_retries=3),
        seed=seed,
        remediation=loop,
    )


@pytest.mark.parametrize(
    "name, value",
    [
        # Unchecked, a NaN tick interval fails inside the run, naming no field.
        ("tick_interval_s", math.nan),
        ("shadow_horizon_s", math.inf),
        ("cooldown_s", -1.0),
        ("rollback_window_s", math.nan),
        ("regression_margin", -0.1),
        ("attainment_margin", math.nan),
        ("cost_margin", math.inf),
        ("min_arrival_rate_per_s", math.nan),
    ],
)
def test_config_rejects_each_bad_field_by_name(name, value):
    with pytest.raises(ValueError, match=name):
        RemediationConfig(**{name: value})


def _loop():
    return RemediationLoop(RemediationConfig(
        tick_interval_s=60.0, shadow_horizon_s=120.0
    ))


def _run(loop, horizon_s=1800.0, seed=SEED):
    return _simulator(loop, seed=seed).run(
        PoissonProcess(1.5),
        StreamingPolicy(degree=4, batch_timeout_s=2.0),
        horizon_s,
    )


def test_loop_end_to_end_conserves_and_reports():
    run = _run(_loop())
    assert_serving_invariants(run)
    report = run.remediation
    assert report is not None
    assert report.ticks == 30  # one per minute over 1800 s
    assert report.n_detections > 0
    assert report.n_applied > 0
    # Applications are a subset of accepted verdicts under the tick cap.
    assert report.n_applied <= report.n_accepted


def test_loop_report_byte_identical_per_seed():
    sig_a = _run(_loop()).remediation.signature()
    sig_b = _run(_loop()).remediation.signature()
    assert sig_a == sig_b
    # A different seed produces a genuinely different timeline.
    sig_c = _run(_loop(), seed=7).remediation.signature()
    assert sig_a != sig_c


def test_loop_without_remediation_attaches_no_report():
    run = _run(None)
    assert run.remediation is None


def test_remediation_report_excluded_from_result_signature():
    plain = _run(None)
    remediated = _run(_loop())
    # The report rides on the result object without entering its seeded
    # signature (signature() pins serving-level metrics only).
    assert "remediation" not in str(plain.signature())
    assert len(plain.signature()) == len(remediated.signature())


def test_report_jsonl_is_valid_and_time_ordered():
    report = _run(_loop()).remediation
    lines = report.to_jsonl().strip().splitlines()
    assert len(lines) == (
        report.n_detections + report.n_proposals + len(report.verdicts)
        + report.n_applied + report.n_rollbacks
    )
    times = []
    for line in lines:
        event = json.loads(line)
        assert event["stage"] in (
            "detection", "proposal", "verdict", "apply", "rollback"
        )
        times.append(event["t"])
    assert times == sorted(times)


def test_loop_verify_off_applies_unverified():
    loop = RemediationLoop(RemediationConfig(
        tick_interval_s=60.0, shadow_horizon_s=120.0, verify=False
    ))
    run = _run(loop, horizon_s=900.0)
    report = run.remediation
    assert report.verdicts == []
    assert report.n_applied > 0


def test_initially_poisoned_domains_start_poisoned():
    scenario = FaultScenario(
        name="pre-poisoned",
        crash_rate=0.02,
        persistent_fraction=0.5,
        poison_heal_s=300.0,
        initially_poisoned=(0, 2),
    )
    config = ServingConfig()
    sim = ServingSimulator(
        GOOGLE_CLOUD_FUNCTIONS,
        XAPIAN,
        _exec_model(),
        pool=WarmPool(FixedTTL(60.0)),
        config=config,
        scenario=scenario,
        seed=SEED,
    )
    run = sim.run(
        PoissonProcess(0.5),
        StreamingPolicy(degree=2, batch_timeout_s=2.0),
        300.0,
    )
    assert_serving_invariants(run)
    # Same seed, no pre-poisoning: the runs must diverge (the poisoned
    # domains elevate crash probabilities from t=0).
    clean = ServingSimulator(
        GOOGLE_CLOUD_FUNCTIONS,
        XAPIAN,
        _exec_model(),
        pool=WarmPool(FixedTTL(60.0)),
        config=config,
        scenario=FaultScenario(
            name="pre-poisoned", crash_rate=0.02,
            persistent_fraction=0.5, poison_heal_s=300.0,
        ),
        seed=SEED,
    ).run(
        PoissonProcess(0.5),
        StreamingPolicy(degree=2, batch_timeout_s=2.0),
        300.0,
    )
    assert run.n_requests == clean.n_requests  # arrivals share the seed


def test_shadow_seed_consumes_no_live_draws():
    from repro.serving.service import _RemediationPort, _ServingRun
    from repro.sim.randomness import RandomStreams

    def live_run():
        return _ServingRun(
            _simulator(_loop()), PoissonProcess(1.5),
            StreamingPolicy(degree=4, batch_timeout_s=2.0), 600.0, 0,
        )

    a, b = live_run(), live_run()
    port = _RemediationPort(a)
    seed = port.shadow_seed("shadow/1")
    # The seed is spawned off the run's streams without drawing from them.
    assert a.rng.stream("probe").random() == b.rng.stream("probe").random()
    assert seed == RandomStreams(SEED).spawn("serving/r0").spawn("shadow/1").seed
    # Same label -> same seed; different labels diverge.
    assert seed == _RemediationPort(b).shadow_seed("shadow/1")
    assert seed != port.shadow_seed("shadow/2")
