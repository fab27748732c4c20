"""Faults × serving composition: scenarios injected into the serving loop."""

import pytest

from repro.chaos import assert_serving_invariants, serving_violations
from repro.core.models import ExecutionTimeModel
from repro.extensions.streaming import StreamingPolicy
from repro.faults.retry import ExponentialBackoffRetry, ImmediateRetry, RetryBudget
from repro.faults.scenario import FaultScenario
from repro.platform.base import ServerlessPlatform
from repro.platform.invoker import BurstSpec
from repro.platform.providers import AWS_LAMBDA, GOOGLE_CLOUD_FUNCTIONS
from repro.resilience import (
    BrownoutController,
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
from repro.workloads import SORT, XAPIAN

import numpy as np

EXEC = ExecutionTimeModel(
    coeff_a=XAPIAN.base_seconds, coeff_b=0.03, mem_gb=XAPIAN.mem_gb
)
POLICY = StreamingPolicy(degree=6, batch_timeout_s=4.0)

CRASHY = FaultScenario(name="crashy", crash_rate=0.2, persistent_fraction=0.1,
                       poison_heal_s=120.0)


def make_simulator(profile=AWS_LAMBDA, scenario=None, resilience=None,
                   retry_policy=None, seed=11, config=ServingConfig()):
    return ServingSimulator(
        profile,
        XAPIAN,
        EXEC,
        pool=WarmPool(FixedTTL(60.0)),
        config=config,
        resilience=resilience,
        scenario=scenario,
        retry_policy=retry_policy,
        seed=seed,
    )


def full_protection(seed=11, config=ServingConfig()):
    return ResiliencePolicy(
        admission=ConcurrencyLimitAdmission(limit=48),
        breakers=CircuitBreakerBank(
            n_domains=config.fault_domains,
            rng=np.random.default_rng(seed),
            failure_threshold=3,
            recovery_s=30.0,
        ),
        brownout=BrownoutController(
            violation_threshold=0.02,
            backlog_threshold=config.backlog_threshold,
        ),
    )


def test_empty_resilience_policy_matches_legacy_bit_for_bit():
    legacy = make_simulator().run(PoissonProcess(2.0), POLICY, 600.0)
    empty = make_simulator(resilience=ResiliencePolicy()).run(
        PoissonProcess(2.0), POLICY, 600.0
    )
    assert legacy.signature() == empty.signature()
    assert legacy.expense.total_usd == empty.expense.total_usd


@pytest.mark.parametrize("max_retries", [2, 0])
def test_a_flaky_profile_crashes_serving_without_a_scenario(max_retries):
    """A serving run crashes at the profile's own ``failure_rate``, as a
    burst on that profile does, and retries under
    ``ImmediateRetry(profile.max_retries)``."""
    flaky = AWS_LAMBDA.with_overrides(failure_rate=0.2, max_retries=max_retries)
    result = make_simulator(profile=flaky, seed=3).run(
        PoissonProcess(2.0), StreamingPolicy(degree=4, batch_timeout_s=2.0), 600.0
    )
    rep = result.resilience
    assert rep.crashes > 0
    if max_retries:
        assert (rep.crashes, rep.retries, rep.failed_requests) == (83, 80, 10)
    else:
        assert rep.retries == 0 and rep.failed_requests > 0
    assert serving_violations(result) == []


def test_faulted_run_conserves_requests():
    result = make_simulator(scenario=CRASHY).run(PoissonProcess(2.0), POLICY, 900.0)
    assert_serving_invariants(result)
    assert result.resilience.crashes > 0
    assert result.resilience.retries > 0


def test_faulted_protected_run_is_deterministic():
    def one():
        sim = make_simulator(
            scenario=CRASHY,
            resilience=full_protection(),
            retry_policy=ExponentialBackoffRetry(max_retries=3),
        )
        return sim.run(PoissonProcess(3.0), POLICY, 900.0)

    a, b = one(), one()
    assert a.signature() == b.signature()
    assert a.expense.total_usd == b.expense.total_usd
    assert a.resilience.signature() == b.resilience.signature()


def test_crashes_bill_wasted_work():
    calm = make_simulator().run(PoissonProcess(2.0), POLICY, 900.0)
    faulted = make_simulator(scenario=CRASHY).run(PoissonProcess(2.0), POLICY, 900.0)
    assert faulted.resilience.wasted_gb_seconds > 0.0
    assert calm.resilience.wasted_gb_seconds == 0.0
    # Crashed attempts are billed up to the crash point, so the same
    # traffic costs more on a faulty platform.
    assert faulted.expense.total_usd > calm.expense.total_usd


def test_retry_egress_billed_on_gcf():
    result = make_simulator(
        profile=GOOGLE_CLOUD_FUNCTIONS, scenario=CRASHY
    ).run(PoissonProcess(2.0), POLICY, 900.0)
    assert result.resilience.retries > 0
    assert result.resilience.retry_egress_gb > 0.0
    assert result.expense.egress_usd > 0.0


def test_retry_egress_free_on_lambda():
    # AWS_LAMBDA prices intra-region egress at zero: the GB are tracked,
    # the dollars are not.
    result = make_simulator(profile=AWS_LAMBDA, scenario=CRASHY).run(
        PoissonProcess(2.0), POLICY, 900.0
    )
    assert result.resilience.retry_egress_gb > 0.0
    assert result.expense.egress_usd == 0.0


def test_retry_budget_caps_a_serving_run_as_it_caps_a_burst():
    """A RetryBudget is spent by the whole run: three retries in a serving
    run, as in a burst, however many batches crash."""
    scenario = FaultScenario(name="f", crash_rate=0.3)
    served = ServingSimulator(
        AWS_LAMBDA, XAPIAN, EXEC, pool=WarmPool(FixedTTL(60.0)),
        scenario=scenario, retry_policy=RetryBudget(ImmediateRetry(10), budget=3),
        seed=3,
    ).run(PoissonProcess(2.0), StreamingPolicy(degree=4, batch_timeout_s=2.0), 600.0)
    assert served.resilience.crashes > 3
    assert served.resilience.retries == 3
    burst = ServerlessPlatform(AWS_LAMBDA, seed=3).run_burst(
        BurstSpec(app=SORT, concurrency=400, packing_degree=2, scenario=scenario,
                  retry_policy=RetryBudget(ImmediateRetry(10), budget=3)),
        repetition=0,
    )
    assert burst.fault_stats.retries_scheduled == 3


def test_persistent_crashes_poison_domains_and_breakers_react():
    scenario = FaultScenario(name="poison", crash_rate=0.3,
                             persistent_fraction=0.5)
    sim = make_simulator(scenario=scenario, resilience=full_protection())
    result = sim.run(PoissonProcess(3.0), POLICY, 900.0)
    assert result.resilience.crashes > 0
    assert result.resilience.breaker_transitions > 0
    assert result.resilience.breaker_opens > 0


def test_poison_healing_reduces_failures():
    def run(heal):
        scenario = FaultScenario(name="poison", crash_rate=0.25,
                                 persistent_fraction=0.6, poison_heal_s=heal)
        return make_simulator(scenario=scenario).run(
            PoissonProcess(2.0), POLICY, 1800.0
        )

    never_heals = run(None)
    heals_fast = run(60.0)
    assert heals_fast.resilience.crashes < never_heals.resilience.crashes
    assert heals_fast.n_failed <= never_heals.n_failed


def test_correlated_bursts_kill_in_flight_work():
    scenario = FaultScenario(name="burst", correlated_bursts=4,
                             correlated_fraction=0.8,
                             correlated_window_s=600.0)
    result = make_simulator(scenario=scenario).run(
        PoissonProcess(3.0), POLICY, 600.0
    )
    assert result.resilience.correlated_kills > 0
    assert result.resilience.retries >= result.resilience.correlated_kills
    assert_serving_invariants(result)


def test_throttling_delays_or_drops_batches():
    scenario = FaultScenario(name="squeeze", throttle_capacity=2,
                             throttle_refill_per_s=0.05,
                             throttle_max_retries=2,
                             throttle_backoff_s=1.0)
    result = make_simulator(scenario=scenario).run(
        PoissonProcess(3.0), POLICY, 600.0
    )
    assert result.resilience.throttled_attempts > 0
    assert_serving_invariants(result)


def test_admission_sheds_under_load_and_accounts_exactly():
    resilience = ResiliencePolicy(admission=ConcurrencyLimitAdmission(limit=8))
    result = make_simulator(resilience=resilience).run(
        PoissonProcess(5.0), POLICY, 600.0
    )
    rep = result.resilience
    assert rep.shed_admission > 0
    assert rep.arrivals == rep.admitted + rep.shed
    assert sum(rep.shed_by_priority) == rep.shed
    assert result.n_requests == result.n_completed + result.n_shed + result.n_failed


def test_brownout_escalates_under_fault_pressure():
    config = ServingConfig(backlog_threshold=4)
    resilience = ResiliencePolicy(
        brownout=BrownoutController(violation_threshold=0.01,
                                    backlog_threshold=config.backlog_threshold)
    )
    result = make_simulator(
        scenario=CRASHY, resilience=resilience, config=config
    ).run(PoissonProcess(5.0), POLICY, 900.0)
    assert result.resilience.brownout_escalations > 0
    assert result.resilience.brownout_max_level >= 1


def test_backlog_stats_are_observed():
    result = make_simulator().run(PoissonProcess(5.0), POLICY, 600.0)
    assert result.backlog.max_depth > 0
    assert 0.0 <= result.backlog.mean_depth <= result.backlog.max_depth
    assert result.backlog.time_over_threshold_s >= 0.0


def test_windowed_attainment_and_cost_per_completed():
    result = make_simulator(scenario=CRASHY).run(PoissonProcess(2.0), POLICY, 900.0)
    assert 0.0 <= result.windowed_p99_attainment() <= 1.0
    assert result.cost_per_completed_request_usd() == pytest.approx(
        result.expense.total_usd / result.n_completed
    )


def test_config_validates_new_fields():
    with pytest.raises(ValueError):
        ServingConfig(backlog_threshold=0)
    with pytest.raises(ValueError):
        ServingConfig(fault_domains=0)
    with pytest.raises(ValueError):
        ServingConfig(max_breaker_deferrals=0)


# --------------------------------------------------------------------- #
# gray failures in the serving loop
# --------------------------------------------------------------------- #
def test_gray_domains_slow_completions_without_crashing():
    gray = FaultScenario(name="gray-window", gray_domains=(0, 1, 2, 3),
                         gray_slowdown=6.0, gray_onset_s=0.0)
    slowed = make_simulator(scenario=gray).run(PoissonProcess(2.0), POLICY, 600.0)
    baseline = make_simulator(
        scenario=FaultScenario(name="calm")
    ).run(PoissonProcess(2.0), POLICY, 600.0)
    # Gray never trips crash detectors: no crashes, no retries, everything
    # conserves — but the storm is visible in latency and billed compute.
    assert slowed.resilience.crashes == baseline.resilience.crashes
    assert_serving_invariants(slowed)
    assert slowed.n_requests == baseline.n_requests  # same arrival draws
    assert slowed.p99_sojourn_s > baseline.p99_sojourn_s
    assert slowed.expense.total_usd > baseline.expense.total_usd


def test_gray_outside_window_is_baseline_identical():
    """A gray window that never opens must be byte-identical to no gray
    at all — the model consumes zero RNG draws."""
    dormant = FaultScenario(name="dormant", gray_domains=(0,),
                            gray_slowdown=8.0, gray_onset_s=1e9)
    gray_run = make_simulator(scenario=dormant).run(
        PoissonProcess(2.0), POLICY, 600.0
    )
    plain_run = make_simulator(
        scenario=FaultScenario(name="calm")
    ).run(PoissonProcess(2.0), POLICY, 600.0)
    assert gray_run.signature() == plain_run.signature()
