"""Deterministic chaos: fault scenarios on the simulated platform.

Every test here drives ``BurstSpec.scenario`` through the real invoker and
asserts on the resulting :class:`FaultStats`. The determinism tests are the
acceptance criterion for the subsystem: same seed + same scenario must
reproduce the identical fault schedule, bit for bit.
"""

import dataclasses

import pytest

from repro.faults import (
    FLAKY,
    SCENARIOS,
    STORMY,
    THROTTLED,
    ExponentialBackoffRetry,
    FaultScenario,
    HedgePolicy,
)
from repro.platform.base import ServerlessPlatform
from repro.platform.invoker import BurstSpec, FunctionTimeoutError
from repro.platform.providers import AWS_LAMBDA
from repro.workloads import SORT, STATELESS_COST
from repro.workloads.synthetic import make_synthetic


def run(scenario, *, seed=42, concurrency=300, profile=AWS_LAMBDA, **spec_kw):
    platform = ServerlessPlatform(profile, seed=seed)
    spec = BurstSpec(app=SORT, concurrency=concurrency, scenario=scenario, **spec_kw)
    return platform.run_burst(spec, repetition=0)


def completed_functions(result):
    return sum(r.n_packed for r in result.successful_records)


# --------------------------------------------------------------------- #
# Determinism (acceptance criterion)
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_same_seed_same_scenario_is_bit_identical(name):
    scenario = SCENARIOS[name]
    a = run(scenario, seed=7)
    b = run(scenario, seed=7)
    assert a.fault_stats.signature() == b.fault_stats.signature()
    assert a.expense.total_usd == b.expense.total_usd
    if a.successful_records:
        assert a.service_time("total") == b.service_time("total")
    # The full event schedule matches, not just the aggregates.
    sched_a = [(r.instance_id, r.attempt, r.exec_start, r.exec_end, r.failed)
               for r in a.records]
    sched_b = [(r.instance_id, r.attempt, r.exec_start, r.exec_end, r.failed)
               for r in b.records]
    assert sched_a == sched_b


def test_different_seeds_differ():
    a = run(FLAKY, seed=1)
    b = run(FLAKY, seed=2)
    assert a.fault_stats.signature() != b.fault_stats.signature()


def test_enabling_faults_does_not_perturb_execution_streams():
    """Fault draws come from dedicated RNG streams: a calm scenario must
    reproduce the no-scenario run's expense and timings exactly."""
    base = run(None, seed=11)
    calm = run(SCENARIOS["calm"], seed=11)
    assert calm.expense.total_usd == pytest.approx(base.expense.total_usd)
    assert calm.service_time("total") == pytest.approx(base.service_time("total"))


# --------------------------------------------------------------------- #
# Crash scenarios
# --------------------------------------------------------------------- #

def test_flaky_scenario_overrides_profile_rate():
    result = run(FLAKY, seed=3)
    stats = result.fault_stats
    assert stats.crashed_attempts > 20  # ~15% of 300+
    assert completed_functions(result) + result.lost_functions == 300


def test_persistent_faults_poison_every_retry():
    scenario = FaultScenario(name="poison", crash_rate=0.05, persistent_fraction=1.0)
    result = run(scenario, seed=5)
    # Every first-attempt crash dooms its group: retries all crash too.
    poisoned = [r for r in result.records if r.persistent_fault]
    assert poisoned
    assert all(r.failed for r in poisoned)
    assert result.lost_functions > 0
    assert completed_functions(result) + result.lost_functions == 300


def test_correlated_bursts_kill_inflight_instances():
    result = run(STORMY, seed=9, concurrency=500)
    stats = result.fault_stats
    assert stats.correlated_crashes > 0
    correlated = [r for r in result.records if r.correlated]
    assert len(correlated) == stats.correlated_crashes
    assert completed_functions(result) + result.lost_functions == 500


# --------------------------------------------------------------------- #
# Throttling
# --------------------------------------------------------------------- #

def test_throttled_scenario_rejects_then_recovers():
    result = run(THROTTLED, seed=13, concurrency=2000)
    stats = result.fault_stats
    assert stats.throttled_attempts > 0
    # The bucket refills, so throttled invocations eventually get through.
    assert completed_functions(result) + result.lost_functions == 2000
    assert result.lost_functions == 0
    throttled = [r for r in result.records if r.throttled_attempts > 0]
    assert throttled
    assert all(r.invoked_at > 0.0 for r in throttled)


def test_strict_quota_delays_service_time():
    # Refill far below the placement-loop service rate, so admission (not
    # the cold pipeline) is the bottleneck and the tail stretches.
    quota = FaultScenario(
        name="strict-quota",
        throttle_capacity=10,
        throttle_refill_per_s=1.0,
        throttle_max_retries=1000,
        throttle_backoff_s=0.2,
    )
    calm = run(None, seed=13, concurrency=60)
    throttled = run(quota, seed=13, concurrency=60)
    assert max(r.invoked_at for r in throttled.records) > 20.0
    assert throttled.service_time("total") > calm.service_time("total")


def test_exhausted_throttle_retries_lose_functions():
    quota = FaultScenario(
        name="hard-quota",
        throttle_capacity=5,
        throttle_refill_per_s=0.5,
        throttle_max_retries=2,
        throttle_backoff_s=0.1,
    )
    result = run(quota, seed=19, concurrency=200)
    stats = result.fault_stats
    assert stats.throttle_rejections_final > 0
    assert result.lost_functions >= stats.throttle_rejections_final
    assert completed_functions(result) + result.lost_functions == 200


@pytest.mark.parametrize("capacity", [100, 110])
@pytest.mark.parametrize("seed", [0, 1, 3])
def test_a_throttle_rejected_hedge_drops_only_itself(seed, capacity):
    """A hedge's final 429 loses the hedge, not its group: the primary keeps
    running, and only admitted hedges count as hedged attempts."""
    quota = FaultScenario(
        straggler_rate=0.3,
        throttle_capacity=capacity,
        throttle_refill_per_s=1e-6,
        throttle_max_retries=0,
    )
    result = run(
        quota, seed=seed, concurrency=200, packing_degree=2, hedge=HedgePolicy()
    )
    stats = result.fault_stats
    assert stats.throttled_attempts > 0
    assert completed_functions(result) + result.lost_functions == 200
    assert stats.hedged_attempts == sum(r.hedged for r in result.records)


# --------------------------------------------------------------------- #
# Stragglers
# --------------------------------------------------------------------- #

def test_stragglers_only_slow_down():
    scenario = FaultScenario(name="slow", straggler_rate=1.0)
    straggled = run(scenario, seed=17, concurrency=100)
    clean = run(None, seed=17, concurrency=100)
    assert straggled.fault_stats.crashed_attempts == 0
    assert straggled.mean_exec_seconds > clean.mean_exec_seconds
    # Exec-noise streams are untouched, so the slowdown is the straggler
    # factor alone: every execution is strictly longer.
    clean_by_id = {r.instance_id: r for r in clean.records}
    for r in straggled.records:
        assert r.exec_seconds > clean_by_id[r.instance_id].exec_seconds


# --------------------------------------------------------------------- #
# Billed timeouts
# --------------------------------------------------------------------- #

TIMEOUT_APP_KW = dict(base_seconds=800.0, mem_mb=1024, pressure_per_gb=0.5)


def test_legacy_timeout_bills_full_cap():
    app = make_synthetic(**TIMEOUT_APP_KW)
    platform = ServerlessPlatform(AWS_LAMBDA, seed=1)
    with pytest.raises(FunctionTimeoutError) as excinfo:
        platform.run_burst(BurstSpec(app=app, concurrency=8, packing_degree=8))
    err = excinfo.value
    assert err.billed_usd > 0.0
    assert err.record is not None and err.record.timed_out
    # Billed for exactly the platform cap, not the would-be duration.
    billed_seconds = err.record.exec_end - err.record.exec_start
    assert billed_seconds == pytest.approx(AWS_LAMBDA.max_execution_seconds)


def test_scenario_timeouts_are_billed_and_retried():
    app = make_synthetic(**TIMEOUT_APP_KW)
    platform = ServerlessPlatform(AWS_LAMBDA, seed=1)
    result = platform.run_burst(
        BurstSpec(app=app, concurrency=8, packing_degree=8, scenario=FaultScenario())
    )
    stats = result.fault_stats
    assert stats.timed_out_attempts > 0
    timed_out = [r for r in result.records if r.timed_out]
    cap = AWS_LAMBDA.max_execution_seconds
    for r in timed_out:
        assert r.exec_end - r.exec_start == pytest.approx(cap)
    # The full-cap charge lands in the run's billed GB-seconds.
    assert stats.wasted_billed_gb_seconds > 0.0
    waste_floor = sum(cap * r.provisioned_mb / 1024.0 for r in timed_out)
    assert stats.wasted_billed_gb_seconds >= waste_floor * 0.999


def test_timeouts_can_be_terminal():
    app = make_synthetic(**TIMEOUT_APP_KW)
    scenario = FaultScenario(name="no-timeout-retry", retry_timeouts=False)
    platform = ServerlessPlatform(AWS_LAMBDA, seed=1)
    result = platform.run_burst(
        BurstSpec(app=app, concurrency=8, packing_degree=8, scenario=scenario)
    )
    assert result.lost_functions > 0


# --------------------------------------------------------------------- #
# Retry policies and hedging through the invoker
# --------------------------------------------------------------------- #

def test_backoff_policy_delays_retries():
    immediate = run(FLAKY, seed=21)
    backed_off = run(
        FLAKY, seed=21,
        retry_policy=ExponentialBackoffRetry(base_s=2.0, cap_s=30.0, max_retries=4),
    )
    assert backed_off.fault_stats.retry_delay_s_total > 0.0
    assert immediate.fault_stats.retry_delay_s_total == 0.0
    retried = [r for r in backed_off.records if r.attempt > 1 and not r.hedged]
    assert retried and all(r.retry_delay_s >= 2.0 for r in retried)


def test_hedging_launches_speculative_twins():
    scenario = dataclasses.replace(
        FaultScenario(name="tail"), straggler_rate=0.2, straggler_mu=2.0
    )
    result = run(
        scenario, seed=23, concurrency=200,
        hedge=HedgePolicy(trigger_factor=1.5, max_hedges_per_group=1),
    )
    stats = result.fault_stats
    assert stats.hedged_attempts > 0
    assert stats.hedge_wins > 0  # hedges beat stragglers sometimes
    assert completed_functions(result) + result.lost_functions == 200
    # Exactly one completion is counted per function group.
    cancelled = [r for r in result.records if r.cancelled]
    assert cancelled  # losers of the race are cancelled, not double-counted


def test_stateless_app_supports_scenarios():
    platform = ServerlessPlatform(AWS_LAMBDA, seed=29)
    result = platform.run_burst(
        BurstSpec(app=STATELESS_COST, concurrency=150, scenario=FLAKY)
    )
    assert result.fault_stats.crashed_attempts > 0
    assert completed_functions(result) + result.lost_functions == 150


@pytest.mark.parametrize("field", [
    "correlated_window_s", "throttle_refill_per_s", "throttle_backoff_s",
    "poison_heal_s", "straggler_mu", "straggler_sigma", "gray_slowdown",
    "gray_onset_s", "gray_heal_s",
])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_fields_fail_at_construction(field, value):
    """Each of these used to construct. An infinite or NaN window ended a
    burst with ``OverflowError``, a NaN refill ran it unthrottled, a NaN
    backoff or straggler parameter ended it with ``SimulationError``, an
    infinite straggler mean lost functions, and a NaN slowdown, onset or
    heal time served as another value."""
    kwargs = {field: value}
    if field.startswith("throttle_"):
        kwargs["throttle_capacity"] = 5
    with pytest.raises(ValueError, match=field):
        FaultScenario(name="bad", **kwargs)
    with pytest.raises(ValueError, match=field):  # a manifest builds through it
        FaultScenario.from_dict({**SCENARIOS["calm"].to_dict(), **kwargs})


# --------------------------------------------------------------------- #
# gray failures (slow-but-alive fault domains)
# --------------------------------------------------------------------- #
class TestGrayFailures:
    def test_gray_factor_window_semantics(self):
        scenario = FaultScenario(
            name="gray", gray_domains=(1, 3), gray_slowdown=4.0,
            gray_onset_s=100.0, gray_heal_s=200.0,
        )
        assert scenario.gray_active
        assert scenario.gray_factor(1, 50.0) == 1.0       # before onset
        assert scenario.gray_factor(1, 100.0) == 4.0      # onset inclusive
        assert scenario.gray_factor(3, 250.0) == 4.0      # inside window
        assert scenario.gray_factor(1, 300.0) == 1.0      # heal boundary
        assert scenario.gray_factor(2, 150.0) == 1.0      # healthy domain
        assert scenario.gray_factor(None, 150.0) == 1.0   # undomained

    def test_gray_without_heal_never_recovers(self):
        scenario = FaultScenario(name="gray", gray_domains=(0,),
                                 gray_slowdown=2.0, gray_onset_s=10.0)
        assert scenario.gray_factor(0, 1e9) == 2.0

    def test_gray_is_draw_free(self):
        """Gray degradation must consume zero RNG draws — pre-existing
        goldens pin exact stream consumption, so gray is a pure function
        of (domain, time)."""
        scenario = FaultScenario(name="gray", gray_domains=(0,),
                                 gray_slowdown=3.0)
        for _ in range(3):
            assert scenario.gray_factor(0, 5.0) == 3.0

    def test_gray_validation(self):
        with pytest.raises(ValueError, match="gray_slowdown"):
            FaultScenario(name="bad", gray_slowdown=0.5)
        with pytest.raises(ValueError, match="gray_domains"):
            FaultScenario(name="bad", gray_domains=(-1,))
        with pytest.raises(ValueError, match="gray_onset_s"):
            FaultScenario(name="bad", gray_onset_s=-1.0)
        with pytest.raises(ValueError, match="gray_heal_s"):
            FaultScenario(name="bad", gray_heal_s=0.0)

    def test_inactive_without_domains_or_slowdown(self):
        assert not FaultScenario(name="x", gray_slowdown=5.0).gray_active
        assert not FaultScenario(name="x", gray_domains=(0,)).gray_active


class TestScenarioSerialization:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_presets_round_trip(self, name):
        scenario = SCENARIOS[name]
        assert FaultScenario.from_dict(scenario.to_dict()) == scenario

    def test_gray_fields_round_trip(self):
        scenario = FaultScenario(
            name="gray", gray_domains=(2, 5), gray_slowdown=3.5,
            gray_onset_s=60.0, gray_heal_s=120.0,
        )
        clone = FaultScenario.from_dict(scenario.to_dict())
        assert clone == scenario
        assert clone.gray_domains == (2, 5)  # list coerced back to tuple

    def test_to_dict_is_json_safe(self):
        import json

        payload = SCENARIOS["stormy"].to_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_from_dict_rejects_unknown_keys(self):
        payload = SCENARIOS["calm"].to_dict()
        payload["surprise"] = 1
        with pytest.raises(ValueError, match="unknown FaultScenario keys"):
            FaultScenario.from_dict(payload)

    def test_from_dict_rejects_invalid_values(self):
        payload = SCENARIOS["calm"].to_dict()
        payload["crash_rate"] = 1.5
        with pytest.raises(ValueError):
            FaultScenario.from_dict(payload)
        payload = SCENARIOS["calm"].to_dict()
        payload["gray_domains"] = "nope"
        with pytest.raises(ValueError, match="gray_domains"):
            FaultScenario.from_dict(payload)


# --------------------------------------------------------------------- #
# One record of a burst's faults
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "scenario, spec_kw, counts",
    [
        (FaultScenario(name="chaos", crash_rate=0.3, persistent_fraction=0.2,
                       straggler_rate=0.1),
         dict(concurrency=600, packing_degree=2, hedge=HedgePolicy(), wave_size=120,
              retry_policy=ExponentialBackoffRetry(max_retries=3)),
         (210, 0, 2, 7, 4)),
        (FaultScenario(name="throttled-hedged", crash_rate=0.1, straggler_rate=0.2,
                       throttle_capacity=50, throttle_refill_per_s=20.0,
                       throttle_max_retries=2, correlated_bursts=2,
                       correlated_fraction=0.3),
         dict(concurrency=800, packing_degree=2, hedge=HedgePolicy()),
         (53, 43, 0, 11, 4)),
    ],
    ids=["chaos-hedged-waved", "throttled-hedged-correlated"],
)
def test_fault_stats_are_the_table_rows(scenario, spec_kw, counts):
    """Crashes, correlated crashes, timeouts, hedges and hedge wins are
    counted from the finished record table (pinned counts: AWS, seed 7)."""
    result = run(scenario, seed=7, **spec_kw)
    stats, table = result.fault_stats, result.table
    assert (stats.crashed_attempts, stats.correlated_crashes,
            stats.timed_out_attempts, stats.hedged_attempts,
            stats.hedge_wins) == counts
    assert stats.crashed_attempts == table.failed.sum()
    assert stats.correlated_crashes == table.correlated.sum()
    assert stats.timed_out_attempts == table.timed_out.sum()
    assert stats.hedged_attempts == table.hedged.sum()
    assert stats.hedge_wins == (table.hedged & table.successful()).sum()
