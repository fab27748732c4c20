"""BillingFidelity: exact unit tests for the billed-seconds schedule.

The defaults are the *exact* schedule, under which ``billed_seconds`` must
return its input byte-identically (no float round-trip) — that is the
guarantee that keeps every pre-fusion golden unchanged. The rounded
schedules reproduce provider metering: CPU throttling stretches the
duration, the minimum billed duration floors it, and the granularity
rounds the result *up*.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.core.propack import ProPack
from repro.extensions.streaming import StreamingPlanner
from repro.faults.retry import ExponentialBackoffRetry, HedgePolicy
from repro.faults.scenario import FaultScenario
from repro.platform.base import ServerlessPlatform
from repro.platform.billing import EXACT_BILLING, BillingFidelity, BillingModel
from repro.platform.invoker import BurstSpec
from repro.platform.providers import AWS_LAMBDA, GOOGLE_CLOUD_FUNCTIONS
from repro.serving import (
    DiurnalProcess,
    HybridHistogram,
    ServingConfig,
    ServingSimulator,
    WarmPool,
)
from repro.workloads import XAPIAN


# --------------------------------------------------------------------- #
# the exact schedule: byte identity
# --------------------------------------------------------------------- #
def test_defaults_are_exact():
    assert EXACT_BILLING.exact
    assert BillingFidelity().exact


def test_exact_schedule_returns_input_byte_identically():
    # Not approx: the exact path must not round-trip through any float
    # arithmetic, or pre-fusion goldens would drift in the last ulp.
    for value in (0.0, 1e-9, 0.1, 0.30000000000000004, 7.25, 863.0001, 1e6):
        assert EXACT_BILLING.billed_seconds(value) == value


def test_default_profiles_are_exact():
    fidelity = BillingFidelity.from_profile(AWS_LAMBDA)
    assert fidelity.exact
    assert fidelity == EXACT_BILLING


# --------------------------------------------------------------------- #
# granularity rounding: per-ms vs the legacy 100 ms schedule
# --------------------------------------------------------------------- #
def test_per_ms_vs_100ms_rounding():
    per_ms = BillingFidelity(granularity_s=0.001)
    coarse = BillingFidelity(granularity_s=0.1)
    assert per_ms.billed_seconds(0.2501) == pytest.approx(0.251)
    assert coarse.billed_seconds(0.2501) == pytest.approx(0.3)
    # 100 ms rounding overcharges strictly more on non-multiples.
    assert coarse.billed_seconds(0.2501) > per_ms.billed_seconds(0.2501)


def test_exact_multiple_pays_no_extra_tick():
    coarse = BillingFidelity(granularity_s=0.1)
    # 0.3 / 0.1 is 2.999...96 in floats; the epsilon keeps it at 3 ticks.
    assert coarse.billed_seconds(0.3) == pytest.approx(0.3)
    assert round(coarse.billed_seconds(0.3) / 0.1) == 3
    assert coarse.billed_seconds(0.2) == pytest.approx(0.2)


def test_rounding_is_always_up():
    coarse = BillingFidelity(granularity_s=0.1)
    assert coarse.billed_seconds(0.301) == pytest.approx(0.4)
    assert coarse.billed_seconds(0.001) == pytest.approx(0.1)
    assert coarse.billed_seconds(0.0) == pytest.approx(0.0)


# --------------------------------------------------------------------- #
# minimum billed duration boundaries
# --------------------------------------------------------------------- #
def test_min_duration_boundaries():
    fidelity = BillingFidelity(min_billed_s=0.1)
    assert fidelity.billed_seconds(0.0) == pytest.approx(0.1)
    assert fidelity.billed_seconds(0.05) == pytest.approx(0.1)
    assert fidelity.billed_seconds(0.1) == 0.1       # exactly at the floor
    assert fidelity.billed_seconds(0.1000001) == 0.1000001  # above: untouched


def test_min_duration_applies_before_rounding():
    fidelity = BillingFidelity(granularity_s=0.1, min_billed_s=0.25)
    # floor to 0.25, then round up to 0.3 — not round 0.05 then floor.
    assert fidelity.billed_seconds(0.05) == pytest.approx(0.3)


# --------------------------------------------------------------------- #
# CPU-throttle multiplier
# --------------------------------------------------------------------- #
def test_throttle_multiplier_stretches_billed_time():
    fidelity = BillingFidelity(throttle_multiplier=1.5)
    assert fidelity.billed_seconds(2.0) == pytest.approx(3.0)


def test_throttle_applies_before_floor_and_rounding():
    fidelity = BillingFidelity(
        granularity_s=0.1, min_billed_s=0.5, throttle_multiplier=2.0
    )
    # 0.2 -> ×2 = 0.4 -> floored to 0.5 -> already a multiple of 0.1.
    assert fidelity.billed_seconds(0.2) == pytest.approx(0.5)
    # 0.33 -> 0.66 -> above the floor -> rounds up to 0.7.
    assert fidelity.billed_seconds(0.33) == pytest.approx(0.7)


# --------------------------------------------------------------------- #
# legality and validation
# --------------------------------------------------------------------- #
def test_billed_never_less_than_executed():
    schedules = (
        EXACT_BILLING,
        BillingFidelity(granularity_s=0.1),
        BillingFidelity(min_billed_s=0.1),
        BillingFidelity(throttle_multiplier=1.7),
        BillingFidelity(granularity_s=0.001, min_billed_s=0.01,
                        throttle_multiplier=1.2),
    )
    samples = [i * 0.0137 for i in range(200)]
    for fidelity in schedules:
        for exec_s in samples:
            assert fidelity.billed_seconds(exec_s) >= exec_s - 1e-12


def test_billed_seconds_is_monotone():
    fidelity = BillingFidelity(granularity_s=0.1, min_billed_s=0.1,
                               throttle_multiplier=1.3)
    samples = [i * 0.0173 for i in range(100)]
    billed = [fidelity.billed_seconds(s) for s in samples]
    assert billed == sorted(billed)


def test_validation_rejects_bad_knobs():
    with pytest.raises(ValueError, match="granularity"):
        BillingFidelity(granularity_s=-0.1)
    with pytest.raises(ValueError, match="granularity"):
        BillingFidelity(granularity_s=math.inf)
    with pytest.raises(ValueError, match="minimum billed"):
        BillingFidelity(min_billed_s=-1.0)
    with pytest.raises(ValueError, match="throttle"):
        BillingFidelity(throttle_multiplier=0.5)
    with pytest.raises(ValueError, match="throttle"):
        BillingFidelity(throttle_multiplier=math.nan)
    with pytest.raises(ValueError, match="non-negative"):
        EXACT_BILLING.billed_seconds(-0.1)


# --------------------------------------------------------------------- #
# BillingModel integration
# --------------------------------------------------------------------- #
def test_profile_knobs_flow_into_the_billing_model():
    rounded = AWS_LAMBDA.with_overrides(
        billing_granularity_s=0.1, min_billed_duration_s=0.1
    )
    model = BillingModel(rounded)
    assert model.fidelity == BillingFidelity(granularity_s=0.1, min_billed_s=0.1)
    assert model.fidelity.billed_seconds(0.123) == pytest.approx(0.2)


def test_default_model_bills_exactly():
    model = BillingModel(AWS_LAMBDA)
    for value in (0.0, 0.123456789, 42.000000001):
        assert model.fidelity.billed_seconds(value) == value


def test_explicit_fidelity_overrides_the_profile():
    model = BillingModel(AWS_LAMBDA, fidelity=BillingFidelity(granularity_s=1.0))
    assert model.fidelity.billed_seconds(0.2) == pytest.approx(1.0)


# --------------------------------------------------------------------- #
# column billing against the per-record loops it replaced
# --------------------------------------------------------------------- #
ROUNDED = AWS_LAMBDA.with_overrides(
    billing_granularity_s=0.1, min_billed_duration_s=0.1, cpu_throttle_multiplier=1.25
)
GCF_COARSE = GOOGLE_CLOUD_FUNCTIONS.with_overrides(
    billing_granularity_s=1.0, min_billed_duration_s=0.5
)
CLEAN = BurstSpec(app=XAPIAN, concurrency=600, packing_degree=2)
FAULTED_HEDGED = replace(
    CLEAN,
    concurrency=400,
    scenario=FaultScenario(name="bill", crash_rate=0.1, straggler_rate=0.2),
    retry_policy=ExponentialBackoffRetry(base_s=0.05, max_retries=3),
    hedge=HedgePolicy(trigger_factor=1.5),
)


def _per_record_compute_usd(billing, records):
    """The compute bill, one record at a time, added in record order.

    A ``+=`` loop, not builtin ``sum``: since Python 3.12 ``sum``
    compensates its float additions, so it is no left-to-right reference.
    """
    total = 0.0
    for r in records:
        total += billing.instance_compute_usd(r)
    return total


def _per_record_gb_seconds(billing, records):
    """Billed and wasted GB-seconds, one record at a time, in record order."""
    total = wasted = 0.0
    for r in records:
        if r.exec_start is None or r.exec_end is None:
            continue
        gbs = r.exec_seconds * billing.billed_memory_mb(r.provisioned_mb) / 1024.0
        total += gbs
        if r.failed or r.timed_out or r.cancelled:
            wasted += gbs
    return total, wasted


@pytest.mark.parametrize(
    "profile", [AWS_LAMBDA, ROUNDED, GCF_COARSE], ids=["exact", "rounded", "gcf-1s"]
)
@pytest.mark.parametrize("spec", [CLEAN, FAULTED_HEDGED], ids=["clean", "faulted-hedged"])
def test_column_bill_equals_the_per_record_loop(profile, spec):
    """Each record is rounded on its own, then summed left to right: the
    column bill and fault totals equal the per-record loops exactly."""
    result = ServerlessPlatform(profile, seed=41).run_burst(spec, repetition=0)
    billing = BillingModel(profile)
    records = result.records
    assert result.expense.compute_usd == _per_record_compute_usd(billing, records)
    assert result.expense.requests_usd == len(records) * profile.per_request_usd
    total, wasted = _per_record_gb_seconds(billing, records)
    assert result.fault_stats.total_billed_gb_seconds == total
    assert result.fault_stats.wasted_billed_gb_seconds == wasted
    if spec.scenario is not None:
        assert wasted > 0.0
        assert result.fault_stats.hedged_attempts > 0
    if not billing.fidelity.exact:
        executed_usd = sum(
            r.exec_seconds * billing.billed_memory_mb(r.provisioned_mb) / 1024.0
            for r in records
        ) * profile.gb_second_usd
        assert result.expense.compute_usd > executed_usd


@pytest.mark.parametrize(
    "fidelity",
    [
        EXACT_BILLING,
        BillingFidelity(granularity_s=0.1),
        BillingFidelity(min_billed_s=0.25),
        BillingFidelity(throttle_multiplier=1.3),
        BillingFidelity(granularity_s=0.1, min_billed_s=0.1, throttle_multiplier=1.25),
        BillingFidelity(granularity_s=1.0, min_billed_s=0.5),
    ],
)
def test_billed_seconds_array_equals_the_scalar_schedule(fidelity):
    samples = [0.0, 1e-9, 0.05, 0.1, 0.2, 0.25, 0.3, 0.30000000000000004, 0.9999,
               1.0, 7.25, 863.0001] + [i * 0.0137 for i in range(200)]
    billed = fidelity.billed_seconds_array(np.array(samples))
    assert billed.tolist() == [fidelity.billed_seconds(x) for x in samples]
    with pytest.raises(ValueError, match="non-negative"):
        fidelity.billed_seconds_array(np.array([1.0, -0.1]))


# --------------------------------------------------------------------- #
# serving: one rounding per attempt
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def serving_day_slice():
    """600 s of a diurnal Xapian day on a hybrid-histogram pool, per profile."""
    exec_model = ProPack(ServerlessPlatform(AWS_LAMBDA, seed=2023)).exec_model(XAPIAN)
    policy = StreamingPlanner(AWS_LAMBDA, XAPIAN, exec_model).plan(
        arrival_rate_per_s=10.0, qos_sojourn_s=30.0
    )

    def run(profile):
        simulator = ServingSimulator(
            profile, XAPIAN, exec_model,
            pool=WarmPool(HybridHistogram()),
            config=ServingConfig(qos_sojourn_s=30.0),
            seed=2023,
        )
        return simulator.run(
            DiurnalProcess(10.0, amplitude=0.7, period_s=3000.0), policy, 600.0
        )

    return run


def test_serving_bills_every_attempt_at_the_minimum(serving_day_slice):
    """A floor far above any attempt bills each dispatch at the floor."""
    floored = AWS_LAMBDA.with_overrides(min_billed_duration_s=1e4)
    result = serving_day_slice(floored)
    billed_gb = BillingModel(floored).billed_memory_mb(floored.max_memory_mb) / 1024.0
    expected = 0.0
    for _ in range(result.n_dispatches):
        expected += 1e4 * billed_gb
    assert result.resilience.crashes == 0
    assert result.n_dispatches == 265
    assert result.exec_gb_seconds == expected == 26_500_000.0


def test_rounded_profile_raises_the_serving_bill(serving_day_slice):
    exact = serving_day_slice(AWS_LAMBDA)
    rounded = serving_day_slice(AWS_LAMBDA.with_overrides(
        billing_granularity_s=1.0, min_billed_duration_s=1.0, cpu_throttle_multiplier=1.5
    ))
    assert exact.expense.compute_usd == 0.7203218996417456
    assert rounded.n_dispatches == exact.n_dispatches == 265
    assert rounded.expense.compute_usd > exact.expense.compute_usd
