"""Unit tests for retry policies, the retry budget, hedging, and the
token bucket — the pluggable resilience primitives of :mod:`repro.faults`."""

import numpy as np
import pytest

from repro.faults import (
    ExponentialBackoffRetry,
    FixedDelayRetry,
    HedgePolicy,
    ImmediateRetry,
    RetryBudget,
)
from repro.faults.throttle import TokenBucket


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


# --------------------------------------------------------------------- #
# Policies
# --------------------------------------------------------------------- #

def test_immediate_retry_matches_legacy_loop(rng):
    policy = ImmediateRetry(max_retries=2)
    assert policy.next_delay(1, 0.0, rng) == 0.0
    assert policy.next_delay(2, 0.0, rng) == 0.0
    assert policy.next_delay(3, 0.0, rng) is None  # budget exhausted


def test_fixed_delay(rng):
    policy = FixedDelayRetry(delay_s=1.5, max_retries=3)
    assert policy.next_delay(1, 0.0, rng) == 1.5
    assert policy.next_delay(3, 0.0, rng) == 1.5
    assert policy.next_delay(4, 0.0, rng) is None


def test_fixed_delay_validates():
    with pytest.raises(ValueError):
        FixedDelayRetry(delay_s=-1.0, max_retries=1)


def test_exponential_backoff_decorrelated_jitter_bounds(rng):
    policy = ExponentialBackoffRetry(base_s=0.2, cap_s=20.0, max_retries=100)
    prev = 0.0
    for attempt in range(1, 50):
        delay = policy.next_delay(attempt, prev, rng)
        # Decorrelated jitter: uniform in [base, 3 * max(prev, base)], capped.
        upper = min(20.0, 3.0 * max(prev, 0.2))
        assert 0.2 <= delay <= upper
        prev = delay


def test_exponential_backoff_caps(rng):
    policy = ExponentialBackoffRetry(base_s=5.0, cap_s=8.0, max_retries=100)
    delays = [policy.next_delay(i, 8.0, rng) for i in range(1, 30)]
    assert max(delays) <= 8.0
    assert policy.next_delay(101, 0.0, rng) is None


def test_exponential_backoff_validates():
    with pytest.raises(ValueError):
        ExponentialBackoffRetry(base_s=0.0)
    with pytest.raises(ValueError):
        ExponentialBackoffRetry(base_s=2.0, cap_s=1.0)


def test_policies_are_stateless_across_fresh(rng):
    policy = FixedDelayRetry(delay_s=1.0, max_retries=2)
    assert policy.fresh() is policy  # immutable policies share the instance


# --------------------------------------------------------------------- #
# Retry budget
# --------------------------------------------------------------------- #

def test_budget_caps_total_retries(rng):
    budget = RetryBudget(ImmediateRetry(max_retries=10), budget=3)
    # Three grants across *different* groups, then a global stop.
    assert budget.next_delay(1, 0.0, rng) == 0.0
    assert budget.next_delay(1, 0.0, rng) == 0.0
    assert budget.next_delay(1, 0.0, rng) == 0.0
    assert budget.spent == 3
    assert budget.next_delay(1, 0.0, rng) is None


def test_budget_defers_to_inner_policy(rng):
    budget = RetryBudget(ImmediateRetry(max_retries=1), budget=100)
    assert budget.next_delay(1, 0.0, rng) == 0.0
    assert budget.next_delay(2, 0.0, rng) is None  # inner gave up first
    assert budget.spent == 1  # a refusal costs nothing


def test_budget_fresh_resets_spend(rng):
    budget = RetryBudget(ImmediateRetry(max_retries=10), budget=1)
    assert budget.next_delay(1, 0.0, rng) == 0.0
    assert budget.next_delay(1, 0.0, rng) is None
    clone = budget.fresh()
    assert clone is not budget
    assert clone.spent == 0
    assert clone.next_delay(1, 0.0, rng) == 0.0


def test_budget_validates():
    with pytest.raises(ValueError):
        RetryBudget(ImmediateRetry(1), budget=-1)


# --------------------------------------------------------------------- #
# Hedging
# --------------------------------------------------------------------- #

def test_hedge_trigger_scales_reference():
    hedge = HedgePolicy(trigger_factor=2.0, max_hedges_per_group=1)
    assert hedge.trigger_seconds(10.0) == pytest.approx(20.0)


def test_hedge_validates():
    with pytest.raises(ValueError):
        HedgePolicy(trigger_factor=0.5)
    with pytest.raises(ValueError):
        HedgePolicy(max_hedges_per_group=-1)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("cls, kwargs, field", [
    (ImmediateRetry, {"max_retries": -3}, "max_retries"),
    (FixedDelayRetry, {"delay_s": NAN}, "delay_s"),
    (FixedDelayRetry, {"delay_s": INF}, "delay_s"),
    (FixedDelayRetry, {"max_retries": -1}, "max_retries"),
    (ExponentialBackoffRetry, {"base_s": NAN}, "base_s"),
    (ExponentialBackoffRetry, {"base_s": INF, "cap_s": INF}, "base_s"),
    (ExponentialBackoffRetry, {"cap_s": NAN}, "cap_s"),
    (ExponentialBackoffRetry, {"cap_s": INF}, "cap_s"),
    (ExponentialBackoffRetry, {"max_retries": -1}, "max_retries"),
    (HedgePolicy, {"trigger_factor": NAN}, "trigger_factor"),
    (HedgePolicy, {"trigger_factor": INF}, "trigger_factor"),
    (ImmediateRetry, {"max_retries": 2.5}, "max_retries"),
    (FixedDelayRetry, {"max_retries": 1.5}, "max_retries"),
    (ExponentialBackoffRetry, {"max_retries": 3.5}, "max_retries"),
    (RetryBudget, {"inner": ImmediateRetry(max_retries=5), "budget": NAN}, "budget"),
    (RetryBudget, {"inner": ImmediateRetry(max_retries=5), "budget": 2.5}, "budget"),
    (HedgePolicy, {"max_hedges_per_group": NAN}, "max_hedges_per_group"),
    (HedgePolicy, {"max_hedges_per_group": 1.5}, "max_hedges_per_group"),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_bad_policy_fails_at_construction(cls, kwargs, field):
    """Each of these used to construct. Mid-burst, a NaN base waited the
    cap on every retry, a NaN cap, delay or trigger factor ended the burst
    with ``SimulationError``, and a negative retry count ran as 0. A count
    is an integer: a NaN budget capped nothing, a budget of 2.5 granted 3
    retries, and a NaN hedge cap never hedged."""
    with pytest.raises(ValueError, match=field):
        cls(**kwargs)


# --------------------------------------------------------------------- #
# Token bucket
# --------------------------------------------------------------------- #

def test_bucket_burst_then_starve():
    bucket = TokenBucket(capacity=3, refill_per_s=1.0)
    assert [bucket.try_acquire(0.0) for _ in range(4)] == [True] * 3 + [False]


def test_bucket_refills_continuously():
    bucket = TokenBucket(capacity=2, refill_per_s=2.0)
    assert bucket.try_acquire(0.0) and bucket.try_acquire(0.0)
    assert not bucket.try_acquire(0.1)   # only 0.2 tokens back
    assert bucket.try_acquire(0.5)       # 1.0 token accumulated
    assert bucket.seconds_until_token(0.5) == pytest.approx(0.5)


def test_bucket_never_exceeds_capacity():
    bucket = TokenBucket(capacity=2, refill_per_s=10.0)
    assert bucket.try_acquire(0.0) and bucket.try_acquire(0.0)
    # A long idle stretch refills to capacity, not beyond.
    assert bucket.try_acquire(100.0) and bucket.try_acquire(100.0)
    assert not bucket.try_acquire(100.0)


def test_bucket_rejects_clock_reversal():
    bucket = TokenBucket(capacity=1, refill_per_s=1.0)
    bucket.try_acquire(5.0)
    with pytest.raises(ValueError):
        bucket.try_acquire(4.0)


def test_bucket_validates():
    with pytest.raises(ValueError):
        TokenBucket(capacity=0, refill_per_s=1.0)
    with pytest.raises(ValueError):
        TokenBucket(capacity=1, refill_per_s=0.0)


@pytest.mark.parametrize("kwargs, field", [
    ({"capacity": NAN, "refill_per_s": 1.0}, "capacity"),
    ({"capacity": INF, "refill_per_s": 1.0}, "capacity"),
    ({"capacity": 5, "refill_per_s": NAN}, "refill_per_s"),
    ({"capacity": 5, "refill_per_s": INF}, "refill_per_s"),
])
def test_bucket_rejects_non_finite_values(kwargs, field):
    """These used to construct: ``min(capacity, nan)`` refilled a NaN-rate
    bucket to full on every call."""
    with pytest.raises(ValueError, match=field):
        TokenBucket(**kwargs)


# --------------------------------------------------------------------- #
# validated JSON round-trips
# --------------------------------------------------------------------- #
from repro.faults import retry_policy_from_dict, retry_policy_to_dict  # noqa: E402


class TestRetrySerialization:
    @pytest.mark.parametrize("policy", [
        ImmediateRetry(max_retries=3),
        FixedDelayRetry(delay_s=2.5, max_retries=1),
        ExponentialBackoffRetry(base_s=0.5, cap_s=10.0, max_retries=5),
        RetryBudget(ExponentialBackoffRetry(max_retries=4), budget=7),
        RetryBudget(RetryBudget(ImmediateRetry(), budget=3), budget=9),
    ])
    def test_round_trip_preserves_behaviour(self, policy, rng):
        clone = retry_policy_from_dict(retry_policy_to_dict(policy))
        assert type(clone) is type(policy)
        assert retry_policy_to_dict(clone) == retry_policy_to_dict(policy)
        # Behavioural equality where it matters: identical delay schedule.
        a, b = policy.fresh(), clone.fresh()
        prev_a = prev_b = 0.0
        for attempt in range(1, 8):
            da = a.next_delay(attempt, prev_a, np.random.default_rng(42))
            db = b.next_delay(attempt, prev_b, np.random.default_rng(42))
            assert da == db
            if da is None:
                break
            prev_a, prev_b = da, db

    def test_budget_excludes_runtime_spend(self):
        budget = RetryBudget(ImmediateRetry(), budget=2)
        gen = np.random.default_rng(0)
        budget.next_delay(1, 0.0, gen)
        payload = retry_policy_to_dict(budget)
        assert "spent" not in payload
        assert retry_policy_from_dict(payload).spent == 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown retry policy kind"):
            retry_policy_from_dict({"kind": "telepathic"})

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError):
            retry_policy_from_dict({"max_retries": 2})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            retry_policy_from_dict({"kind": "immediate", "max_retries": 2,
                                    "surprise": True})

    def test_invalid_values_rejected_by_constructor_validation(self):
        with pytest.raises(ValueError):
            retry_policy_from_dict({"kind": "fixed-delay", "delay_s": -1.0,
                                    "max_retries": 2})
        with pytest.raises(ValueError):
            retry_policy_from_dict({"kind": "budget", "budget": -1,
                                    "inner": {"kind": "immediate",
                                              "max_retries": 2}})
        with pytest.raises(ValueError, match="base_s"):
            retry_policy_from_dict({"kind": "exponential-backoff",
                                    "base_s": float("nan"), "cap_s": 20.0,
                                    "max_retries": 2})

    @pytest.mark.parametrize("budget", [2.5, NAN])
    def test_budget_reaches_the_constructor_unconverted(self, budget):
        """2.5 used to be truncated to 2, and NaN failed naming no field."""
        with pytest.raises(ValueError, match="budget"):
            retry_policy_from_dict({"kind": "budget", "budget": budget,
                                    "inner": {"kind": "immediate",
                                              "max_retries": 2}})

    def test_unserializable_policy_rejected(self):
        class Odd:
            pass

        with pytest.raises(ValueError, match="cannot serialize"):
            retry_policy_to_dict(Odd())
