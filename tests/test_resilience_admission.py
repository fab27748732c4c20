"""Admission controllers: decisions and priority ordering."""

import math

import numpy as np
import pytest

from repro.resilience import (
    HIGH,
    LOW,
    NORMAL,
    AIMDAdmission,
    ConcurrencyLimitAdmission,
    PriorityMix,
    TokenBucketAdmission,
    UnboundedAdmission,
)


class TestPriorityMix:
    def test_shares_must_sum_to_one(self):
        with pytest.raises(ValueError):
            PriorityMix(high=0.5, normal=0.5, low=0.5)

    def test_shares_must_be_non_negative(self):
        with pytest.raises(ValueError):
            PriorityMix(high=-0.1, normal=0.6, low=0.5)

    def test_draw_is_deterministic_per_seed(self):
        mix = PriorityMix(high=0.3, normal=0.5, low=0.2)
        a = [mix.draw(np.random.default_rng(7)) for _ in range(1)]
        b = [mix.draw(np.random.default_rng(7)) for _ in range(1)]
        assert a == b

    def test_draw_matches_shares(self):
        mix = PriorityMix(high=0.25, normal=0.5, low=0.25)
        gen = np.random.default_rng(2023)
        draws = [mix.draw(gen) for _ in range(20000)]
        assert abs(draws.count(HIGH) / 20000 - 0.25) < 0.02
        assert abs(draws.count(NORMAL) / 20000 - 0.5) < 0.02
        assert abs(draws.count(LOW) / 20000 - 0.25) < 0.02

    def test_degenerate_mix_always_draws_that_class(self):
        mix = PriorityMix(high=0.0, normal=0.0, low=1.0)
        gen = np.random.default_rng(1)
        assert all(mix.draw(gen) == LOW for _ in range(50))

    @pytest.mark.parametrize("shares", [(0.2, 0.6, 0.2), (0.5, 0.0, 0.5), (0.0, 1.0, 0.0)])
    def test_bulk_draws_are_the_scalar_draws(self, shares):
        """One ``random(n)`` call classifies the doubles n scalar draws
        give, by the same rule, and leaves the stream where they do."""
        mix = PriorityMix(*shares)
        bulk, scalar = np.random.default_rng(11), np.random.default_rng(11)
        expected = []
        for _ in range(5000):
            u = scalar.random()
            expected.append(
                HIGH if u < mix.high else NORMAL if u < mix.high + mix.normal else LOW
            )
        assert mix.draws(bulk, 5000) == expected
        assert bulk.random() == scalar.random()


class TestUnbounded:
    def test_admits_everything(self):
        ctl = UnboundedAdmission()
        assert all(
            ctl.admit(t, p, 10**6, 10**6)
            for t in (0.0, 1.0)
            for p in (HIGH, NORMAL, LOW)
        )
        assert ctl.concurrency_limit == math.inf


class TestConcurrencyLimit:
    def test_admits_below_limit_sheds_at_limit(self):
        ctl = ConcurrencyLimitAdmission(limit=10, priority_watermarks=(1.0, 1.0, 1.0))
        assert ctl.admit(0.0, HIGH, queue_depth=4, in_flight=5)
        assert not ctl.admit(0.0, HIGH, queue_depth=5, in_flight=5)

    def test_low_priority_sheds_first(self):
        ctl = ConcurrencyLimitAdmission(limit=10, priority_watermarks=(1.0, 0.9, 0.7))
        # Load 7: below every watermark except low's (7 >= 10*0.7).
        assert ctl.admit(0.0, HIGH, 7, 0)
        assert ctl.admit(0.0, NORMAL, 7, 0)
        assert not ctl.admit(0.0, LOW, 7, 0)

    def test_watermarks_must_not_increase(self):
        with pytest.raises(ValueError):
            ConcurrencyLimitAdmission(limit=10, priority_watermarks=(0.7, 0.9, 1.0))

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            ConcurrencyLimitAdmission(limit=0)


class TestTokenBucket:
    def test_burst_drains_then_sheds(self):
        ctl = TokenBucketAdmission(capacity=5, refill_per_s=1.0,
                                   reserve_fractions=(0.0, 0.0, 0.0))
        verdicts = [ctl.admit(0.0, HIGH, 0, 0) for _ in range(7)]
        assert verdicts == [True] * 5 + [False] * 2

    def test_refill_restores_admission(self):
        ctl = TokenBucketAdmission(capacity=2, refill_per_s=1.0,
                                   reserve_fractions=(0.0, 0.0, 0.0))
        assert ctl.admit(0.0, HIGH, 0, 0)
        assert ctl.admit(0.0, HIGH, 0, 0)
        assert not ctl.admit(0.0, HIGH, 0, 0)
        assert ctl.admit(2.5, HIGH, 0, 0)

    def test_reserve_protects_high_priority(self):
        ctl = TokenBucketAdmission(capacity=10, refill_per_s=1.0,
                                   reserve_fractions=(0.0, 0.0, 0.5))
        # Drain to 4 tokens: low priority needs 1 + 0.5*10 = 6 available.
        for _ in range(6):
            assert ctl.admit(0.0, HIGH, 0, 0)
        assert not ctl.admit(0.0, LOW, 0, 0)
        assert ctl.admit(0.0, HIGH, 0, 0)

    def test_reserves_must_not_decrease(self):
        with pytest.raises(ValueError):
            TokenBucketAdmission(capacity=10, refill_per_s=1.0,
                                 reserve_fractions=(0.25, 0.1, 0.0))

    def test_nan_refill_rejected(self):
        """It used to construct and admit every arrival: a NaN refill
        topped the bucket up to full on every call."""
        with pytest.raises(ValueError, match="refill_per_s"):
            TokenBucketAdmission(capacity=10, refill_per_s=math.nan)


class TestAIMD:
    def test_healthy_windows_grow_limit(self):
        ctl = AIMDAdmission(initial_limit=16, additive_step=4.0)
        for i in range(3):
            ctl.observe_window(float(i), 0.0)
        assert ctl.concurrency_limit == 28
        assert ctl.increases == 3

    def test_breach_halves_limit(self):
        ctl = AIMDAdmission(initial_limit=64, decrease_factor=0.5,
                            breach_threshold=0.02)
        ctl.observe_window(0.0, 0.5)
        assert ctl.concurrency_limit == 32
        assert ctl.decreases == 1

    def test_limit_stays_within_bounds(self):
        ctl = AIMDAdmission(initial_limit=8, min_limit=4, max_limit=16,
                            additive_step=8.0, decrease_factor=0.1)
        for _ in range(10):
            ctl.observe_window(0.0, 1.0)
        assert ctl.concurrency_limit == 4
        for _ in range(10):
            ctl.observe_window(0.0, 0.0)
        assert ctl.concurrency_limit == 16

    def test_admit_uses_live_limit(self):
        ctl = AIMDAdmission(initial_limit=8,
                            priority_watermarks=(1.0, 1.0, 1.0))
        assert ctl.admit(0.0, HIGH, 3, 4)
        assert not ctl.admit(0.0, HIGH, 4, 4)
        ctl.observe_window(1.0, 1.0)  # halve to 4
        assert not ctl.admit(1.0, HIGH, 2, 2)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            AIMDAdmission(initial_limit=2, min_limit=4)
        with pytest.raises(ValueError):
            AIMDAdmission(decrease_factor=1.0)

    @pytest.mark.parametrize("step", [math.nan, math.inf])
    def test_non_finite_additive_step_rejected(self, step):
        """Both used to construct, and one healthy window sent the limit
        straight to ``max_limit``."""
        with pytest.raises(ValueError, match="additive_step"):
            AIMDAdmission(additive_step=step)
