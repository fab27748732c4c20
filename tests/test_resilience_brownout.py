"""Brownout controller: stepwise escalation and hysteretic recovery."""

import pytest

from repro.resilience import BrownoutController, ResiliencePolicy
from repro.resilience.admission import HIGH, LOW, NORMAL, UnboundedAdmission


class TestBrownoutController:
    def test_starts_normal(self):
        b = BrownoutController()
        assert b.level == 0
        assert b.level_name == "normal"
        assert b.degree_multiplier == 1.0
        assert not b.sheds(LOW)

    def test_escalates_one_level_per_breach(self):
        b = BrownoutController(violation_threshold=0.02)
        assert b.observe(0.0, 0.5, backlog=0) == 1
        assert b.degree_multiplier == b.degree_boost
        assert b.observe(1.0, 0.5, backlog=0) == 2
        assert b.sheds(LOW)
        assert not b.sheds(NORMAL)
        assert not b.sheds(HIGH)

    def test_caps_at_max_level(self):
        b = BrownoutController(max_level=1)
        for t in range(5):
            b.observe(float(t), 1.0, backlog=0)
        assert b.level == 1
        assert b.max_level_seen == 1

    def test_backlog_alone_triggers(self):
        b = BrownoutController(violation_threshold=0.5, backlog_threshold=10)
        assert b.observe(0.0, 0.0, backlog=11) == 1
        assert b.observe(1.0, 0.0, backlog=5) == 1  # healthy, but hysteresis

    def test_no_backlog_threshold_ignores_backlog(self):
        b = BrownoutController(violation_threshold=0.5, backlog_threshold=None)
        assert b.observe(0.0, 0.0, backlog=10**6) == 0

    def test_recovery_is_hysteretic(self):
        b = BrownoutController(recover_ticks=3)
        b.observe(0.0, 1.0, backlog=0)
        b.observe(1.0, 1.0, backlog=0)
        assert b.level == 2
        # Two healthy ticks are not enough to step down…
        assert b.observe(2.0, 0.0, 0) == 2
        assert b.observe(3.0, 0.0, 0) == 2
        # …the third is, and the streak resets per level.
        assert b.observe(4.0, 0.0, 0) == 1
        assert b.observe(5.0, 0.0, 0) == 1
        assert b.observe(6.0, 0.0, 0) == 1
        assert b.observe(7.0, 0.0, 0) == 0
        assert (b.escalations, b.max_level_seen) == (2, 2)

    def test_breach_resets_healthy_streak(self):
        b = BrownoutController(recover_ticks=2, max_level=1)
        b.observe(0.0, 1.0, 0)
        b.observe(1.0, 0.0, 0)
        b.observe(2.0, 1.0, 0)  # breach: streak back to zero
        b.observe(3.0, 0.0, 0)
        assert b.level == 1
        b.observe(4.0, 0.0, 0)
        assert b.level == 0

    def test_transitions_logged(self):
        """Level changes are counted by direction: a serving run's brownout
        families are written from these counts and the final level."""
        b = BrownoutController(recover_ticks=1)
        assert [b.observe(0.0, 1.0, 0), b.observe(1.0, 0.0, 0)] == [1, 0]
        assert (b.escalations, b.recoveries, b.level) == (1, 1, 0)
        assert [b.observe(2.0, 1.0, 0), b.observe(3.0, 1.0, 0),
                b.observe(4.0, 1.0, 0)] == [1, 2, 2]
        assert (b.escalations, b.recoveries, b.level) == (3, 1, 2)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BrownoutController(violation_threshold=1.0)
        with pytest.raises(ValueError):
            BrownoutController(degree_boost=0.5)
        with pytest.raises(ValueError):
            BrownoutController(recover_ticks=0)
        with pytest.raises(ValueError):
            BrownoutController(max_level=3)

    @pytest.mark.parametrize("boost", [float("nan"), float("inf")])
    def test_non_finite_degree_boost_rejected(self, boost):
        """Both used to construct; a NaN boost fails only once a batch's
        boosted degree is rounded."""
        with pytest.raises(ValueError, match="degree_boost"):
            BrownoutController(degree_boost=boost)

    def test_nan_backlog_threshold_rejected(self):
        """It used to construct, and no backlog ever breached it."""
        with pytest.raises(ValueError, match="backlog_threshold"):
            BrownoutController(backlog_threshold=float("nan"))


class TestResiliencePolicy:
    def test_empty_policy_is_inactive(self):
        assert not ResiliencePolicy().active

    def test_any_component_activates(self):
        assert ResiliencePolicy(admission=UnboundedAdmission()).active
        assert ResiliencePolicy(brownout=BrownoutController()).active
