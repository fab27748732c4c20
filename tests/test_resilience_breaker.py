"""Circuit breakers: state machine, probe budget, and bank routing."""

import numpy as np
import pytest

from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    CircuitBreakerBank,
)


NAN, INF = float("nan"), float("inf")


def trip(breaker, now=0.0):
    for _ in range(breaker.failure_threshold):
        breaker.record_failure(now)


class TestCircuitBreaker:
    def test_starts_closed_and_allows(self):
        b = CircuitBreaker()
        assert b.state == CLOSED
        assert b.allow(0.0)

    def test_opens_after_consecutive_failures(self):
        b = CircuitBreaker(failure_threshold=3, recovery_s=10.0, jitter=0.0)
        b.record_failure(0.0)
        b.record_failure(1.0)
        assert b.state == CLOSED
        b.record_failure(2.0)
        assert b.state == OPEN
        assert not b.allow(2.0)
        assert b.open_until == 12.0

    def test_success_resets_failure_streak(self):
        b = CircuitBreaker(failure_threshold=3)
        b.record_failure(0.0)
        b.record_failure(1.0)
        b.record_success(2.0)
        b.record_failure(3.0)
        b.record_failure(4.0)
        assert b.state == CLOSED

    def test_half_open_after_recovery_pause(self):
        b = CircuitBreaker(failure_threshold=1, recovery_s=5.0, jitter=0.0)
        trip(b)
        assert not b.allow(4.999)
        assert b.allow(5.0)
        assert b.state == HALF_OPEN

    def test_half_open_probe_budget(self):
        b = CircuitBreaker(failure_threshold=1, recovery_s=5.0,
                           half_open_probes=2, jitter=0.0)
        trip(b)
        assert b.allow(5.0)
        assert b.allow(5.0)
        assert not b.allow(5.0)  # budget exhausted

    def test_probe_success_closes(self):
        b = CircuitBreaker(failure_threshold=1, recovery_s=5.0, jitter=0.0)
        trip(b)
        assert b.allow(5.0)
        b.record_success(6.0)
        assert b.state == CLOSED
        # Recovery pause resets to the base after a close.
        trip(b, now=7.0)
        assert b.open_until == pytest.approx(12.0)

    def test_probe_failure_reopens_with_backoff(self):
        b = CircuitBreaker(failure_threshold=1, recovery_s=5.0,
                           backoff_factor=2.0, jitter=0.0)
        trip(b)                      # open until 5, next pause 10
        assert b.allow(5.0)          # half-open probe
        b.record_failure(5.5)        # re-open until 15.5
        assert b.state == OPEN
        assert b.open_until == pytest.approx(15.5)

    def test_backoff_caps_at_max_recovery(self):
        b = CircuitBreaker(failure_threshold=1, recovery_s=5.0,
                           backoff_factor=10.0, max_recovery_s=20.0,
                           jitter=0.0)
        trip(b)
        t = b.open_until
        for _ in range(3):
            assert b.allow(t)
            b.record_failure(t)
            assert b.open_until - t <= 20.0
            t = b.open_until

    def test_jitter_is_seeded(self):
        def pauses(seed):
            b = CircuitBreaker(failure_threshold=1, recovery_s=5.0,
                               jitter=0.5, rng=np.random.default_rng(seed))
            trip(b)
            return b.open_until

        assert pauses(3) == pauses(3)
        assert pauses(3) != pauses(4)

    def test_transitions_are_logged(self):
        b = CircuitBreaker(failure_threshold=1, recovery_s=5.0, jitter=0.0)
        trip(b)
        b.allow(5.0)
        b.record_success(6.0)
        assert [(src, dst) for (_, src, dst) in b.transitions] == [
            (CLOSED, OPEN),
            (OPEN, HALF_OPEN),
            (HALF_OPEN, CLOSED),
        ]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(recovery_s=10.0, max_recovery_s=5.0)
        with pytest.raises(ValueError):
            CircuitBreaker(backoff_factor=0.5)

    @pytest.mark.parametrize("kwargs, field", [
        ({"recovery_s": NAN}, "recovery_s"),
        ({"recovery_s": INF, "max_recovery_s": INF}, "recovery_s"),
        ({"max_recovery_s": NAN}, "max_recovery_s"),
        ({"max_recovery_s": INF}, "max_recovery_s"),
        ({"backoff_factor": NAN}, "backoff_factor"),
        ({"backoff_factor": INF}, "backoff_factor"),
        ({"jitter": NAN}, "jitter"),
        ({"jitter": INF}, "jitter"),
    ])
    def test_non_finite_parameters_rejected(self, kwargs, field):
        """These used to construct. An open breaker with a NaN pause
        half-opened at once, so a bank of them never paused a domain."""
        with pytest.raises(ValueError, match=field):
            CircuitBreaker(**kwargs)
        with pytest.raises(ValueError, match=field):
            CircuitBreakerBank(n_domains=2, **kwargs)


class TestCircuitBreakerBank:
    def test_rotor_round_robins_healthy_domains(self):
        bank = CircuitBreakerBank(n_domains=3)
        assert [bank.pick(0.0) for _ in range(4)] == [0, 1, 2, 0]

    def test_pick_skips_open_domains(self):
        bank = CircuitBreakerBank(n_domains=3, failure_threshold=1,
                                  recovery_s=100.0, jitter=0.0)
        bank.record(1, success=False, now=0.0)
        picks = [bank.pick(1.0) for _ in range(4)]
        assert 1 not in picks

    def test_pick_returns_none_when_all_open(self):
        bank = CircuitBreakerBank(n_domains=2, failure_threshold=1,
                                  recovery_s=100.0, jitter=0.0)
        bank.record(0, success=False, now=0.0)
        bank.record(1, success=False, now=0.0)
        assert bank.pick(1.0) is None
        assert bank.n_open == 2

    def test_earliest_retry(self):
        bank = CircuitBreakerBank(n_domains=2, failure_threshold=1,
                                  recovery_s=10.0, jitter=0.0)
        assert bank.earliest_retry(0.0) is None
        bank.record(0, success=False, now=0.0)
        bank.record(1, success=False, now=3.0)
        assert bank.earliest_retry(5.0) == pytest.approx(10.0)

    def test_poison_tracking(self):
        """A poisoned domain (every dispatch there fails) is tracked by its
        breaker alone: traffic routes around it while it is open, and each
        failed probe re-opens it for twice as long."""
        bank = CircuitBreakerBank(n_domains=2, failure_threshold=1,
                                  recovery_s=10.0, jitter=0.0)
        now = 0.0
        bank.record(0, success=False, now=now)
        pauses = []
        for _ in range(3):
            deadline = bank.breakers[0].open_until
            pauses.append(deadline - now)
            assert bank.pick((now + deadline) / 2) == 1
            now = deadline
            assert bank.pick(now) == 0  # the half-open probe...
            bank.record(0, success=False, now=now)  # ...fails again
        assert pauses == [10.0, 20.0, 40.0]
        assert bank.flaps_by_domain() == [3, 0]

    def test_transition_log_sorted_across_domains(self):
        bank = CircuitBreakerBank(n_domains=2, failure_threshold=1,
                                  recovery_s=10.0, jitter=0.0)
        bank.record(1, success=False, now=1.0)
        bank.record(0, success=False, now=2.0)
        log = bank.transition_log()
        assert log == [(1.0, 1, CLOSED, OPEN), (2.0, 0, CLOSED, OPEN)]
        assert bank.n_transitions == 2

    def test_needs_at_least_one_domain(self):
        with pytest.raises(ValueError):
            CircuitBreakerBank(n_domains=0)


class TestQuarantineAndFlaps:
    """Administrative quarantine + flap counting (remediation seams)."""

    def test_flap_counts_reopenings_only(self):
        breaker = CircuitBreaker(failure_threshold=1, recovery_s=10.0,
                                 jitter=0.0)
        trip(breaker, now=0.0)
        assert breaker.flaps == 0          # closed -> open is not a flap
        assert breaker.allow(10.5)         # half-open probe admitted
        breaker.record_failure(10.5)       # probe fails: half-open -> open
        assert breaker.flaps == 1
        assert breaker.allow(31.0)         # backoff doubled the pause
        breaker.record_success(31.0)       # probe succeeds: recovery
        assert breaker.flaps == 1

    def test_bank_flap_aggregation(self):
        bank = CircuitBreakerBank(n_domains=2, failure_threshold=1,
                                  recovery_s=10.0, jitter=0.0)
        bank.record(0, success=False, now=0.0)
        assert bank.breakers[0].allow(10.5)
        bank.record(0, success=False, now=10.5)
        assert bank.n_flaps == 1
        assert bank.flaps_by_domain() == [1, 0]

    def test_quarantined_domain_receives_no_traffic(self):
        bank = CircuitBreakerBank(n_domains=3)
        bank.quarantine(1)
        assert 1 not in {bank.pick(0.0) for _ in range(6)}
        bank.release(1)
        assert 1 in {bank.pick(0.0) for _ in range(6)}

    def test_quarantine_guards_last_routable_domain(self):
        bank = CircuitBreakerBank(n_domains=2)
        bank.quarantine(0)
        with pytest.raises(ValueError):
            bank.quarantine(1)
        with pytest.raises(ValueError):
            bank.quarantine(5)
        with pytest.raises(ValueError):
            CircuitBreakerBank(n_domains=1).quarantine(0)

    def test_earliest_retry_skips_quarantined(self):
        bank = CircuitBreakerBank(n_domains=2, failure_threshold=1,
                                  recovery_s=10.0, jitter=0.0)
        bank.record(0, success=False, now=0.0)
        bank.quarantine(0)
        assert bank.earliest_retry(1.0) is None

    def test_bank_keeps_transitions_flaps_quarantine(self):
        """What a serving run's breaker families are written from, at run
        end: the transition log, the flap count, the open and the
        quarantined domains."""
        bank = CircuitBreakerBank(n_domains=2, failure_threshold=1,
                                  recovery_s=10.0, jitter=0.0)
        bank.record(0, success=False, now=0.0)       # closed -> open
        assert bank.breakers[0].allow(10.5)          # open -> half-open
        bank.record(0, success=False, now=10.5)      # half-open -> open (flap)
        bank.quarantine(1)
        assert bank.breakers[0].transitions == [
            (0.0, CLOSED, OPEN), (10.5, OPEN, HALF_OPEN), (10.5, HALF_OPEN, OPEN),
        ]
        assert bank.breakers[1].transitions == []
        assert (bank.n_transitions, bank.n_flaps, bank.n_open) == (3, 1, 1)
        assert bank.quarantined == {1}
        bank.release(1)
        assert bank.quarantined == set()
