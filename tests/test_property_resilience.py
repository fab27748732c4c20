"""Property-based tests on the resilience layer's invariants.

Three invariants, pinned across the whole parameter space:

1. no admission controller ever lets the admitted-but-unfinished load
   exceed its concurrency limit;
2. exactly one admit-or-shed verdict per arrival, for every policy and
   seed, so a serving run's tally of them (its ``ResilienceReport``) keeps
   ``admitted + shed == arrivals`` exactly;
3. an open circuit breaker never admits a dispatch before its recovery
   deadline.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience import (
    AIMDAdmission,
    CircuitBreaker,
    ConcurrencyLimitAdmission,
    PriorityMix,
    TokenBucketAdmission,
    UnboundedAdmission,
)
from repro.resilience.breaker import OPEN


def build_controller(kind, limit, seed):
    if kind == "unbounded":
        return UnboundedAdmission()
    if kind == "limit":
        return ConcurrencyLimitAdmission(limit=limit)
    if kind == "bucket":
        return TokenBucketAdmission(capacity=limit, refill_per_s=1.0 + seed % 5)
    return AIMDAdmission(
        initial_limit=limit, min_limit=1, max_limit=4 * limit,
        additive_step=2.0, decrease_factor=0.5,
    )


@given(
    kind=st.sampled_from(["unbounded", "limit", "bucket", "aimd"]),
    limit=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=1, max_value=300),
)
@settings(max_examples=60, deadline=None)
def test_admission_never_exceeds_limit_and_accounts_exactly(kind, limit, seed, n):
    """Drive a synthetic arrival/completion mixture through a controller."""
    ctl = build_controller(kind, limit, seed)
    gen = np.random.default_rng(seed)
    mix = PriorityMix()
    now, outstanding = 0.0, 0
    admitted, shed_by_priority = 0, [0, 0, 0]
    for _ in range(n):
        now += float(gen.exponential(0.5))
        # Random completions drain the outstanding load between arrivals.
        outstanding -= int(gen.integers(0, outstanding + 1)) if outstanding else 0
        priority = mix.draw(gen)
        cap = ctl.concurrency_limit
        if not ctl.admit(now, priority, queue_depth=0, in_flight=outstanding):
            shed_by_priority[priority] += 1
        else:
            admitted += 1
            # Invariant 1: an admission is only ever granted while the
            # load sits strictly below the live concurrency limit — the
            # controller never admits past its cap. (The cap itself may
            # later shrink below already-admitted load; that's drainage,
            # not over-admission.)
            if math.isfinite(cap):
                assert outstanding < cap
            outstanding += 1
        if gen.random() < 0.3:
            ctl.observe_window(now, float(gen.random()))
    # Invariant 2: exact accounting, bit-for-bit.
    assert admitted + sum(shed_by_priority) == n


@given(
    kind=st.sampled_from(["limit", "bucket", "aimd"]),
    limit=st.integers(min_value=1, max_value=32),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_same_seed_same_decisions(kind, limit, seed):
    """One seed fixes the whole admit/shed sequence for every policy."""
    def trace():
        ctl = build_controller(kind, limit, seed)
        gen = np.random.default_rng(seed)
        verdicts = []
        for i in range(100):
            verdicts.append(
                ctl.admit(0.1 * i, int(gen.integers(3)),
                          int(gen.integers(10)), int(gen.integers(10)))
            )
            if i % 7 == 0:
                ctl.observe_window(0.1 * i, float(gen.random()))
        return verdicts, ctl.concurrency_limit

    assert trace() == trace()


@given(
    failure_threshold=st.integers(min_value=1, max_value=5),
    recovery_s=st.floats(min_value=0.5, max_value=60.0),
    jitter=st.floats(min_value=0.0, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=10, max_value=200),
)
@settings(max_examples=60, deadline=None)
def test_breaker_never_dispatches_while_open(
    failure_threshold, recovery_s, jitter, seed, n
):
    """Invariant 3: ``allow`` is False strictly before the open deadline."""
    breaker = CircuitBreaker(
        failure_threshold=failure_threshold,
        recovery_s=recovery_s,
        jitter=jitter,
        rng=np.random.default_rng(seed),
    )
    gen = np.random.default_rng(seed + 1)
    now = 0.0
    for _ in range(n):
        now += float(gen.exponential(recovery_s / 3.0))
        was_open = breaker.state == OPEN
        deadline = breaker.open_until
        allowed = breaker.allow(now)
        if was_open and now < deadline:
            assert not allowed
        if allowed:
            breaker.record_failure(now) if gen.random() < 0.5 else (
                breaker.record_success(now)
            )
    # Transition log is time-ordered and alternates out of each state.
    times = [t for (t, _, _) in breaker.transitions]
    assert times == sorted(times)
    for (_, src, dst) in breaker.transitions:
        assert src != dst
