"""Property-based tests on streaming packing: the serving simulator's
fault-free batching loop and the planner's policies."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.models import ExecutionTimeModel
from repro.extensions.streaming import StreamingPlanner
from repro.platform.providers import AWS_LAMBDA
from repro.serving import (
    FixedTTL,
    PoissonProcess,
    ServingSimulator,
    StreamingPolicy,
    WarmPool,
)
from repro.workloads import XAPIAN

EXEC = ExecutionTimeModel(
    coeff_a=XAPIAN.base_seconds, coeff_b=0.03, mem_gb=XAPIAN.mem_gb
)


@given(
    degree=st.integers(min_value=1, max_value=20),
    timeout=st.floats(min_value=0.0, max_value=30.0),
    rate=st.floats(min_value=0.1, max_value=50.0),
    n=st.integers(min_value=1, max_value=150),
)
@settings(max_examples=40, deadline=None)
def test_streaming_conservation_and_bounds(degree, timeout, rate, n):
    simulator = ServingSimulator(
        AWS_LAMBDA,
        XAPIAN,
        EXEC,
        pool=WarmPool(FixedTTL(120.0)),
        seed=171,
    )
    policy = StreamingPolicy(degree=degree, batch_timeout_s=timeout)
    result = simulator.run(PoissonProcess(rate), policy, n / rate)
    batches = [d.batch for d in result.dispatches]
    # No batch exceeds the policy degree; no empty batches.
    assert all(1 <= b <= degree for b in batches)
    # Every arrival is batched once and served once.
    assert sum(batches) == result.n_requests == result.digest.count
    assert result.n_completed == result.n_requests
    # Whatever was served was billed.
    assert (result.exec_gb_seconds > 0) == (result.n_requests > 0)


@given(
    rate=st.floats(min_value=0.2, max_value=64.0),
    qos=st.floats(min_value=14.0, max_value=200.0),
)
@settings(max_examples=40, deadline=None)
def test_planner_policies_always_respect_structure(rate, qos):
    planner = StreamingPlanner(AWS_LAMBDA, XAPIAN, EXEC)
    policy = planner.plan(arrival_rate_per_s=rate, qos_sojourn_s=qos)
    assert policy.degree >= 1
    assert policy.batch_timeout_s >= 0.0
    # The structural guarantee: timeout + inflated ET fits the budget.
    if policy.degree > 1:
        assert (
            policy.batch_timeout_s + EXEC.predict(policy.degree) * 1.05
            <= qos * 0.88 + 1e-6
        )
