"""Tests for streaming (sustained-arrival) packing: the batching policy,
its planner, and planned policies served by the serving simulator."""

import pytest

from repro.core.models import ExecutionTimeModel
from repro.extensions.streaming import StreamingPlanner, StreamingPolicy
from repro.platform.providers import AWS_LAMBDA
from repro.serving import (
    FixedTTL,
    PoissonProcess,
    ServingConfig,
    ServingSimulator,
    WarmPool,
)
from repro.workloads import XAPIAN

EXEC = ExecutionTimeModel(
    coeff_a=XAPIAN.base_seconds, coeff_b=0.03, mem_gb=XAPIAN.mem_gb
)


def serve(policy, rate, n_requests, repetition=0):
    """Poisson traffic averaging ``n_requests`` under ``policy``."""
    simulator = ServingSimulator(
        AWS_LAMBDA,
        XAPIAN,
        EXEC,
        pool=WarmPool(FixedTTL(120.0)),
        seed=161,
    )
    return simulator.run(
        PoissonProcess(rate), policy, n_requests / rate, repetition=repetition
    )


def mean_batch_size(result):
    return result.n_requests / result.n_dispatches


# --------------------------------------------------------------------- #
# Policy and batching mechanics
# --------------------------------------------------------------------- #

def test_policy_validation():
    with pytest.raises(ValueError):
        StreamingPolicy(degree=0, batch_timeout_s=1.0)
    with pytest.raises(ValueError):
        StreamingPolicy(degree=1, batch_timeout_s=-1.0)


def test_batches_never_exceed_degree():
    policy = StreamingPolicy(degree=4, batch_timeout_s=2.0)
    result = serve(policy, rate=10.0, n_requests=300)
    assert max(d.batch for d in result.dispatches) <= 4
    # Heavy traffic fills most batches.
    assert mean_batch_size(result) > 2.5


def test_timeout_flushes_partial_batches():
    """At a trickle arrival rate, the timeout dispatches undersized batches."""
    policy = StreamingPolicy(degree=8, batch_timeout_s=0.5)
    result = serve(policy, rate=0.2, n_requests=40)
    assert mean_batch_size(result) < 2.0


def test_degree_one_has_no_batching_delay():
    policy = StreamingPolicy(degree=1, batch_timeout_s=0.0)
    result = serve(policy, rate=2.0, n_requests=100)
    # Sojourn = start latency + ET(1) (±noise); no queueing for a batch.
    floor = EXEC.predict(1)
    assert result.p95_sojourn_s < floor * 1.2 + ServingConfig().cold_start_s


def test_cold_starts_confined_to_ramp_up():
    """The keep-alive pool grows to the stream's concurrency once; after
    that ramp-up every dispatch lands on a warm instance."""
    policy = StreamingPolicy(degree=2, batch_timeout_s=1.0)
    rate, n_requests = 5.0, 2000
    result = serve(policy, rate, n_requests)
    horizon_s = n_requests / rate
    cold_at = [d.launched_at for d in result.dispatches if not d.warm]
    assert len(cold_at) == result.cold_dispatches > 0
    assert max(cold_at) < 0.1 * horizon_s
    assert result.cold_start_fraction < 0.1


def test_packing_cuts_cost_per_request():
    solo = serve(StreamingPolicy(degree=1, batch_timeout_s=0.0), 5.0, 200)
    packed = serve(
        StreamingPolicy(degree=8, batch_timeout_s=3.0), 5.0, 200, repetition=1
    )
    assert packed.cost_per_request_usd() < 0.5 * solo.cost_per_request_usd()


def test_packing_adds_batching_latency():
    solo = serve(StreamingPolicy(degree=1, batch_timeout_s=0.0), 2.0, 150)
    packed = serve(
        StreamingPolicy(degree=10, batch_timeout_s=10.0), 2.0, 150, repetition=1
    )
    assert packed.p50_sojourn_s > solo.p50_sojourn_s


# --------------------------------------------------------------------- #
# Planner
# --------------------------------------------------------------------- #

def test_planner_loose_bound_packs_deep():
    planner = StreamingPlanner(AWS_LAMBDA, XAPIAN, EXEC)
    policy = planner.plan(arrival_rate_per_s=10.0, qos_sojourn_s=500.0)
    assert policy.degree > 10


def test_planner_tight_bound_packs_shallow():
    planner = StreamingPlanner(AWS_LAMBDA, XAPIAN, EXEC)
    loose = planner.plan(arrival_rate_per_s=10.0, qos_sojourn_s=500.0)
    tight = planner.plan(arrival_rate_per_s=10.0, qos_sojourn_s=16.0)
    assert tight.degree < loose.degree


def test_planner_impossible_bound_falls_back_to_solo():
    planner = StreamingPlanner(AWS_LAMBDA, XAPIAN, EXEC)
    policy = planner.plan(arrival_rate_per_s=1.0, qos_sojourn_s=0.5)
    assert policy.degree == 1


def test_planner_bound_validation():
    planner = StreamingPlanner(AWS_LAMBDA, XAPIAN, EXEC)
    with pytest.raises(ValueError):
        planner.plan(arrival_rate_per_s=1.0, qos_sojourn_s=0.0)


def test_planned_policy_meets_qos_in_simulation():
    """The analytic plan must hold up in the discrete-event simulation."""
    planner = StreamingPlanner(AWS_LAMBDA, XAPIAN, EXEC)
    rate, bound = 8.0, 25.0
    policy = planner.plan(arrival_rate_per_s=rate, qos_sojourn_s=bound)
    assert policy.degree > 1  # the bound leaves room to pack
    result = serve(policy, rate=rate, n_requests=400)
    assert result.p95_sojourn_s <= bound
