"""Tests for the online replanner (hysteresis, cooldown, optimizer cap)."""

import pytest

from repro.core.models import ExecutionTimeModel, ScalingTimeModel
from repro.platform.providers import AWS_LAMBDA
from repro.extensions.streaming import StreamingPlanner
from repro.serving.controller import OnlineReplanner, StreamingPolicy
from repro.workloads import XAPIAN

EXEC = ExecutionTimeModel(
    coeff_a=XAPIAN.base_seconds, coeff_b=0.03, mem_gb=XAPIAN.mem_gb
)
SCALING = ScalingTimeModel(beta1=8e-5, beta2=0.01, beta3=5.0)


def make_replanner(**overrides):
    kwargs = dict(
        profile=AWS_LAMBDA,
        app=XAPIAN,
        exec_model=EXEC,
        qos_sojourn_s=30.0,
        window_s=100.0,
        hysteresis=0.25,
        cooldown_s=180.0,
    )
    kwargs.update(overrides)
    return OnlineReplanner(**kwargs)


def feed_rate(replanner, rate_per_s, start, end):
    t = start
    gap = 1.0 / rate_per_s
    while t < end:
        replanner.record_arrivals([t])
        t += gap


def test_validation():
    with pytest.raises(ValueError):
        make_replanner(window_s=0.0)
    with pytest.raises(ValueError):
        make_replanner(hysteresis=-0.1)
    with pytest.raises(ValueError):
        make_replanner(cooldown_s=-1.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, value", [
    ("qos_sojourn_s", NAN),
    ("window_s", NAN),
    ("hysteresis", NAN),
    ("cooldown_s", NAN),
    ("pool_headroom", NAN),
    ("pool_headroom", -1.0),
    ("min_rate_per_s", NAN),
])
def test_replanner_refuses_bad_inputs_at_construction(field, value):
    """Each of these used to construct: a NaN window or headroom failed
    mid-run, the others ran on with comparisons NaN always fails."""
    with pytest.raises(ValueError, match=field):
        make_replanner(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("degree", 2.5), ("batch_timeout_s", NAN), ("batch_timeout_s", INF),
])
def test_streaming_policy_refuses_bad_inputs_at_construction(field, value):
    """A NaN timeout used to act as a zero one, an infinite one failed at
    the first timer and a fractional degree at the first batch."""
    kwargs = {"degree": 8, "batch_timeout_s": 2.0, field: value}
    with pytest.raises(ValueError, match=field):
        StreamingPolicy(**kwargs)


@pytest.mark.parametrize("field, value", [
    ("arrival_rate_per_s", NAN), ("qos_sojourn_s", NAN), ("qos_sojourn_s", INF),
])
def test_streaming_planner_refuses_bad_inputs(field, value):
    """A NaN rate used to plan degree 24, a NaN or infinite bound a NaN or
    infinite timeout."""
    kwargs = {"arrival_rate_per_s": 2.0, "qos_sojourn_s": 30.0, field: value}
    with pytest.raises(ValueError, match=field):
        StreamingPlanner(AWS_LAMBDA, XAPIAN, EXEC).plan(**kwargs)


def test_record_arrivals_in_runs_equals_one_at_a_time():
    """The window's cutoffs only grow, so one trim per run of arrivals
    leaves the window that one trim per arrival leaves."""
    times = [0.25 * k * k for k in range(60)]  # gaps grow past the window
    one, runs = make_replanner(window_s=20.0), make_replanner(window_s=20.0)
    for t in times:
        one.record_arrivals([t])
    for lo, hi in ((0, 1), (1, 17), (17, 17), (17, 45), (45, 60)):
        runs.record_arrivals(times[lo:hi])
        assert list(runs._arrivals) == [t for t in times[:hi] if t >= times[hi - 1] - 20.0]
    assert list(one._arrivals) == list(runs._arrivals)


def test_sliding_window_rate_estimate():
    replanner = make_replanner(window_s=100.0)
    feed_rate(replanner, 2.0, 0.0, 200.0)
    # Only the last 100s of arrivals count: 200 arrivals / 100s.
    assert replanner.observed_rate(200.0) == pytest.approx(2.0, rel=0.05)
    # An idle stretch empties the window entirely.
    assert replanner.observed_rate(1000.0) == 0.0


def test_first_replan_adopts_initial_plan():
    replanner = make_replanner()
    feed_rate(replanner, 2.0, 0.0, 100.0)
    decision = replanner.replan(100.0)
    assert decision.changed
    assert decision.reason == "initial"
    assert decision.policy.degree >= 1
    assert decision.pool_target >= 1
    assert replanner.policy == decision.policy


def test_small_drift_is_held_by_hysteresis():
    replanner = make_replanner(hysteresis=0.25)
    feed_rate(replanner, 2.0, 0.0, 100.0)
    replanner.replan(100.0)
    feed_rate(replanner, 2.2, 100.0, 200.0)  # 10% drift < 25% deadband
    decision = replanner.replan(200.0)
    assert not decision.changed
    assert decision.reason == "hysteresis-hold"
    assert replanner.changes == 1


def test_large_drift_in_cooldown_is_held():
    replanner = make_replanner(hysteresis=0.25, cooldown_s=500.0)
    feed_rate(replanner, 2.0, 0.0, 100.0)
    replanner.replan(100.0)
    feed_rate(replanner, 8.0, 100.0, 200.0)  # 4x the planned rate
    decision = replanner.replan(200.0)
    assert not decision.changed
    assert decision.reason == "cooldown-hold"


def test_large_drift_past_cooldown_is_adopted():
    replanner = make_replanner(hysteresis=0.25, cooldown_s=50.0)
    feed_rate(replanner, 0.2, 0.0, 100.0)
    first = replanner.replan(100.0)
    feed_rate(replanner, 8.0, 100.0, 200.0)
    decision = replanner.replan(200.0)
    assert decision.changed
    assert decision.reason == "rate-drift"
    # Much more traffic: the planner packs deeper and targets a bigger pool.
    assert decision.policy.degree > first.policy.degree
    assert decision.pool_target > first.pool_target
    assert replanner.changes == 2
    assert replanner.replans == 2


def test_decisions_are_logged():
    replanner = make_replanner()
    feed_rate(replanner, 1.0, 0.0, 100.0)
    replanner.replan(100.0)
    feed_rate(replanner, 1.0, 100.0, 160.0)
    replanner.replan(160.0)
    assert [d.reason for d in replanner.decisions] == [
        "initial", "hysteresis-hold"
    ]


def test_optimizer_caps_the_degree():
    """With a scaling model, the joint burst optimum bounds the degree."""
    uncapped = make_replanner()
    feed_rate(uncapped, 8.0, 0.0, 100.0)
    planned = uncapped.replan(100.0).policy

    # A scaling model with a huge quadratic term makes deep packing
    # pointless for the burst optimizer, which then caps the degree.
    harsh = ScalingTimeModel(beta1=0.0, beta2=0.0, beta3=0.0)
    capped = make_replanner(scaling_model=harsh)
    feed_rate(capped, 8.0, 0.0, 100.0)
    decision = capped.replan(100.0)
    assert decision.policy.degree < planned.degree
    # The planner's timeout survives the cap (still QoS-feasible).
    assert decision.policy.batch_timeout_s == pytest.approx(
        planned.batch_timeout_s
    )
