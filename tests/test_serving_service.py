"""End-to-end tests for the long-horizon serving simulator."""

import math

import numpy as np
import pytest

from repro.core.models import ExecutionTimeModel
from repro.extensions.streaming import StreamingPolicy
from repro.platform.providers import AWS_LAMBDA
from repro.serving import (
    ArrivalProcess,
    DiurnalProcess,
    FixedTTL,
    HybridHistogram,
    NoKeepAlive,
    OnlineReplanner,
    PoissonProcess,
    ServingConfig,
    ServingSimulator,
    WarmPool,
)
from repro.sim.engine import SimulationError
from repro.workloads import XAPIAN

EXEC = ExecutionTimeModel(
    coeff_a=XAPIAN.base_seconds, coeff_b=0.03, mem_gb=XAPIAN.mem_gb
)
POLICY = StreamingPolicy(degree=6, batch_timeout_s=4.0)


def make_simulator(pool_policy=None, controller=None, seed=11, config=ServingConfig()):
    return ServingSimulator(
        AWS_LAMBDA,
        XAPIAN,
        EXEC,
        pool=WarmPool(pool_policy if pool_policy is not None else FixedTTL(60.0)),
        config=config,
        controller=controller,
        seed=seed,
    )


def test_config_validation():
    with pytest.raises(ValueError):
        ServingConfig(cold_start_s=-1.0)
    with pytest.raises(ValueError):
        ServingConfig(qos_sojourn_s=0.0)
    with pytest.raises(ValueError):
        ServingConfig(replan_interval_s=0.0)


@pytest.mark.parametrize(
    "name, value",
    [
        # A NaN bound judges no sojourn a violation: attainment 1.0.
        ("qos_sojourn_s", math.nan),
        # Every cold dispatch would bill NaN.
        ("cold_init_billed_s", math.nan),
        # With a controller, the number of control ticks would be NaN.
        ("replan_interval_s", math.nan),
        # The SLO tracker needs window >= bucket > 0; caught here, not in run().
        ("slo_bucket_s", 0.0),
        ("slo_bucket_s", -60.0),
        ("slo_window_s", 0.0),
        # A NaN latency cannot be scheduled: the run would stop midway.
        ("cold_start_s", math.nan),
        ("warm_dispatch_s", math.nan),
    ],
)
def test_config_rejects_bad_values_at_construction(name, value):
    with pytest.raises(ValueError, match=name):
        ServingConfig(**{name: value})


def test_rejects_bad_horizon():
    with pytest.raises(ValueError):
        make_simulator().run(PoissonProcess(1.0), POLICY, 0.0)


@pytest.mark.parametrize("horizon_s", [math.nan, math.inf, -1.0])
def test_run_rejects_a_non_finite_or_negative_horizon(horizon_s):
    with pytest.raises(ValueError, match="horizon_s"):
        make_simulator().run(PoissonProcess(1.0), POLICY, horizon_s)


def _seed3_simulator(replanned):
    pool = WarmPool(HybridHistogram() if replanned else FixedTTL(60.0))
    controller = (
        OnlineReplanner(AWS_LAMBDA, XAPIAN, EXEC, qos_sojourn_s=30.0)
        if replanned else None
    )
    return ServingSimulator(
        AWS_LAMBDA, XAPIAN, EXEC, pool=pool, controller=controller, seed=3
    )


@pytest.mark.parametrize(
    "replanned, horizon_s, first",
    [(False, 600.0, (324, 7)), (True, 1200.0, (244, 29))],
    ids=["fixed-ttl", "hybrid-replanned"],
)
def test_a_simulator_serves_one_run(replanned, horizon_s, first):
    """A second run would start from the first one's pool stats, capacity
    and learned gaps and the replanner's arrival window, and report them
    as its own (14 evictions instead of 7; 586 dispatches instead of 244).
    It raises instead; a fresh simulator repeats the first run exactly."""
    policy = StreamingPolicy(degree=4, batch_timeout_s=2.0)
    sim = _seed3_simulator(replanned)
    with pytest.raises(ValueError, match="horizon_s"):
        sim.run(PoissonProcess(2.0), policy, math.nan)  # serves nothing
    result = sim.run(PoissonProcess(2.0), policy, horizon_s)
    assert (result.n_dispatches, result.evictions) == first
    with pytest.raises(RuntimeError, match="new simulator"):
        sim.run(PoissonProcess(2.0), policy, horizon_s)
    again = _seed3_simulator(replanned).run(PoissonProcess(2.0), policy, horizon_s)
    assert again.signature() == result.signature()
    assert again.expense == result.expense


def test_every_request_is_served_once():
    result = make_simulator().run(PoissonProcess(2.0), POLICY, 600.0)
    assert result.n_requests > 0
    assert result.digest.count == result.n_requests
    assert result.slo.total == result.n_requests
    assert result.cold_dispatches + result.warm_dispatches == result.n_dispatches


def test_same_seed_is_bit_identical():
    process = DiurnalProcess(1.0, amplitude=0.7, period_s=1200.0)
    a = make_simulator(seed=5).run(process, POLICY, 1200.0)
    b = make_simulator(seed=5).run(process, POLICY, 1200.0)
    assert a.signature() == b.signature()
    assert a.expense.total_usd == b.expense.total_usd


def test_different_seeds_differ():
    process = DiurnalProcess(1.0, amplitude=0.7, period_s=1200.0)
    a = make_simulator(seed=5).run(process, POLICY, 1200.0)
    b = make_simulator(seed=6).run(process, POLICY, 1200.0)
    assert a.signature() != b.signature()


def test_no_keepalive_is_all_cold_and_unbilled_for_idle():
    result = make_simulator(pool_policy=NoKeepAlive()).run(
        PoissonProcess(2.0), POLICY, 600.0
    )
    assert result.cold_dispatches == result.n_dispatches
    assert result.idle_gb_seconds == 0.0
    assert result.expense.keepalive_usd == 0.0
    assert result.cold_start_fraction == 1.0


def test_keepalive_trades_idle_cost_for_warm_starts():
    cold = make_simulator(pool_policy=NoKeepAlive()).run(
        PoissonProcess(2.0), POLICY, 600.0
    )
    warm = make_simulator(pool_policy=FixedTTL(60.0)).run(
        PoissonProcess(2.0), POLICY, 600.0
    )
    assert warm.warm_dispatches > 0
    assert warm.expense.keepalive_usd > 0.0
    assert warm.cold_start_fraction < cold.cold_start_fraction
    # Warm dispatches skip the cold-start latency *and* the billed init.
    assert warm.p99_sojourn_s < cold.p99_sojourn_s
    assert warm.expense.compute_usd < cold.expense.compute_usd


def test_replan_mode_adapts_the_policy():
    process = DiurnalProcess(1.5, amplitude=0.8, period_s=1800.0)
    controller = OnlineReplanner(
        AWS_LAMBDA, XAPIAN, EXEC, qos_sojourn_s=30.0,
        window_s=300.0, cooldown_s=120.0,
    )
    result = make_simulator(controller=controller).run(process, POLICY, 1800.0)
    assert result.mode == "replan"
    assert result.replans == controller.replans > 0
    assert result.policy_changes == controller.changes > 0
    assert result.final_degree == controller.policy.degree


def test_cost_per_request_and_fractions_are_consistent():
    result = make_simulator().run(PoissonProcess(2.0), POLICY, 600.0)
    assert result.cost_per_request_usd() == pytest.approx(
        result.expense.total_usd / result.n_requests
    )
    assert 0.0 <= result.cold_start_fraction <= 1.0
    assert 0.0 <= result.slo_violation_fraction <= 1.0
    assert result.p50_sojourn_s <= result.p99_sojourn_s


def test_p99_meets_the_bound_exactly_when_at_most_one_percent_violate():
    """Nearest-rank p99 and the SLO tracker agree on the boundary itself.

    Without a controller the bound changes no dispatch, so the same
    sojourns are judged against their own p99 (held) and the next float
    below it (breached).
    """
    def run(qos):
        config = ServingConfig(qos_sojourn_s=qos)
        return make_simulator(config=config).run(PoissonProcess(2.0), POLICY, 600.0)

    p99 = run(30.0).p99_sojourn_s
    held, breached = run(p99), run(math.nextafter(p99, 0.0))
    for result in (held, breached):
        assert result.p99_sojourn_s == p99
        assert (result.p99_sojourn_s <= result.slo.slo_s) == (
            result.slo.violation_fraction <= 0.01
        )
    assert held.slo.violation_fraction <= 0.01 < breached.slo.violation_fraction


class _Unsorted(ArrivalProcess):
    mean_rate_per_s = 1.0

    def sample(self, streams, horizon_s):
        return np.array([5.0, 1.0, 3.0])


def test_unsorted_arrivals_fail_loudly():
    """The arrival contract says sorted; the agenda no longer reorders."""
    with pytest.raises(SimulationError):
        make_simulator().run(_Unsorted(), POLICY, 10.0)
