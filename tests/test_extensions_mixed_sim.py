"""Tests for the simulated execution of mixed packing plans."""

import pytest

from repro.core.profiler import ScalingProfiler
from repro.extensions.mixed import MixedPacker, MixedPlan
from repro.extensions.mixed_sim import MixedBurstSimulator, _group_image
from repro.extensions.mixed import MixedGroup
from repro.platform.base import ServerlessPlatform
from repro.platform.billing import BillingModel
from repro.platform.providers import AWS_LAMBDA
from repro.platform.scheduler_decentralized import DecentralizedScheduler
from repro.workloads import SMITH_WATERMAN, SORT, STATELESS_COST, VIDEO


@pytest.fixture(scope="module")
def packer():
    return MixedPacker(AWS_LAMBDA)


@pytest.fixture(scope="module")
def simulator():
    return MixedBurstSimulator(AWS_LAMBDA, seed=121)


def test_group_image_union():
    group = MixedGroup(((SORT, 2), (VIDEO, 3)))
    image = _group_image(group)
    assert image.name == "sort+video"
    # Union carries both apps' code over one shared runtime.
    assert image.code_mb == SORT.code_mb + VIDEO.code_mb
    assert image.runtime_mb == max(SORT.runtime_mb, VIDEO.runtime_mb)


def test_mixed_sim_runs_every_group(packer, simulator):
    plan = packer.pack_mixed({SORT: 30, STATELESS_COST: 50})
    result = simulator.run(plan)
    assert result.run.n_instances == plan.n_instances
    assert sum(r.n_packed for r in result.run.records) == 80


def test_mixed_sim_rejects_empty_plan(packer, simulator):
    with pytest.raises(ValueError):
        simulator.run(packer.pack_mixed({}))


def test_mixed_sim_matches_analytic_service_prediction(packer, simulator):
    """The planner's analytic service-time prediction must track the DES."""
    plan = packer.pack_mixed({SORT: 100, VIDEO: 200, STATELESS_COST: 150})
    # Fit the scaling model from the real platform, as ProPack would.
    platform = ServerlessPlatform(AWS_LAMBDA, seed=121)
    scaling = ScalingProfiler(platform).profile().model
    predicted = plan.predicted_service_time(packer.model, scaling)
    result = simulator.run(plan)
    assert result.service_time == pytest.approx(predicted, rel=0.15)


def test_mixed_sim_expense_scales_with_instances(packer, simulator):
    small = simulator.run(packer.pack_mixed({SORT: 20}))
    large = simulator.run(packer.pack_mixed({SORT: 200}))
    assert large.expense_usd > 5 * small.expense_usd


def test_mixed_vs_segregated_in_simulation(packer, simulator):
    """Riding light functions along with heavy ones: the mixed plan uses
    fewer instances, so it scales faster in the DES too."""
    demand = {SMITH_WATERMAN: 120, STATELESS_COST: 240}
    mixed = packer.pack_mixed(demand)
    segregated = packer.pack_segregated(
        demand, {SMITH_WATERMAN: 4, STATELESS_COST: 8}
    )
    mixed_run = simulator.run(mixed, repetition=1)
    seg_run = simulator.run(segregated, repetition=1)
    assert mixed.n_instances < segregated.n_instances
    assert mixed_run.scaling_time < seg_run.scaling_time


def test_mixed_sim_deterministic(packer):
    plan = packer.pack_mixed({SORT: 40, VIDEO: 40})
    a = MixedBurstSimulator(AWS_LAMBDA, seed=5).run(plan)
    b = MixedBurstSimulator(AWS_LAMBDA, seed=5).run(plan)
    assert a.service_time == b.service_time
    assert a.expense_usd == b.expense_usd


def test_mixed_sim_reports_billed_gb_seconds(packer, simulator):
    """The run ends in the kernel's collect, so its fault stats carry the
    billed GB-seconds of its records, added in record order."""
    result = simulator.run(packer.pack_mixed({SORT: 30, VIDEO: 20, STATELESS_COST: 50}))
    billing = BillingModel(AWS_LAMBDA)
    expected = 0.0
    for r in result.run.records:
        expected += r.exec_seconds * billing.billed_memory_mb(r.provisioned_mb) / 1024.0
    stats = result.run.fault_stats
    assert stats.total_billed_gb_seconds == expected > 0.0
    assert stats.wasted_billed_gb_seconds == 0.0


def test_mixed_sim_places_through_the_sharded_scheduler(packer, monkeypatch):
    """A profile with scheduler shards runs mixed plans on the same sharded
    control plane as every other burst."""
    shards_seen = []
    place = DecentralizedScheduler.request_placement

    def spy(self, *args):
        shards_seen.append(self.shards)
        return place(self, *args)

    monkeypatch.setattr(DecentralizedScheduler, "request_placement", spy)
    plan = packer.pack_mixed({SORT: 30, STATELESS_COST: 50})
    sharded = AWS_LAMBDA.with_overrides(scheduler_shards=4)
    result = MixedBurstSimulator(sharded, seed=121).run(plan)
    assert shards_seen == [4] * result.run.n_instances


def test_mixed_groups_free_their_slots_when_they_finish():
    """A finished group's instance frees its server slot, as every burst's
    does. One server hosts 16 max-memory instances; the 17th placement
    comes after the first groups have finished, so the run completes, and
    since a placement's time depends only on how many came before it, the
    run equals the same plan's on the full fleet."""
    plan = MixedPlan(groups=[MixedGroup(((STATELESS_COST, 2),))] * 20, segregated=True)
    slow = AWS_LAMBDA.with_overrides(sched_search_s=2.0)
    one_server = MixedBurstSimulator(slow.with_overrides(fleet_servers=1), seed=3).run(plan)
    full_fleet = MixedBurstSimulator(slow, seed=3).run(plan)
    assert one_server.run.n_instances == 20
    assert one_server.run == full_fleet.run
    assert one_server.storage == full_fleet.storage


def test_crashed_mixed_attempts_refetch_each_member_apps_inputs():
    """A crashed attempt re-pays the inputs of the apps it actually ran:
    each group's own app and count, never the plan's first app."""
    from repro.platform.providers import GOOGLE_CLOUD_FUNCTIONS
    from repro.platform.storage import ObjectStore

    flaky = GOOGLE_CLOUD_FUNCTIONS.with_overrides(failure_rate=0.2)
    plan = MixedPacker(flaky).pack_segregated(
        {SORT: 60, VIDEO: 80, STATELESS_COST: 200},
        {SORT: 6, VIDEO: 4, STATELESS_COST: 10},
    )
    result = MixedBurstSimulator(flaky, seed=11).run(plan)
    records = result.run.records
    failed = [g for r, g in zip(records, result.record_groups) if r.failed]
    assert len(failed) == 16
    # Most crashes hit video or stateless-cost groups, whose I/O differs
    # from sort's; charging them as sort moves the transferred volume.
    assert sum(plan.groups[g].apps[0] is not SORT for g in failed) > 8
    expected = ObjectStore()
    successful = result.run.table.successful().tolist()
    for record, ok, g in zip(records, successful, result.record_groups):
        for app, count in plan.groups[g].members:
            if record.failed:
                expected.record_failed_attempt(app, count)
            elif ok:
                expected.record_instance(app, count)
    usage = result.storage
    assert (usage.put_requests, usage.get_requests) == (
        expected.usage.put_requests, expected.usage.get_requests
    )
    assert usage.transferred_mb == pytest.approx(expected.usage.transferred_mb, rel=1e-12)
