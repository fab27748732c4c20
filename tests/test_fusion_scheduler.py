"""FusionScheduler: fused execution, tenant attribution, and re-billing.

Fused plans run on the exact mixed-app engine path, so per-seed byte
determinism is inherited; what these tests pin down is the ledger on top:
per-tenant bills always sum to the run's expense breakdown, a single
tenant gets the whole bill, and the same records re-billed under a
coarser schedule never get cheaper.
"""

import pytest

from repro.chaos.invariants import check_tenant_billing_attribution
from repro.fusion.scheduler import FusionScheduler, attribute_expense, rebill
from repro.fusion.spec import FusionGroup, FusionPlan
from repro.platform.billing import BillingModel
from repro.platform.providers import AWS_LAMBDA
from repro.workloads import SORT, STATELESS_COST, VIDEO


def two_tenant_plan():
    fused = FusionGroup((("a", SORT, 2), ("b", STATELESS_COST, 3)))
    solo = FusionGroup((("a", SORT, 5),))
    return FusionPlan(bundles=((fused, 4), (solo, 3)))


def test_execution_is_byte_deterministic():
    plan = two_tenant_plan()
    r1 = FusionScheduler(AWS_LAMBDA, seed=7).execute(plan)
    r2 = FusionScheduler(AWS_LAMBDA, seed=7).execute(plan)
    assert r1.run.records == r2.run.records
    assert r1.expense == r2.expense
    assert r1.bills == r2.bills
    r3 = FusionScheduler(AWS_LAMBDA, seed=8).execute(plan)
    assert r1.run.records != r3.run.records


#: The legacy 100 ms schedule: every instance's bill is rounded on its own.
ROUNDED = AWS_LAMBDA.with_overrides(
    billing_granularity_s=0.1, min_billed_duration_s=0.1
)


def test_bills_sum_to_the_expense_breakdown():
    for profile in (AWS_LAMBDA, ROUNDED):
        report = FusionScheduler(profile, seed=3).execute(two_tenant_plan())
        assert check_tenant_billing_attribution(
            report.expense_usd, report.bills
        ) == []
        assert sum(b.total_usd for b in report.bills) == pytest.approx(
            report.expense_usd, rel=1e-12
        )
        # Component-wise conservation, not just the total.
        assert sum(b.compute_usd for b in report.bills) == pytest.approx(
            report.expense.compute_usd, rel=1e-12
        )
        assert sum(b.requests_usd for b in report.bills) == pytest.approx(
            report.expense.requests_usd, rel=1e-12
        )


def test_single_tenant_gets_the_whole_bill():
    plan = FusionPlan(bundles=((FusionGroup((("solo", SORT, 4),)), 5),))
    report = FusionScheduler(AWS_LAMBDA, seed=3).execute(plan)
    assert len(report.bills) == 1
    bill = report.bill_for("solo")
    assert bill.total_usd == pytest.approx(report.expense_usd, rel=1e-12)
    assert bill.functions == 20
    with pytest.raises(KeyError):
        report.bill_for("nobody")


def test_attribution_follows_memory_footprint():
    """In a fused instance, the tenant holding more memory pays a larger
    share of that instance's compute and request fee."""
    fused = FusionGroup((("big", VIDEO, 4), ("small", STATELESS_COST, 1)))
    plan = FusionPlan(bundles=((fused, 3),))
    report = FusionScheduler(AWS_LAMBDA, seed=1).execute(plan)
    weights = fused.tenant_weights()
    big, small = report.bill_for("big"), report.bill_for("small")
    assert big.compute_usd / small.compute_usd == pytest.approx(
        weights["big"] / weights["small"], rel=1e-9
    )
    assert big.requests_usd > small.requests_usd


def test_rebill_changes_dollars_not_dynamics():
    plan = two_tenant_plan()
    exact = FusionScheduler(AWS_LAMBDA, seed=11).execute(plan)
    rounded = rebill(exact, ROUNDED)
    # Same records, same timings — only the dollars moved, and only up.
    assert rounded.run.records == exact.run.records
    assert rounded.service_time == exact.service_time
    assert rounded.expense_usd >= exact.expense_usd
    assert check_tenant_billing_attribution(
        rounded.expense_usd, rounded.bills
    ) == []
    # Re-billing under the original schedule is the identity.
    again = rebill(exact, AWS_LAMBDA)
    assert again.expense == exact.expense
    assert again.bills == exact.bills


def test_rebill_matches_direct_execution_under_that_profile():
    plan = two_tenant_plan()
    direct = FusionScheduler(ROUNDED, seed=5).execute(plan)
    rebilled = rebill(
        FusionScheduler(AWS_LAMBDA, seed=5).execute(plan), ROUNDED
    )
    assert rebilled.expense == direct.expense
    assert rebilled.bills == direct.bills


def test_attribution_detects_plan_record_drift():
    plan = two_tenant_plan()
    report = FusionScheduler(AWS_LAMBDA, seed=2).execute(plan)
    # A different plan whose expansion disagrees with the records must be
    # rejected loudly, never silently mis-billed.
    wrong = FusionPlan(bundles=((FusionGroup((("a", SORT, 1),)), 7),))
    with pytest.raises(RuntimeError, match="drifted"):
        attribute_expense(
            wrong, report.run, report.storage, BillingModel(AWS_LAMBDA)
        )


def test_retried_fused_attempts_are_attributed_to_their_group():
    """A retry appends a record past the plan's instances; attribution
    follows the record's chain, so a flaky fused run completes, its bills
    sum to its expense, and re-billing attributes the same way."""
    from repro.fusion import FusedFleet, mix_demands
    from repro.workloads import ALL_APPS

    flaky = AWS_LAMBDA.with_overrides(failure_rate=0.1)
    fleet = FusedFleet(flaky, seed=7)
    for tenant, app, count in mix_demands("trio", 61):
        fleet.submit(tenant, ALL_APPS[app], count)
    report = fleet.run("both").report
    groups = report.plan.instance_groups()
    assert len(report.run.table) > len(groups)  # some attempt was retried
    assert sorted(set(report.record_groups)) == list(range(len(groups)))
    assert [groups[g].size for g in report.record_groups] == (
        report.run.table.n_packed.tolist()
    )
    assert check_tenant_billing_attribution(report.expense_usd, report.bills) == []
    rebilled = rebill(report, ROUNDED)
    assert rebilled.record_groups == report.record_groups
    assert check_tenant_billing_attribution(rebilled.expense_usd, rebilled.bills) == []
    assert rebill(report, flaky).bills == report.bills  # the identity
