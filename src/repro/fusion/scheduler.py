"""FusionScheduler: launch fused instances on the shared dispatch kernel.

Execution reuses the exact engine path mixed-app plans already take: the
:class:`~repro.fusion.spec.FusionPlan` expands to a
:class:`~repro.extensions.mixed.MixedPlan` and runs through
:class:`~repro.extensions.mixed_sim.MixedBurstSimulator` — i.e. the shared
:class:`~repro.engine.burst.BurstDispatchKernel`, handed one chain record
per fused instance — so fused runs are byte-deterministic per seed and
inherit the placement scheduler, container pipeline, and billing
treatment unchanged.

What fusion adds on top is the *ledger*: every instance record is mapped
back to its fusion group (the run reports the chain each record ran, and
chains follow the plan's deterministic expansion order, so a retried
attempt maps to its group too) and its charges are attributed to tenants
proportionally — compute and request fees by memory-footprint share of the
instance, storage and egress by I/O-footprint share of the run. The attribution is
conservative by construction: per-tenant bills sum to the run's expense
breakdown, which :func:`repro.chaos.invariants.check_tenant_billing_attribution`
audits.

Because simulation dynamics never depend on the billing schedule, a
finished report can be *re-billed* under a different fidelity
(:func:`rebill`) without re-running — that is how experiments compare
exact vs 100 ms-rounded dollars on one set of records.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.extensions.mixed_sim import MixedBurstSimulator
from repro.fusion.spec import FusionGroup, FusionPlan
from repro.platform.billing import BillingModel
from repro.platform.metrics import ExpenseBreakdown, RunResult
from repro.platform.providers import PlatformProfile
from repro.platform.storage import StorageUsage


@dataclass(frozen=True)
class TenantBill:
    """One tenant's attributed share of a fused run's expense."""

    tenant: str
    functions: int
    compute_usd: float
    requests_usd: float
    storage_usd: float
    egress_usd: float

    @property
    def total_usd(self) -> float:
        return (
            self.compute_usd + self.requests_usd + self.storage_usd + self.egress_usd
        )


@dataclass
class FusionRunReport:
    """A fused run's measurements plus its per-tenant ledger.

    ``record_groups`` is each record's index into
    :meth:`FusionPlan.instance_groups`, in record order.
    """

    plan: FusionPlan
    run: RunResult
    storage: StorageUsage
    expense: ExpenseBreakdown
    bills: tuple[TenantBill, ...]
    record_groups: tuple[int, ...]

    @property
    def service_time(self) -> float:
        return self.run.service_time()

    @property
    def scaling_time(self) -> float:
        return self.run.scaling_time

    @property
    def expense_usd(self) -> float:
        return self.expense.total_usd

    @property
    def n_functions(self) -> int:
        return self.plan.n_functions

    def usd_per_1k_functions(self) -> float:
        return 1000.0 * self.expense.total_usd / max(1, self.plan.n_functions)

    def bill_for(self, tenant: str) -> TenantBill:
        for bill in self.bills:
            if bill.tenant == tenant:
                return bill
        raise KeyError(f"no bill for tenant {tenant!r}")


def _group_for_instance(
    plan_groups: list[FusionGroup], group_index: int, instance_id: int, n_packed: int
) -> FusionGroup:
    """The plan group instance ``instance_id`` ran, the ``group_index``-th
    of the deterministic expansion order, checked against its size."""
    group = plan_groups[group_index] if group_index < len(plan_groups) else None
    if group is None or group.size != n_packed:
        holds = "no group" if group is None else f"{group.size} functions"
        raise RuntimeError(
            f"instance {instance_id} packed {n_packed} functions "
            f"but its plan group holds {holds} — plan/record order drifted"
        )
    return group


def attribute_expense(
    plan: FusionPlan,
    run: RunResult,
    storage: StorageUsage,
    billing: BillingModel,
    record_groups: Optional[Sequence[int]] = None,
) -> tuple[ExpenseBreakdown, tuple[TenantBill, ...]]:
    """Bill ``run`` under ``billing`` and split every line item by tenant.

    Compute and the per-instance request fee split by each tenant's memory
    footprint share *of that instance*; the run-wide storage and egress
    charges split by I/O footprint (``count × io_mb``) across the plan.
    ``record_groups`` maps each record to its index in
    :meth:`FusionPlan.instance_groups` (a run reports it); ``None`` means
    record ``i`` ran group ``i``, which holds only when no attempt retried.
    """
    table = run.table
    expense = billing.burst_expense(table, storage)
    groups = plan.instance_groups()
    if record_groups is None:
        record_groups = range(len(table))
    if len(record_groups) != len(table):
        raise ValueError(
            f"{len(record_groups)} record groups for {len(table)} records"
        )

    compute: dict[str, float] = {}
    requests: dict[str, float] = {}
    for instance_id, group_index, n_packed, instance_compute in zip(
        table.instance_id.tolist(),
        record_groups,
        table.n_packed.tolist(),
        billing.compute_usd_per_instance(table).tolist(),
    ):
        group = _group_for_instance(groups, group_index, instance_id, n_packed)
        weights = group.tenant_weights()
        scale = sum(weights.values())
        for tenant, weight in weights.items():
            share = weight / scale
            compute[tenant] = compute.get(tenant, 0.0) + instance_compute * share
            requests[tenant] = (
                requests.get(tenant, 0.0) + billing.profile.per_request_usd * share
            )

    io_weights: dict[str, float] = {}
    for group, replicas in plan.bundles:
        for tenant, app, count in group.members:
            io_weights[tenant] = (
                io_weights.get(tenant, 0.0) + app.io_mb * count * replicas
            )
    io_scale = sum(io_weights.values())

    functions = plan.tenant_functions()
    bills = []
    for tenant in sorted(functions):
        io_share = (io_weights.get(tenant, 0.0) / io_scale) if io_scale > 0 else (
            1.0 / len(functions)
        )
        bills.append(
            TenantBill(
                tenant=tenant,
                functions=functions[tenant],
                compute_usd=compute.get(tenant, 0.0),
                requests_usd=requests.get(tenant, 0.0),
                storage_usd=expense.storage_usd * io_share,
                egress_usd=expense.egress_usd * io_share,
            )
        )
    return expense, tuple(bills)


def rebill(report: FusionRunReport, profile: PlatformProfile) -> FusionRunReport:
    """The same run re-billed under another profile's billing schedule.

    Dynamics are billing-independent, so only the dollars change — the
    records, storage usage, and timings are shared with the input report.
    """
    billing = BillingModel(profile)
    expense, bills = attribute_expense(
        report.plan, report.run, report.storage, billing, report.record_groups
    )
    run = replace(report.run, expense=expense)
    return FusionRunReport(
        plan=report.plan, run=run, storage=report.storage,
        expense=expense, bills=bills, record_groups=report.record_groups,
    )


class FusionScheduler:
    """Executes fusion plans on one seeded simulated datacenter."""

    def __init__(
        self,
        profile: PlatformProfile,
        seed: int = 0,
    ) -> None:
        self.profile = profile
        self.seed = seed
        self.billing = BillingModel(profile)

    def execute(self, plan: FusionPlan, repetition: int = 0) -> FusionRunReport:
        result = MixedBurstSimulator(self.profile, self.seed).run(
            plan.to_mixed_plan(), repetition
        )
        expense, bills = attribute_expense(
            plan, result.run, result.storage, self.billing, result.record_groups
        )
        run = replace(result.run, expense=expense)
        return FusionRunReport(
            plan=plan, run=run, storage=result.storage,
            expense=expense, bills=bills, record_groups=result.record_groups,
        )
