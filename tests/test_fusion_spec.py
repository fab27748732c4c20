"""Fusion vocabulary: groups, constraints, and plan expansion."""

import pytest

from repro.fusion.spec import (
    FusionConstraints,
    FusionGroup,
    FusionPlan,
    TenantDemand,
)
from repro.interference.model import PairwiseInterference
from repro.workloads import SORT, STATELESS_COST, VIDEO
from repro.workloads.base import AppSpec


def group(*members):
    return FusionGroup(tuple(members))


JAVA_APP = AppSpec(
    name="jvm-batch", base_seconds=30.0, mem_mb=512, io_mb=10.0,
    io_shared_fraction=0.5, pressure_per_gb=0.1, runtime_tag="java",
)


# --------------------------------------------------------------------- #
# demands and groups
# --------------------------------------------------------------------- #
def test_demand_validation():
    with pytest.raises(ValueError, match="count"):
        TenantDemand("a", SORT, 0)
    with pytest.raises(ValueError, match="tenant"):
        TenantDemand("", SORT, 1)


def test_group_aggregates():
    g = group(("a", SORT, 3), ("b", VIDEO, 2))
    assert g.size == 5
    assert g.memory_mb == 3 * SORT.mem_mb + 2 * VIDEO.mem_mb
    assert g.tenants == ("a", "b")
    assert g.is_fused()
    assert not group(("a", SORT, 4)).is_fused()


def test_group_rejects_duplicates_and_bad_counts():
    with pytest.raises(ValueError, match="duplicate"):
        group(("a", SORT, 1), ("a", SORT, 2))
    with pytest.raises(ValueError, match="counts"):
        group(("a", SORT, 0))
    with pytest.raises(ValueError, match="at least one member"):
        FusionGroup(())


def test_residents_merge_same_app_across_tenants():
    g = group(("a", SORT, 2), ("b", SORT, 3), ("b", VIDEO, 1))
    assert g.residents() == [(SORT, 5), (VIDEO, 1)]


def test_signature_is_order_independent():
    g1 = group(("a", SORT, 2), ("b", VIDEO, 1))
    g2 = group(("b", VIDEO, 1), ("a", SORT, 2))
    assert g1.signature() == g2.signature()


def test_merged_sums_counts():
    g = group(("a", SORT, 2)).merged(group(("a", SORT, 3), ("b", VIDEO, 1)))
    assert g.signature() == (("a", "sort", 5), ("b", "video", 1))


def test_tenant_weights_are_memory_shares():
    g = group(("a", SORT, 2), ("b", VIDEO, 1))
    weights = g.tenant_weights()
    assert weights["a"] == pytest.approx(2 * SORT.mem_gb)
    assert weights["b"] == pytest.approx(VIDEO.mem_gb)


# --------------------------------------------------------------------- #
# constraints
# --------------------------------------------------------------------- #
def test_memory_ceiling():
    constraints = FusionConstraints(max_memory_mb=2 * SORT.mem_mb)
    assert constraints.admits(group(("a", SORT, 2)))
    violations = constraints.violations(group(("a", SORT, 3)))
    assert violations and "memory" in violations[0]


def test_strict_isolation_blocks_cross_tenant_groups():
    strict = FusionConstraints(max_memory_mb=10240, isolation="strict")
    shared = FusionConstraints(max_memory_mb=10240, isolation="shared")
    mixed_tenants = group(("a", SORT, 1), ("b", VIDEO, 1))
    assert not strict.admits(mixed_tenants)
    assert shared.admits(mixed_tenants)
    # Same tenant, different apps is fine even under strict isolation.
    assert strict.admits(group(("a", SORT, 1), ("a", VIDEO, 1)))


def test_runtime_tags_gate_cross_runtime_fusion():
    closed = FusionConstraints(max_memory_mb=10240)
    open_ = FusionConstraints(max_memory_mb=10240, allow_cross_runtime=True)
    polyglot = group(("a", SORT, 1), ("a", JAVA_APP, 1))
    violations = closed.violations(polyglot)
    assert violations and "runtimes" in violations[0]
    assert open_.admits(polyglot)


def test_makespan_cap_needs_a_model():
    constraints = FusionConstraints(
        max_memory_mb=10240, max_execution_seconds=SORT.base_seconds * 1.01,
        latency_safety=1.0,
    )
    heavy = group(("a", SORT, 4))
    assert constraints.admits(heavy)  # no model, no makespan check
    assert not constraints.admits(heavy, PairwiseInterference())


def test_constraints_validation():
    with pytest.raises(ValueError, match="isolation"):
        FusionConstraints(max_memory_mb=1024, isolation="none")
    with pytest.raises(ValueError, match="memory"):
        FusionConstraints(max_memory_mb=0)
    with pytest.raises(ValueError, match="safety"):
        FusionConstraints(max_memory_mb=1024, latency_safety=0.0)


@pytest.mark.parametrize("cap", [float("nan"), 0.0, -1.0])
def test_constraints_reject_a_bad_execution_cap(cap):
    # NaN would disable the makespan cap (``makespan > nan`` is False),
    # and a cap <= 0 would reject every group.
    with pytest.raises(ValueError, match="max_execution_seconds"):
        FusionConstraints(max_memory_mb=10240, max_execution_seconds=cap)


def test_constraints_allow_no_execution_cap():
    # FusedFleet passes a profile's cap, which may be unbounded.
    uncapped = FusionConstraints(max_memory_mb=10240, max_execution_seconds=float("inf"))
    assert uncapped.admits(group(("a", SORT, 4)), PairwiseInterference())


# --------------------------------------------------------------------- #
# plans
# --------------------------------------------------------------------- #
def test_plan_counts_and_expansion_order():
    g1 = group(("a", SORT, 2))
    g2 = group(("a", SORT, 1), ("b", STATELESS_COST, 3))
    plan = FusionPlan(bundles=((g1, 3), (g2, 2)))
    assert plan.n_instances == 5
    assert plan.n_functions == 3 * 2 + 2 * 4
    assert plan.fused_instances == 2
    assert plan.instance_groups() == [g1, g1, g1, g2, g2]
    assert plan.tenant_functions() == {"a": 8, "b": 6}


def test_plan_to_mixed_plan_flags_segregation():
    pure = FusionPlan(bundles=((group(("a", SORT, 2)), 2),))
    fused = FusionPlan(bundles=((group(("a", SORT, 1), ("b", VIDEO, 1)), 1),))
    assert pure.to_mixed_plan().segregated
    assert not fused.to_mixed_plan().segregated
    assert pure.to_mixed_plan().n_instances == 2


def test_plan_constraint_violations_cover_all_bundles():
    constraints = FusionConstraints(max_memory_mb=SORT.mem_mb, isolation="strict")
    plan = FusionPlan(
        bundles=(
            (group(("a", SORT, 2)), 1),                     # over memory
            (group(("a", SORT, 1), ("b", VIDEO, 1)), 1),    # cross-tenant
        )
    )
    violations = plan.constraint_violations(constraints)
    assert len(violations) >= 2


def test_plan_validation():
    with pytest.raises(ValueError, match="at least one bundle"):
        FusionPlan(bundles=())
    with pytest.raises(ValueError, match="replica"):
        FusionPlan(bundles=((group(("a", SORT, 1)), 0),))
