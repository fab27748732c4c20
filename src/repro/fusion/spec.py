"""Fusion vocabulary: tenant demands, constraints, groups, and plans.

Platform-side fusion (Provuse-style) packs *different* functions — and
different tenants — into shared instances. The planning unit here is the
**bundle**: one group *composition* (who co-resides, at what counts) plus a
replica count, so a burst of 3000 identical instances is one bundle, not
3000 group objects. A :class:`FusionPlan` is a list of bundles; expanding
it yields one :class:`~repro.extensions.mixed.MixedGroup` per instance, so
fused plans execute on the exact same engine path as mixed-app plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.extensions.mixed import MixedGroup, MixedPlan
from repro.interference.model import PairwiseInterference
from repro.workloads.base import AppSpec

#: Tenant-isolation policies: ``strict`` confines every instance to one
#: tenant (the paper's single-user security posture); ``shared`` lets the
#: platform co-locate tenants (Provuse's position, trusting sandboxing).
ISOLATION_POLICIES = ("strict", "shared")


@dataclass(frozen=True)
class TenantDemand:
    """One tenant's request: run ``count`` clones of ``app``."""

    tenant: str
    app: AppSpec
    count: int

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ValueError("tenant name must be non-empty")
        if self.count < 1:
            raise ValueError(f"{self.tenant}/{self.app.name}: count must be >= 1")


@dataclass(frozen=True)
class FusionConstraints:
    """Compatibility and isolation constraints on one fused instance."""

    max_memory_mb: int
    max_execution_seconds: float = 900.0
    isolation: str = "shared"
    allow_cross_runtime: bool = False
    latency_safety: float = 0.98

    def __post_init__(self) -> None:
        if self.max_memory_mb < 1:
            raise ValueError("memory ceiling must be positive")
        # NaN fails this too; inf stays legal (a profile with no cap).
        if not self.max_execution_seconds > 0.0:
            raise ValueError(
                "max_execution_seconds must be positive "
                f"(got {self.max_execution_seconds})"
            )
        if self.isolation not in ISOLATION_POLICIES:
            raise ValueError(
                f"isolation must be one of {ISOLATION_POLICIES} "
                f"(got {self.isolation!r})"
            )
        if not 0.0 < self.latency_safety <= 1.0:
            raise ValueError("latency safety must be in (0, 1]")

    def violations(
        self, group: "FusionGroup", model: Optional[PairwiseInterference] = None
    ) -> list[str]:
        """Why ``group`` is not a legal fused instance (empty = legal)."""
        reasons: list[str] = []
        if group.memory_mb > self.max_memory_mb:
            reasons.append(
                f"memory {group.memory_mb} MB exceeds the "
                f"{self.max_memory_mb} MB instance ceiling"
            )
        if self.isolation == "strict" and len(group.tenants) > 1:
            reasons.append(
                "cross-tenant group "
                f"{'+'.join(group.tenants)} under strict isolation"
            )
        tags = sorted({app.runtime_tag for app, _ in group.residents()})
        if not self.allow_cross_runtime and len(tags) > 1:
            reasons.append(f"incompatible runtimes {'+'.join(tags)}")
        if model is not None:
            cap = self.max_execution_seconds * self.latency_safety
            makespan = model.makespan_seconds(group.residents())
            if makespan > cap:
                reasons.append(
                    f"predicted makespan {makespan:.1f}s exceeds the "
                    f"{cap:.1f}s execution cap"
                )
        return reasons

    def admits(
        self, group: "FusionGroup", model: Optional[PairwiseInterference] = None
    ) -> bool:
        return not self.violations(group, model)


@dataclass(frozen=True)
class FusionGroup:
    """One fused instance composition: ``(tenant, app, count)`` members."""

    members: tuple[tuple[str, AppSpec, int], ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a fusion group needs at least one member")
        if any(count < 1 for _, _, count in self.members):
            raise ValueError("member counts must be >= 1")
        seen = {(tenant, app.name) for tenant, app, _ in self.members}
        if len(seen) != len(self.members):
            raise ValueError("duplicate (tenant, app) member; merge counts instead")

    @property
    def size(self) -> int:
        return sum(count for _, _, count in self.members)

    @property
    def memory_mb(self) -> int:
        return sum(app.mem_mb * count for _, app, count in self.members)

    @property
    def tenants(self) -> tuple[str, ...]:
        return tuple(sorted({tenant for tenant, _, _ in self.members}))

    def is_fused(self) -> bool:
        """More than one distinct (tenant, app) shares the instance."""
        return len(self.members) > 1

    def residents(self) -> list[tuple[AppSpec, int]]:
        """Member multiset merged by app across tenants (interference does
        not care who owns a co-runner, only what it runs)."""
        merged: dict[str, tuple[AppSpec, int]] = {}
        for _, app, count in self.members:
            prev = merged.get(app.name)
            merged[app.name] = (app, count + (prev[1] if prev else 0))
        return [merged[name] for name in sorted(merged)]

    def signature(self) -> tuple[tuple[str, str, int], ...]:
        """Canonical identity, independent of member order."""
        return tuple(
            sorted((tenant, app.name, count) for tenant, app, count in self.members)
        )

    def merged(self, other: "FusionGroup") -> "FusionGroup":
        """The composition obtained by fusing this group with ``other``."""
        counts: dict[tuple[str, str], int] = {}
        specs: dict[tuple[str, str], AppSpec] = {}
        for group in (self, other):
            for tenant, app, count in group.members:
                key = (tenant, app.name)
                counts[key] = counts.get(key, 0) + count
                specs[key] = app
        return FusionGroup(
            tuple(
                (tenant, specs[(tenant, name)], counts[(tenant, name)])
                for tenant, name in sorted(counts)
            )
        )

    def tenant_weights(self) -> dict[str, float]:
        """Per-tenant share of the instance's memory footprint (GB·count),
        the attribution key for proportional billing."""
        weights: dict[str, float] = {}
        for tenant, app, count in self.members:
            weights[tenant] = weights.get(tenant, 0.0) + app.mem_gb * count
        return weights

    def to_mixed_group(self) -> MixedGroup:
        return MixedGroup(tuple(self.residents()))


@dataclass(frozen=True)
class FusionPlan:
    """A fused deployment: (composition, replicas) bundles."""

    bundles: tuple[tuple[FusionGroup, int], ...]
    mode: str = "fusion"

    def __post_init__(self) -> None:
        if not self.bundles:
            raise ValueError("a fusion plan needs at least one bundle")
        if any(replicas < 1 for _, replicas in self.bundles):
            raise ValueError("bundle replica counts must be >= 1")

    @property
    def n_instances(self) -> int:
        return sum(replicas for _, replicas in self.bundles)

    @property
    def n_functions(self) -> int:
        return sum(group.size * replicas for group, replicas in self.bundles)

    @property
    def fused_instances(self) -> int:
        return sum(
            replicas for group, replicas in self.bundles if group.is_fused()
        )

    def instance_groups(self) -> list[FusionGroup]:
        """One group per instance, in deterministic bundle order."""
        out: list[FusionGroup] = []
        for group, replicas in self.bundles:
            out.extend([group] * replicas)
        return out

    def tenant_functions(self) -> dict[str, int]:
        """Functions per tenant across the whole plan."""
        totals: dict[str, int] = {}
        for group, replicas in self.bundles:
            for tenant, _, count in group.members:
                totals[tenant] = totals.get(tenant, 0) + count * replicas
        return totals

    def constraint_violations(
        self,
        constraints: FusionConstraints,
        model: Optional[PairwiseInterference] = None,
    ) -> list[str]:
        """Every constraint violation across all bundle compositions."""
        out: list[str] = []
        for group, _ in self.bundles:
            out.extend(
                f"{'+'.join(f'{t}/{a.name}x{c}' for t, a, c in group.members)}: "
                f"{reason}"
                for reason in constraints.violations(group, model)
            )
        return out

    def to_mixed_plan(self) -> MixedPlan:
        """The per-instance expansion the engine executes. Order matches
        :meth:`instance_groups`, so record ``instance_id`` i maps back to
        the i-th fusion group for tenant attribution."""
        return MixedPlan(
            groups=[g.to_mixed_group() for g in self.instance_groups()],
            segregated=all(not g.is_fused() for g in self.instance_groups()),
        )
