"""Simulated execution of mixed-application packing plans.

Validates :mod:`~repro.extensions.mixed`'s analytical planner against the
same discrete-event substrate the single-app pipeline uses: every group
becomes one instance (one placement request, one container build+ship —
the container carries the union runtime, sized by its largest member's
image), and the instance executes for the group's interference-model
makespan plus execution noise.

The lifecycle itself (placement ∥ build → ship → execute) is the shared
:class:`~repro.engine.burst.BurstDispatchKernel` on the datacenter
:func:`~repro.platform.base.burst_substrate` builds. This module only
describes the chains: one :class:`~repro.engine.burst.ChainWork` per
group — its union image, its mixed-model makespan, its members' I/O —
built once per distinct group and handed to the kernel's ``begin``. A
group's instance frees its slot when it finishes, as every burst's does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cluster.registry import FunctionImage
from repro.engine.burst import BurstDispatchKernel, BurstSpec, ChainWork
from repro.extensions.mixed import MixedGroup, MixedInterferenceModel, MixedPlan
from repro.platform.base import burst_substrate
from repro.platform.metrics import RunResult
from repro.platform.providers import PlatformProfile
from repro.platform.storage import ObjectStore, StorageUsage
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams


def _group_image(group: MixedGroup) -> FunctionImage:
    """The union container: sized by the largest member image, plus the
    extra apps' code (runtimes/dependencies overlap heavily in practice)."""
    largest = max(group.apps, key=lambda a: a.code_mb + a.runtime_mb + a.dependencies_mb)
    extra_code = sum(a.code_mb for a in group.apps if a is not largest)
    return FunctionImage(
        name="+".join(sorted({a.name for a in group.apps})),
        code_mb=largest.code_mb + extra_code,
        runtime_mb=largest.runtime_mb,
        dependencies_mb=largest.dependencies_mb,
    )


@dataclass
class MixedRunResult:
    """A mixed burst's measurements (thin wrapper around RunResult).

    ``storage`` keeps the run's object-store usage so the same records can
    be re-billed post hoc under a different billing fidelity (dynamics are
    billing-independent; see ``repro.fusion``). ``record_groups`` gives,
    per record in record order, the index into ``plan.groups`` of the
    group it ran; a retried group has more than one record.
    """

    run: RunResult
    plan: MixedPlan
    storage: StorageUsage
    record_groups: tuple[int, ...]

    @property
    def service_time(self) -> float:
        return self.run.service_time()

    @property
    def scaling_time(self) -> float:
        return self.run.scaling_time

    @property
    def expense_usd(self) -> float:
        return self.run.expense.total_usd


def _chain_works(plan: MixedPlan, model: MixedInterferenceModel) -> list[ChainWork]:
    """One chain record per group of ``plan``, in plan order; equal groups
    share one record, so each distinct group's image and makespan are
    computed once."""
    works: dict[MixedGroup, ChainWork] = {}
    chains = []
    for group in plan.groups:
        work = works.get(group)
        if work is None:
            work = works[group] = ChainWork(
                _group_image(group),
                model.instance_execution_seconds(group),
                group.members,
            )
        chains.append(work)
    return chains


class MixedBurstSimulator:
    """Executes a :class:`MixedPlan` on the discrete-event substrate."""

    def __init__(
        self,
        profile: PlatformProfile,
        seed: int = 0,
    ) -> None:
        self.profile = profile
        self.seed = seed

    def run(self, plan: MixedPlan, repetition: int = 0) -> MixedRunResult:
        if not plan.groups:
            raise ValueError("cannot execute an empty plan")
        rng = RandomStreams(self.seed).spawn(f"mixed/r{repetition}")
        sim = Simulator()
        scheduler, pipeline = burst_substrate(self.profile, sim, rng)
        model = MixedInterferenceModel(self.profile.isolation_penalty)
        store = ObjectStore()
        total_functions = sum(g.size for g in plan.groups)
        kernel = BurstDispatchKernel(
            sim,
            self.profile,
            scheduler,
            pipeline,
            store,
            rng,
            interference=None,  # each chain carries its mixed-model makespan
            enforce_timeout=False,
        )
        # Burst-wide defaults only: noise-neutral factors, max-memory
        # provisioning (the paper's setup); group sizing is per chain.
        spec = BurstSpec(
            app=plan.groups[0].apps[0],
            concurrency=total_functions,
            packing_degree=1,
        )
        kernel.begin(spec, _chain_works(plan, model))
        sim.run()
        run = replace(
            kernel.collect(),
            app_name="+".join(sorted(plan.functions_packed())),
            packing_degree=0,  # heterogeneous — degree varies per group
        )
        return MixedRunResult(
            run=run, plan=plan, storage=store.usage,
            record_groups=tuple(kernel.record_chain_ids()),  # one chain per group
        )
