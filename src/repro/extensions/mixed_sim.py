"""Simulated execution of mixed-application packing plans.

Validates :mod:`~repro.extensions.mixed`'s analytical planner against the
same discrete-event substrate the single-app pipeline uses: every group
becomes one instance (one placement request, one container build+ship —
the container carries the union runtime, sized by its largest member's
image), and the instance executes for the group's interference-model
makespan plus execution noise.

The lifecycle itself (placement ∥ build → ship → execute) is the shared
:class:`~repro.engine.burst.BurstDispatchKernel` on the datacenter
:func:`~repro.platform.base.burst_substrate` builds, set up by its
``_configure`` and billed by its ``collect``; this module only
overrides its heterogeneity hooks — per-group union images, the mixed
interference model, per-member store accounting — and leaves cluster
occupancy untouched (groups never return capacity mid-burst, matching the
planner's all-at-once execution model).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.cluster.registry import FunctionImage
from repro.engine.burst import BurstDispatchKernel, BurstSpec
from repro.extensions.mixed import MixedGroup, MixedInterferenceModel, MixedPlan
from repro.platform.base import burst_substrate
from repro.platform.instance import FunctionInstance
from repro.platform.metrics import InstanceRecord, RunResult
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
    billing-independent; see ``repro.fusion``).
    """

    run: RunResult
    plan: MixedPlan
    storage: Optional[StorageUsage] = None

    @property
    def service_time(self) -> float:
        return self.run.service_time()

    @property
    def scaling_time(self) -> float:
        return self.run.scaling_time

    @property
    def expense_usd(self) -> float:
        return self.run.expense.total_usd


class _MixedBurstKernel(BurstDispatchKernel):
    """Burst kernel specialized for heterogeneous (multi-app) groups.

    Each chain's payload is its :class:`MixedGroup`. Instances are not
    tracked or released: the mixed planner models one synchronous wave, so
    server occupancy stays claimed for the whole burst (releasing it would
    perturb later placements).
    """

    def __init__(self, *args, model: MixedInterferenceModel, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._model = model

    def begin_plan(self, spec: BurstSpec, plan: MixedPlan) -> None:
        """Enqueue every group of ``plan`` at the current simulation time.

        ``spec`` carries only burst-wide defaults (app name, noise-neutral
        factors); sizing comes from the plan's heterogeneous groups.
        """
        self._configure(spec, None)
        self._concurrency_level = len(plan.groups)
        for group in plan.groups:
            chain = self.new_chain(n_packed=group.size, payload=group)
            self._admit(chain, attempt=1, retry_delay=0.0)
        self._pending_functions = 0

    # --- heterogeneity hooks ------------------------------------------ #
    def _group_for(self, record: InstanceRecord) -> MixedGroup:
        return self._record_chain[record.instance_id].payload

    def _image_for(self, record: InstanceRecord) -> FunctionImage:
        return _group_image(self._group_for(record))

    def _modeled_exec_seconds(self, record: InstanceRecord) -> float:
        return self._model.instance_execution_seconds(self._group_for(record))

    def _make_instance(self, server, record: InstanceRecord) -> Optional[FunctionInstance]:
        return None  # occupancy stays claimed; see class docstring

    def _release_instance(self, instance: Optional[FunctionInstance]) -> None:
        pass

    def _record_completion(self, record: InstanceRecord) -> None:
        for app, count in self._group_for(record).members:
            self.store.record_instance(app, count)


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
        kernel = _MixedBurstKernel(
            sim,
            self.profile,
            scheduler,
            pipeline,
            store,
            rng,
            interference=None,  # the mixed model replaces the homogeneous one
            enforce_timeout=False,
            model=model,
        )
        # Burst-wide defaults only: noise-neutral factors, max-memory
        # provisioning (the paper's setup); group sizing is per chain.
        spec = BurstSpec(
            app=plan.groups[0].apps[0],
            concurrency=total_functions,
            packing_degree=1,
        )
        kernel.begin_plan(spec, plan)
        sim.run()
        run = replace(
            kernel.collect(),
            app_name="+".join(sorted(plan.functions_packed())),
            packing_degree=0,  # heterogeneous — degree varies per group
        )
        return MixedRunResult(run=run, plan=plan, storage=store.usage)
