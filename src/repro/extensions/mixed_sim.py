"""Simulated execution of mixed-application packing plans.

Validates :mod:`~repro.extensions.mixed`'s analytical planner against the
same discrete-event substrate the single-app pipeline uses: every group
becomes one instance (one placement request, one container build+ship —
the container carries the union runtime, sized by its largest member's
image), and the instance executes for the group's interference-model
makespan plus execution noise.

The lifecycle itself (placement ∥ build → ship → execute) is the shared
:class:`~repro.engine.burst.BurstDispatchKernel`; this module only
overrides its heterogeneity hooks — per-group union images, the mixed
interference model, per-member store accounting — and leaves cluster
occupancy untouched (groups never return capacity mid-burst, matching the
planner's all-at-once execution model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cluster.network import NetworkFabric
from repro.cluster.registry import FunctionImage
from repro.cluster.server import ServerPool
from repro.engine.burst import BurstDispatchKernel, BurstSpec
from repro.extensions.mixed import MixedGroup, MixedInterferenceModel, MixedPlan
from repro.faults.retry import ImmediateRetry
from repro.platform.billing import BillingModel
from repro.platform.container import ContainerPipeline
from repro.platform.instance import FunctionInstance
from repro.platform.metrics import InstanceRecord, RecordTable, RunResult
from repro.platform.providers import PlatformProfile
from repro.platform.scheduler import PlacementScheduler
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
        self._spec = spec
        self._image = None
        self._concurrency_level = len(plan.groups)
        self._invoked_at = self.sim.now
        # Inherited failure handling (dormant on fault-free profiles).
        self.retry_policy = ImmediateRetry(self.profile.max_retries)
        self._retry_policy = self.fresh_retry()
        self._provisioned = self.profile.max_memory_mb
        self._instances = {}
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
        pool = ServerPool(
            self.profile.fleet_servers,
            self.profile.server_cores,
            self.profile.server_memory_mb,
        )
        network = NetworkFabric(sim, self.profile.uplink_gbps)
        scheduler = PlacementScheduler(
            sim, pool, self.profile.sched_base_s, self.profile.sched_search_s
        )
        pipeline = ContainerPipeline(
            sim,
            network,
            rng,
            build_slots=self.profile.build_slots,
            build_rate_mb_s=self.profile.build_rate_mb_s,
            build_base_s=self.profile.build_base_s,
            ship_overhead_mb=self.profile.ship_overhead_mb,
            build_cache_factor=self.profile.build_cache_factor,
        )
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

        table = RecordTable.from_records(kernel._records)
        run = RunResult(
            platform_name=self.profile.name,
            app_name="+".join(sorted(plan.functions_packed())),
            concurrency=total_functions,
            packing_degree=0,  # heterogeneous — degree varies per group
            records=kernel._records,
            expense=BillingModel(self.profile).burst_expense(table, store.usage),
            table=table,
        )
        return MixedRunResult(run=run, plan=plan, storage=store.usage)
