"""The serverless platform facade.

:class:`ServerlessPlatform` is the public entry point of the substrate:
construct it from a :class:`~repro.platform.providers.PlatformProfile` and a
seed, then :meth:`run_burst` specs against it. Every burst runs on a fresh
simulation (serverless bursts are independent); the seed plus a per-run
counter keeps results reproducible yet non-identical across repetitions.

:meth:`measure_scaling_time` spawns no-op probe functions — ProPack's
application-independent scaling-model estimation (paper Sec. 2.2: evaluating
a scaling sample "does not require the execution of any actual function
code").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from repro.cluster.network import NetworkFabric
from repro.cluster.registry import FunctionImage, ImageRegistry
from repro.cluster.server import ServerPool
from repro.interference.model import InterferenceModel
from repro.platform.container import ContainerPipeline
from repro.platform.invoker import BurstInvoker, BurstSpec
from repro.platform.metrics import RunResult
from repro.platform.providers import PlatformProfile
from repro.platform.scheduler import PlacementScheduler
from repro.platform.storage import ObjectStore
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.telemetry.config import TelemetryConfig, TelemetrySession, resolve_session
from repro.workloads.base import AppSpec

if TYPE_CHECKING:  # annotation-only: the sharded scheduler is imported on use
    from repro.platform.scheduler_decentralized import DecentralizedScheduler

#: No-op probe used for application-independent scaling measurements.
PROBE_APP = AppSpec(
    name="noop-probe",
    base_seconds=0.5,
    mem_mb=128,
    io_mb=0.0,
    io_shared_fraction=1.0,
    pressure_per_gb=0.0,
    description="empty function used to probe platform scaling behaviour",
)


def interference_model(profile: PlatformProfile) -> InterferenceModel:
    """The homogeneous interference model of ``profile``'s instances."""
    return InterferenceModel(
        cores=profile.cores_per_instance,
        isolation_penalty=profile.isolation_penalty,
        concurrency_leak=profile.concurrency_leak,
    )


def registered_image(registry: ImageRegistry, app: AppSpec) -> FunctionImage:
    """The image registered for ``app``, registering it on first use."""
    if app.name not in registry:
        registry.register(
            FunctionImage(
                name=app.name,
                code_mb=app.code_mb,
                runtime_mb=app.runtime_mb,
                dependencies_mb=app.dependencies_mb,
            )
        )
    return registry.get(app.name)


def burst_substrate(
    profile: PlatformProfile,
    sim: Simulator,
    rng: RandomStreams,
) -> tuple[Union[PlacementScheduler, "DecentralizedScheduler"], ContainerPipeline]:
    """The datacenter every burst runs on: placement ∥ build → ship.

    Builds ``profile``'s server pool, its placement scheduler (serial, or
    sharded when ``scheduler_shards > 1``), the shipping uplink and the
    container pipeline on ``sim``. The scheduler owns the pool and the
    pipeline the uplink (``pipeline.network``). ``rng`` draws the build
    noise.
    """
    pool = ServerPool(
        profile.fleet_servers, profile.server_cores, profile.server_memory_mb
    )
    network = NetworkFabric(sim, profile.uplink_gbps)
    if profile.scheduler_shards > 1:
        from repro.platform.scheduler_decentralized import DecentralizedScheduler

        scheduler = DecentralizedScheduler(
            sim,
            pool,
            profile.sched_base_s,
            profile.sched_search_s,
            shards=profile.scheduler_shards,
            sync_cost_s=profile.sched_sync_s,
        )
    else:
        scheduler = PlacementScheduler(
            sim, pool, profile.sched_base_s, profile.sched_search_s
        )
    pipeline = ContainerPipeline(
        sim,
        network,
        rng,
        build_slots=profile.build_slots,
        build_rate_mb_s=profile.build_rate_mb_s,
        build_base_s=profile.build_base_s,
        ship_overhead_mb=profile.ship_overhead_mb,
        build_cache_factor=profile.build_cache_factor,
    )
    return scheduler, pipeline


class ServerlessPlatform:
    """One serverless provider, ready to execute bursts."""

    def __init__(
        self,
        profile: PlatformProfile,
        seed: int = 0,
        enforce_timeout: bool = True,
        telemetry: Union[TelemetryConfig, TelemetrySession, None] = None,
    ) -> None:
        self.profile = profile
        self.seed = int(seed)
        self.enforce_timeout = enforce_timeout
        self.registry = ImageRegistry()
        #: One telemetry session spans every burst this platform runs:
        #: each burst becomes a process band in the exported Chrome trace.
        self.telemetry = resolve_session(telemetry)
        self._run_counter = 0

    # ------------------------------------------------------------------ #
    def image_for(self, app: AppSpec) -> FunctionImage:
        """The registered image for ``app`` (auto-registering on first use)."""
        return registered_image(self.registry, app)

    def interference_model(self) -> InterferenceModel:
        return interference_model(self.profile)

    # ------------------------------------------------------------------ #
    def run_burst(self, spec: BurstSpec, repetition: Optional[int] = None) -> RunResult:
        """Execute one burst on a fresh simulation and return its result."""
        if repetition is None:
            repetition = self._run_counter
            self._run_counter += 1
        rng = RandomStreams(self.seed).spawn(
            f"{spec.app.name}/C{spec.concurrency}/P{spec.packing_degree}/r{repetition}"
        )
        sim = Simulator()
        scheduler, pipeline = burst_substrate(self.profile, sim, rng)
        instrumentation = None
        if self.telemetry is not None:
            instrumentation = self.telemetry.burst_instrumentation(
                f"{spec.app.name} C={spec.concurrency} "
                f"P={spec.packing_degree} r{repetition}",
            )
        invoker = BurstInvoker(
            sim,
            self.profile,
            scheduler,
            pipeline,
            ObjectStore(),
            rng,
            self.interference_model(),
            enforce_timeout=self.enforce_timeout,
            telemetry=instrumentation,
        )
        return invoker.run(spec, self.image_for(spec.app))

    # ------------------------------------------------------------------ #
    def measure_scaling_time(
        self, concurrency: int, repetition: Optional[int] = None
    ) -> float:
        """Scaling time of a burst of ``concurrency`` no-op probe functions.

        Probes are small-memory instances, so this is cheap on the real
        platform too — it never executes application code (paper Sec. 2.2).
        """
        spec = BurstSpec(app=PROBE_APP, concurrency=concurrency, provisioned_mb=256)
        return self.run_burst(spec, repetition=repetition).scaling_time
