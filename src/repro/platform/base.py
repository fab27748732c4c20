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

from typing import Optional, Union

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
        if app.name not in self.registry:
            self.registry.register(
                FunctionImage(
                    name=app.name,
                    code_mb=app.code_mb,
                    runtime_mb=app.runtime_mb,
                    dependencies_mb=app.dependencies_mb,
                )
            )
        return self.registry.get(app.name)

    def interference_model(self) -> InterferenceModel:
        return InterferenceModel(
            cores=self.profile.cores_per_instance,
            isolation_penalty=self.profile.isolation_penalty,
            concurrency_leak=self.profile.concurrency_leak,
        )

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
        pool = ServerPool(
            self.profile.fleet_servers,
            self.profile.server_cores,
            self.profile.server_memory_mb,
        )
        network = NetworkFabric(sim, self.profile.uplink_gbps)
        if self.profile.scheduler_shards > 1:
            from repro.platform.scheduler_decentralized import DecentralizedScheduler

            scheduler = DecentralizedScheduler(
                sim,
                pool,
                self.profile.sched_base_s,
                self.profile.sched_search_s,
                shards=self.profile.scheduler_shards,
                sync_cost_s=self.profile.sched_sync_s,
            )
        else:
            scheduler = PlacementScheduler(
                sim,
                pool,
                self.profile.sched_base_s,
                self.profile.sched_search_s,
                metrics=self.telemetry.registry if self.telemetry else None,
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
        instrumentation = None
        if self.telemetry is not None:
            instrumentation = self.telemetry.burst_instrumentation(
                sim,
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
