"""Container / microVM build-and-ship stages.

Stage 2 of an invocation: "the server containing the function image forms
containers (or microVMs …) by downloading and installing the runtime
environment and the dependencies … bounded by the network bandwidth and the
computing capacity of the server" — modelled as a FIFO multi-server queue
with ``build_slots`` parallel build slots. Builds start at invocation time
(the image server can prepare containers while placement is still being
decided — it does not need the target server).

Stage 3: "the formed containers are shipped to different servers of the
datacenter … bounded by the network bandwidth of the server forming the
containers" — modelled as processor sharing of the builder's uplink
(:class:`repro.cluster.network.NetworkFabric`). A container ships once it
is both built *and* placed.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.cluster.network import NetworkFabric
from repro.cluster.registry import FunctionImage
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.sim.resources import FifoResource


class ContainerPipeline:
    """Build containers on the image server; ship them over its uplink."""

    def __init__(
        self,
        sim: Simulator,
        network: NetworkFabric,
        rng: RandomStreams,
        build_slots: int,
        build_rate_mb_s: float,
        build_base_s: float,
        ship_overhead_mb: float,
        build_cache_factor: float = 1.0,
        build_noise_sigma: float = 0.03,
    ) -> None:
        if build_rate_mb_s <= 0:
            raise ValueError("build rate must be positive")
        if not 0.0 < build_cache_factor <= 1.0:
            raise ValueError("build_cache_factor must be in (0, 1]")
        self.sim = sim
        self.network = network
        self.rng = rng
        self.builder = FifoResource(sim, build_slots, name="builder")
        self.build_rate_mb_s = build_rate_mb_s
        self.build_base_s = build_base_s
        self.ship_overhead_mb = ship_overhead_mb
        self.build_cache_factor = build_cache_factor
        self.build_noise_sigma = build_noise_sigma

    def build_seconds(self, image: FunctionImage, build_factor: float = 1.0) -> float:
        """Noise-free build time for one container of ``image``."""
        install = image.install_mb * self.build_cache_factor * build_factor
        return self.build_base_s + install / self.build_rate_mb_s

    def ship_size_mb(self, image: FunctionImage, ship_factor: float = 1.0) -> float:
        """Bytes on the wire when shipping one built container."""
        return (
            image.total_mb * self.build_cache_factor * ship_factor
            + self.ship_overhead_mb
        )

    def build(
        self,
        image: FunctionImage,
        callback: Callable[..., None],
        *args: Any,
        build_factor: float = 1.0,
    ) -> None:
        """Queue one container build; ``callback(*args)`` fires when done."""
        work = self.build_seconds(image, build_factor) * self.rng.lognormal_factor(
            "build", self.build_noise_sigma
        )
        self.builder.submit(work, callback, *args)

    def ship(
        self,
        image: FunctionImage,
        callback: Callable[..., None],
        *args: Any,
        ship_factor: float = 1.0,
    ) -> None:
        """Ship one built container to its placement target; ``callback(*args)``
        fires when it arrives."""
        self.network.ship(self.ship_size_mb(image, ship_factor), callback, *args)
