"""Container / microVM build-and-ship stages.

Stage 2 of an invocation: "the server containing the function image forms
containers (or microVMs …) by downloading and installing the runtime
environment and the dependencies … bounded by the network bandwidth and the
computing capacity of the server" — modelled as a FIFO multi-server queue
with ``build_slots`` parallel build slots. Builds start at invocation time
(the image server can prepare containers while placement is still being
decided — it does not need the target server).

A FIFO queue's admissions fix its schedule: a build starts when it is
admitted or when the earliest busy slot frees, whichever is later. So the
pipeline keeps one number per slot in use, the instant it frees, as a
min-heap, and :meth:`ContainerPipeline.build` returns the instant the build
finishes; no build is simulated as an event. The caller decides what to do
at that instant (the burst kernel ships from its placement event when the
build is already done by then).

Stage 3: "the formed containers are shipped to different servers of the
datacenter … bounded by the network bandwidth of the server forming the
containers" — modelled as processor sharing of the builder's uplink
(:class:`repro.cluster.network.NetworkFabric`, the pipeline's
``network``), carrying :meth:`ContainerPipeline.ship_size_mb` per
container. A container ships once it is both built *and* placed.
"""

from __future__ import annotations

import heapq
from typing import Optional

from repro.cluster.network import NetworkFabric
from repro.cluster.registry import FunctionImage
from repro.sim.engine import SimulationError, Simulator
from repro.sim.randomness import RandomStreams, StreamHandle, lognormal_draw


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
        if build_slots < 1:
            raise SimulationError(f"builder: need at least one slot (got {build_slots})")
        self.sim = sim
        self.network = network
        self.rng = rng
        self.build_slots = build_slots
        #: The instant each slot in use frees, as a min-heap; a slot never
        #: used is free and has no entry.
        self._slot_free: list[float] = []
        self.build_rate_mb_s = build_rate_mb_s
        self.build_base_s = build_base_s
        self.ship_overhead_mb = ship_overhead_mb
        self.build_cache_factor = build_cache_factor
        self.build_noise_sigma = build_noise_sigma
        # The "build" stream, resolved at the first noisy build: by then the
        # kernel that owns ``rng`` has switched it to batched draws.
        self._noise: Optional[StreamHandle] = None

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

    def busy_at(self, now: float) -> bool:
        """Whether a build admitted before ``now`` is still running or queued."""
        return any(free > now for free in self._slot_free)

    def build(self, seconds: float) -> float:
        """Admit one container build of ``seconds`` noise-free seconds
        (:meth:`build_seconds`) now; return the instant it finishes.

        The build takes one lognormal draw on the ``"build"`` stream, then
        starts now if a slot is free and otherwise when the earliest busy
        slot frees: the float a FIFO queue's finish event would run at.
        """
        work = seconds
        sigma = self.build_noise_sigma
        if sigma > 0.0:
            noise = self._noise
            if noise is None:
                noise = self._noise = self.rng.stream("build")
            work = seconds * lognormal_draw(noise, sigma)
        if work < 0:
            raise SimulationError(f"builder: negative work {work}")
        now = self.sim.now
        slots = self._slot_free
        if len(slots) < self.build_slots:
            finish = now + work
            heapq.heappush(slots, finish)
        else:
            free = slots[0]
            finish = (now if free <= now else free) + work
            heapq.heapreplace(slots, finish)
        return finish
