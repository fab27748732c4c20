"""Network fabric of the datacenter.

Shipping built containers to their target servers is bounded by the
builder's uplink bandwidth (paper Sec. 1: "this step is again bounded by the
network bandwidth of the server forming the containers"). We model the
uplink as a processor-sharing queue: all in-flight transfers share the
bandwidth equally, so per-transfer time grows with the number of concurrent
transfers.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.engine import Simulator
from repro.sim.resources import ProcessorSharingResource


class NetworkFabric:
    """Uplink bandwidth shared by concurrent container shipments."""

    def __init__(self, sim: Simulator, uplink_gbps: float) -> None:
        if uplink_gbps <= 0:
            raise ValueError("uplink bandwidth must be positive")
        self.sim = sim
        self.uplink_gbps = uplink_gbps
        # Capacity in MB/s: 1 Gbps = 125 MB/s.
        self._uplink = ProcessorSharingResource(sim, uplink_gbps * 125.0, name="uplink")

    @property
    def in_flight(self) -> int:
        return self._uplink.active_jobs

    def ship(self, size_mb: float, callback: Callable[..., None], *args: Any) -> None:
        """Transfer ``size_mb`` and invoke ``callback(*args)`` on arrival."""
        if size_mb < 0:
            raise ValueError(f"negative transfer size {size_mb}")
        self._uplink.submit(size_mb, callback, *args)
