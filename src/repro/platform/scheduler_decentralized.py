"""Decentralized placement scheduling (Wukong / FaaSNet-style).

The paper's related-work discussion (Sec. 5): systems like Wukong [10] and
FaaSNet [80] decentralize scheduling/provisioning to improve scalability,
but "decentralization is not free, may continue to be prone to scalability
bottlenecks at high concurrency" and "excessive decentralization may induce
high synchronization and communication overhead".

The model: ``shards`` independent placement loops, requests assigned
round-robin, dividing the quadratic search term by the shard count. Every
placement must first clear a *serialized synchronization bus* — the
consistency round that keeps the shards' fleet views coherent — whose
per-placement cost grows with the shard count (``sync_cost·log2(1+k)``).
Few shards: the bus is cheap and the quadratic win dominates. Many shards:
the bus becomes the new serial bottleneck — the "excessive
decentralization" regime. Packing composes with either topology (the
paper's "complementary, not competitive" claim), and is the only lever
that also cuts expense.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.cluster.server import ServerPool
from repro.platform.scheduler import PlacementScheduler
from repro.sim.engine import Simulator
from repro.sim.resources import FifoResource


class DecentralizedScheduler:
    """Sharded placement behind a serialized consistency bus.

    Exposes the same ``request_placement`` interface as the centralized
    :class:`~repro.platform.scheduler.PlacementScheduler`, so the invoker
    is oblivious to the control-plane topology.
    """

    def __init__(
        self,
        sim: Simulator,
        pool: ServerPool,
        base_cost_s: float,
        search_cost_s: float,
        shards: int,
        sync_cost_s: float,
    ) -> None:
        if shards < 1:
            raise ValueError("need at least one scheduler shard")
        if sync_cost_s < 0:
            raise ValueError("sync cost must be non-negative")
        self.sim = sim
        self.shards = shards
        self.sync_cost_s = sync_cost_s
        self.bus_cost_s = sync_cost_s * math.log2(1 + shards) if shards > 1 else 0.0
        self._bus = FifoResource(sim, servers=1, name="sync-bus")
        self._shards = [
            PlacementScheduler(sim, pool, base_cost_s, search_cost_s)
            for _ in range(shards)
        ]
        self._cursor = 0

    def request_placement(
        self,
        cores: int,
        memory_mb: int,
        callback: Callable[..., None],
        *args: Any,
    ) -> None:
        shard = self._shards[self._cursor]
        self._cursor = (self._cursor + 1) % self.shards
        if self.bus_cost_s > 0.0:
            self._bus.submit(
                self.bus_cost_s,
                shard.request_placement,
                cores,
                memory_mb,
                callback,
                *args,
            )
        else:
            shard.request_placement(cores, memory_mb, callback, *args)
