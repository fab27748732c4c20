"""Placement scheduler.

Upon invocation, "a scheduling algorithm searches among the running servers
of the datacenter to execute the function. … The scheduling time increases
with the invocation concurrency, as the scheduling algorithm needs to search
and find more places" (paper Sec. 1).

We model a single placement loop that serves requests in order; request
``k`` of a burst costs ``sched_base + sched_search * (placements already
made)``, because each new placement leaves one more busy server the search
must consider. The cumulative delay of the last request is therefore
quadratic in the burst size — the dominant term of the paper's Eq. 2.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from repro.cluster.server import ServerPool
from repro.sim.engine import Simulator


class PlacementScheduler:
    """Serial placement loop with occupancy-proportional search cost."""

    def __init__(
        self,
        sim: Simulator,
        pool: ServerPool,
        base_cost_s: float,
        search_cost_s: float,
    ) -> None:
        self.sim = sim
        self.pool = pool
        self.base_cost_s = base_cost_s
        self.search_cost_s = search_cost_s
        self._queue: deque[tuple[int, int, Callable[..., None], tuple]] = deque()
        self._busy = False
        self.placements_made = 0

    def request_placement(
        self,
        cores: int,
        memory_mb: int,
        callback: Callable[..., None],
        *args: Any,
    ) -> None:
        """Queue a placement; ``callback(server, *args)`` fires when placed."""
        self._queue.append((cores, memory_mb, callback, args))
        if not self._busy:
            self._serve_next()

    def _serve_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        cores, memory_mb, callback, args = self._queue.popleft()
        search_time = self.base_cost_s + self.search_cost_s * self.placements_made
        self.sim.schedule(search_time, self._place, cores, memory_mb, callback, args)

    def _place(
        self,
        cores: int,
        memory_mb: int,
        callback: Callable[..., None],
        args: tuple,
    ) -> None:
        server = self.pool.place(cores, memory_mb)
        self.placements_made += 1
        callback(server, *args)
        self._serve_next()
