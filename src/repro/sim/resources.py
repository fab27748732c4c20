"""Queueing resources used by the platform model.

Two disciplines cover the contention points the simulator runs as events:

* :class:`FifoResource` — ``k`` identical servers, FIFO queue. Models the
  sharded scheduler's consistency bus. (The image builder is a k-slot FIFO
  too, but :class:`~repro.platform.container.ContainerPipeline` computes
  each build's finish when the build is admitted, so it needs no events.)
* :class:`ProcessorSharingResource` — egalitarian processor sharing of a
  fixed capacity. Models the shipping uplink, where all in-flight container
  transfers share the builder's network bandwidth.

Each keeps only the state its next event needs: busy servers and the
queue, or the active jobs and the virtual clock. The fluid burst replay
(:mod:`repro.engine.fluid`) reproduces the uplink's arithmetic without
touching it.

The PS queue uses the classic *virtual time* formulation: with capacity
``R`` shared equally among ``n(t)`` jobs, define ``V(t)`` with
``dV/dt = R / n(t)``. A job arriving at ``t0`` with service demand ``w``
completes when ``V(t) == V(t0) + w``. All jobs advance along the same
``V`` axis, so completions pop from a heap keyed by ``V(t0) + w`` —
O(log n) per event instead of the naive O(n) rescan. A job is the tuple
``(finish_v, seq, callback, args)``: ``seq`` is unique, so heap
comparisons stop at two numbers and run in C.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.sim.engine import Event, SimulationError, Simulator

Completion = Callable[..., None]


@dataclass(slots=True)
class _FifoJob:
    work: float
    callback: Completion
    args: tuple
    enqueued_at: float


class FifoResource:
    """``servers`` identical servers, FIFO admission, deterministic order.

    ``work`` is expressed in seconds of service on one server. The completion
    callback receives the caller's ``args``; :attr:`busy_servers` and
    :attr:`queued_jobs` expose the queue's state.
    """

    def __init__(self, sim: Simulator, servers: int, name: str = "fifo") -> None:
        if servers < 1:
            raise SimulationError(f"{name}: need at least one server (got {servers})")
        self.sim = sim
        self.servers = servers
        self.name = name
        self._queue: deque[_FifoJob] = deque()
        self._busy = 0

    @property
    def busy_servers(self) -> int:
        return self._busy

    @property
    def queued_jobs(self) -> int:
        return len(self._queue)

    def submit(self, work: float, callback: Completion, *args: Any) -> None:
        """Enqueue a job needing ``work`` seconds of one server's time."""
        if work < 0:
            raise SimulationError(f"{self.name}: negative work {work}")
        job = _FifoJob(work, callback, args, self.sim.now)
        if self._busy < self.servers:
            self._start(job)
        else:
            self._queue.append(job)

    def _start(self, job: _FifoJob) -> None:
        self._busy += 1
        self.sim.schedule(job.work, self._finish, job)

    def _finish(self, job: _FifoJob) -> None:
        self._busy -= 1
        if self._queue:
            self._start(self._queue.popleft())
        job.callback(*job.args)


class ProcessorSharingResource:
    """Egalitarian processor sharing of ``capacity`` units/second.

    ``submit(work, cb)`` admits a job demanding ``work`` capacity-seconds;
    all active jobs progress at ``capacity / n`` until one completes or a new
    job arrives. Implemented with virtual time (see module docstring).
    """

    def __init__(self, sim: Simulator, capacity: float, name: str = "ps") -> None:
        if capacity <= 0:
            raise SimulationError(f"{name}: capacity must be positive (got {capacity})")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        # Heap of (finish virtual time, seq, callback, args).
        self._jobs: list[tuple[float, int, Completion, tuple]] = []
        self._seq = itertools.count()
        self._vtime = 0.0
        self._vtime_updated_at = 0.0
        self._active = 0
        self._pending_event: Optional[Event] = None

    @property
    def active_jobs(self) -> int:
        return self._active

    def _advance_vtime(self) -> None:
        """Bring virtual time forward to the simulator's current clock."""
        now = self.sim.now
        if self._active > 0:
            self._vtime += (now - self._vtime_updated_at) * (self.capacity / self._active)
        self._vtime_updated_at = now

    def _reschedule(self) -> None:
        """(Re)schedule the next-completion event after any state change."""
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None
        if not self._jobs:
            return
        remaining_v = self._jobs[0][0] - self._vtime
        # Numerical guard: remaining_v can dip epsilon-negative from float error.
        if remaining_v < 0.0:
            remaining_v = 0.0
        delay = remaining_v * self._active / self.capacity
        self._pending_event = self.sim.schedule(delay, self._complete_head)

    def submit(self, work: float, callback: Completion, *args: Any) -> None:
        """Admit a job demanding ``work`` capacity-seconds."""
        if work < 0:
            raise SimulationError(f"{self.name}: negative work {work}")
        self._advance_vtime()
        self._active += 1
        heapq.heappush(self._jobs, (self._vtime + work, next(self._seq), callback, args))
        self._reschedule()

    def _complete_head(self) -> None:
        self._advance_vtime()
        self._pending_event = None
        if not self._jobs:
            return
        _, _, callback, args = heapq.heappop(self._jobs)
        self._active -= 1
        self._reschedule()
        callback(*args)
