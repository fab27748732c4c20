"""Event-loop core of the discrete-event simulator.

The engine is deliberately minimal: a binary heap of timestamped events, each
carrying a callback. Components (scheduler, builder, network, instances)
schedule callbacks against a shared :class:`Simulator`. Ties are broken by a
monotonically increasing sequence number so execution order is deterministic
for a given seed, which the experiment harness relies on.

The heap stores ``(time, seq, event)`` tuples rather than the events
themselves: ``seq`` is unique, so tuple comparison never reaches the event
object and every heap operation compares plain floats/ints in C. At a
million-event agenda that removes the single hottest Python frame of the
dispatch profile (the dataclass-generated ``Event.__lt__``).

A long pre-sorted stream (a serving run's arrivals) goes on the agenda
through :meth:`Simulator.schedule_sorted`, one entry at a time, so the heap
stays as deep as the live events rather than the whole stream.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from typing import Any, Callable, Optional, Sequence

import numpy as np

#: One heap entry: (time, seq, event).
_HeapEntry = "tuple[float, int, Event]"


class SimulationError(RuntimeError):
    """Raised when the simulation is driven into an invalid state."""


class Event:
    """A scheduled callback.

    Events order by ``(time, seq)`` so the heap pops them in timestamp
    order with FIFO tie-breaking (the ordering itself lives in the heap's
    tuple keys; the comparison operators here exist for tests and direct
    users). ``cancelled`` implements lazy deletion: cancelled events stay
    in the heap but are skipped when popped (the owning simulator is
    notified so it can bound the garbage — see :meth:`Simulator._compact`).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_on_cancel")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple = (),
        cancelled: bool = False,
        _on_cancel: Optional[Callable[[], None]] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = cancelled
        self._on_cancel = _on_cancel

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (self.time, self.seq) == (other.time, other.seq)

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, seq={self.seq!r}, "
            f"cancelled={self.cancelled!r})"
        )

    def cancel(self) -> None:
        """Mark the event so the loop skips it (lazy deletion)."""
        if not self.cancelled:
            self.cancelled = True
            if self._on_cancel is not None:
                self._on_cancel()


class Simulator:
    """A deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> hits = []
    >>> _ = sim.schedule(2.0, hits.append, 'b')
    >>> _ = sim.schedule(1.0, hits.append, 'a')
    >>> sim.run()
    >>> hits
    ['a', 'b']
    >>> sim.now
    2.0
    """

    #: Agendas smaller than this are never compacted (rebuild overhead
    #: would dominate; a few hundred dead entries are harmless). Measured
    #: on cancel-heavy agendas (90% cancelled): a floor of 64 wins by
    #: ~10% below ~8k events, 1024 wins by ~6% at 1e5–1e6 (it skips the
    #: geometric tail of tiny drain-time rebuilds), and disabling
    #: compaction is ~60% slower at 1e6. The garbage-ratio trigger itself
    #: (rebuild once dead > live) is scale-free and beat both 1/4 and 2/3
    #: at every size — see the compaction micro-benchmark in
    #: benchmarks/test_perf_primitives.py and docs/PERFORMANCE.md.
    COMPACT_MIN_EVENTS = 1024

    def __init__(self, compact_min_events: Optional[int] = None) -> None:
        self._now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._running = False
        self._events_processed = 0
        self._cancelled_live = 0  # cancelled events still sitting in the heap
        self.compactions = 0      # heap rebuilds performed (observability)
        self._cancel_hook = self._note_cancelled  # one bound method, shared
        self._compact_min = (
            self.COMPACT_MIN_EVENTS if compact_min_events is None else compact_min_events
        )

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (for instrumentation/tests)."""
        return self._events_processed

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        time = self._now + delay
        seq = next(self._seq)
        event = Event(time, seq, callback, args, _on_cancel=self._cancel_hook)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    # ------------------------------------------------------------------ #
    # Lazy-deletion bookkeeping: hedging and twin-cancellation can leave
    # more dead events than live ones on long agendas, so the heap is
    # rebuilt once garbage exceeds half the agenda. Compaction preserves
    # (time, seq) pop order exactly and never touches ``events_processed``
    # (which counts executed events only).
    def _note_cancelled(self) -> None:
        self._cancelled_live += 1
        if (
            len(self._heap) >= self._compact_min
            and self._cancelled_live > len(self._heap) // 2
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled events and re-heapify (bounds agenda growth)."""
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_live = 0
        self.compactions += 1

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulation time."""
        return self.schedule(time - self._now, callback, *args)

    def schedule_sorted(
        self, times: Sequence[float], callback: Callable[[float], None]
    ) -> None:
        """Schedule ``callback(t)`` at every absolute time ``t`` in ``times``.

        Executes exactly as ``schedule_at(t, callback, t)`` for each time in
        order would, ties included: the call reserves ``len(times)``
        consecutive sequence numbers, but only the next entry sits on the
        heap, and each entry pushes its successor when it fires. Every later
        entry's ``(time, seq)`` key is larger than the next one's, so the
        pop order is the same by construction. The entries cannot be
        cancelled. ``times`` must be non-decreasing and start no earlier
        than :attr:`now`.
        """
        column = np.asarray(times, dtype=float)
        if column.size == 0:
            return
        if not column[0] >= self._now:
            raise SimulationError(
                f"cannot schedule event in the past (time={column[0]}, now={self._now})"
            )
        if not (column[1:] >= column[:-1]).all():
            raise SimulationError("schedule_sorted needs non-decreasing times")
        stream = column.tolist()
        n = len(stream)
        first = next(self._seq)
        self._seq = itertools.count(first + n)

        def push(i: int) -> None:
            # Look the heap up on each push: compaction replaces the list.
            time, seq = stream[i], first + i
            heapq.heappush(self._heap, (time, seq, Event(time, seq, fire, (i,))))

        # Named after the consumer so event traces report its callback.
        @functools.wraps(callback)
        def fire(i: int) -> None:
            if i + 1 < n:
                push(i + 1)
            callback(stream[i])

        push(0)

    def peek(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` if the agenda is empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled_live -= 1
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Execute the next event. Returns ``False`` when the agenda is empty."""
        heap = self._heap
        while heap:
            time, _seq, event = heapq.heappop(heap)
            if event.cancelled:
                self._cancelled_live -= 1
                continue
            if time < self._now:
                raise SimulationError("event heap produced a time in the past")
            self._now = time
            self._events_processed += 1
            event.callback(*event.args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the agenda drains, ``until`` is reached, or ``max_events``.

        ``until`` leaves the clock at exactly ``until`` if the agenda outlives
        it; events at precisely ``until`` are executed.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        executed = 0
        try:
            while True:
                nxt = self.peek()
                if nxt is None:
                    break
                if until is not None and nxt > until:
                    self._now = until
                    break
                if max_events is not None and executed >= max_events:
                    break
                self.step()
                executed += 1
        finally:
            self._running = False
