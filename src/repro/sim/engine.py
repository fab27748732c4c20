"""Event-loop core of the discrete-event simulator.

The engine is deliberately minimal: a binary heap of timestamped events, each
carrying a callback. Components (scheduler, network, instances) schedule
callbacks against a shared :class:`Simulator`. Ties are broken by a
monotonically increasing sequence number so execution order is deterministic
for a given seed, which the experiment harness relies on.

The heap stores ``(time, seq, event)`` tuples rather than the events
themselves: ``seq`` is unique, so tuple comparison never reaches the event
object and every heap operation compares plain floats/ints in C. At a
million-event agenda that removes the single hottest Python frame of the
dispatch profile (the dataclass-generated ``Event.__lt__``).

One long pre-sorted stream (a serving run's arrivals) may go on the
agenda through :meth:`Simulator.schedule_sorted` and never enters the heap:
the simulator keeps the column beside it and merges the column's head with
the heap's top on every step, so the heap holds only the live events and an
entry costs no heap push or pop. The stream's owner may pick which entry
runs next (:meth:`Simulator.seek_stream`); the entries it skips never run,
and the ones it picks still run at their exact times and sequence numbers.

Nothing observes the loop while it runs: :meth:`Simulator.run` drains the
agenda, and a run reports what it did once it ends.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Optional, Sequence

import numpy as np

#: One heap entry: (time, seq, event).
_HeapEntry = "tuple[float, int, Event]"


class SimulationError(RuntimeError):
    """Raised when the simulation is driven into an invalid state."""


class Event:
    """A scheduled callback.

    The heap pops events in ``(time, seq)`` order, FIFO among ties; the
    ordering lives in the heap's tuple keys. ``cancelled`` implements lazy
    deletion: cancelled events stay in the heap but are skipped when popped
    (the owning simulator is notified so it can bound the garbage — see
    :meth:`Simulator._compact`).
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


class _Stream:
    """The :meth:`Simulator.schedule_sorted` column, and its handle.

    Entry ``i`` runs ``callback(times[i])`` with sequence number
    ``first + i``; ``cursor`` is the index of the next entry to run, and
    ``ran`` the index of the last one that ran (-1 before the first).
    """

    __slots__ = ("times", "first", "cursor", "ran", "callback")

    def __init__(self, times: list, first: int, callback: Callable[[float], None]) -> None:
        self.times = times
        self.first = first
        self.cursor = 0
        self.ran = -1
        self.callback = callback


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
    #: benchmarks/test_perf_primitives.py and docs/PERFORMANCE.md. Set
    #: on an instance, it moves that simulator's floor alone.
    COMPACT_MIN_EVENTS = 1024

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._running = False
        self._events_processed = 0
        self._cancelled_live = 0  # cancelled events still sitting in the heap
        self.compactions = 0      # heap rebuilds performed (observability)
        self._cancel_hook = self._note_cancelled  # one bound method, shared
        # The schedule_sorted stream, and its pending entry: the stream
        # again while an entry is pending (else None), with the entry's
        # (time, seq), (inf, inf) when none is, so step() compares the
        # heap's top against it without a None check.
        self._sorted: Optional[_Stream] = None
        self._stream: Optional[_Stream] = None
        self._stream_time = math.inf
        self._stream_seq = math.inf

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (for instrumentation/tests)."""
        return self._events_processed

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be ``>= 0``; a negative or NaN delay raises
        :class:`SimulationError` (a NaN time would run at an arbitrary
        point of the pop order).
        """
        if not delay >= 0.0:  # also rejects NaN, at no extra comparison
            raise SimulationError(
                f"cannot schedule event in the past or at NaN (delay={delay})"
            )
        return self._push(self._now + delay, callback, args)

    def _push(self, time: float, callback: Callable[..., None], args: tuple) -> Event:
        """Put ``callback(*args)`` on the heap at exactly ``time``.

        Every event enters the heap here. Substrate code that knows an
        absolute instant (a container build's finish, computed when the
        build was admitted) pushes it directly, so the event runs at that
        float and not at ``now + (time - now)``. A NaN ``time`` or one
        before :attr:`now` raises :class:`SimulationError`.
        """
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule event in the past or at NaN (time={time}, now={self._now})"
            )
        seq = next(self._seq)
        event = Event(time, seq, callback, args, False, self._cancel_hook)
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
            len(self._heap) >= self.COMPACT_MIN_EVENTS
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
        """Schedule ``callback(*args)`` at (about) an absolute simulation time.

        ``time`` must be no earlier than :attr:`now`, and not NaN. The event
        runs at ``now + (time - now)``, as :meth:`schedule` computes it, and
        that sum can miss ``time`` by one ulp: from ``now =
        0.541506936703373`` a ``time`` of ``1.75736081650356`` runs at
        ``1.7573608165035601``. :meth:`schedule_sorted` entries run at their
        exact times.
        """
        return self.schedule(time - self._now, callback, *args)

    def schedule_sorted(
        self, times: Sequence[float], callback: Callable[[float], None]
    ) -> Optional[_Stream]:
        """Schedule ``callback(t)`` at every absolute time ``t`` in ``times``.

        Executes as ``schedule_at(t, callback, t)`` for each time in order
        would, ties included, except that each entry runs at exactly ``t``:
        the call reserves ``len(times)`` consecutive sequence numbers, and
        :meth:`step` runs the stream's next entry whenever its
        ``(time, seq)`` comes before the heap's top. No entry ever enters
        the heap. A simulator takes one stream: a second call raises
        :class:`SimulationError`. The entries cannot be cancelled, but the
        stream's owner may skip them with :meth:`seek_stream`, which takes
        the handle returned here (``None`` for an empty ``times``, which
        schedules nothing). ``times`` must be non-decreasing and start no
        earlier than :attr:`now`.
        """
        if self._sorted is not None:
            raise SimulationError("a simulator takes one schedule_sorted stream")
        column = np.asarray(times, dtype=float)
        if column.size == 0:
            return None
        if not column[0] >= self._now:
            raise SimulationError(
                f"cannot schedule event in the past (time={column[0]}, now={self._now})"
            )
        if not (column[1:] >= column[:-1]).all():
            raise SimulationError("schedule_sorted needs non-decreasing times")
        first = next(self._seq)
        self._seq = itertools.count(first + column.size)
        stream = self._sorted = self._stream = _Stream(column.tolist(), first, callback)
        self._stream_time = stream.times[0]
        self._stream_seq = first
        return stream

    def seek_stream(self, stream: _Stream, index: int) -> None:
        """Make entry ``index`` of ``stream`` the next one it runs.

        Every entry before ``index`` that has not run is skipped: an entry
        that is never picked never runs. ``index`` may move back, but only
        to an entry after the last one that ran; ``len(times)`` runs no
        further entry until a later seek picks one. A picked entry runs at
        its own ``(time, seq)``, so its order against the heap is the one
        :meth:`schedule_sorted` promised; only an entry due at :attr:`now`
        whose turn the running event has already passed runs right after
        it. A move to or before an entry that ran, past the end, or to an
        entry due before :attr:`now` raises :class:`SimulationError`, as
        does a handle from another simulator.
        """
        if stream is not self._sorted:
            raise SimulationError("cannot seek a stream this simulator does not run")
        times = stream.times
        n = len(times)
        if index <= stream.ran or index > n or (index < n and times[index] < self._now):
            raise SimulationError(
                f"cannot seek a stream to entry {index} at {self._now}: entry "
                f"{stream.ran} already ran, and it has {n} entries"
            )
        stream.cursor = index
        if index < n:
            self._stream = stream
            self._stream_time = times[index]
            self._stream_seq = stream.first + index
        else:
            self._stream = None
            self._stream_time = self._stream_seq = math.inf

    def step(self) -> bool:
        """Execute the next event. Returns ``False`` when the agenda is empty."""
        heap = self._heap
        while heap:
            time, seq, event = heap[0]
            if time > self._stream_time or (
                time == self._stream_time and seq > self._stream_seq
            ):
                break  # the pending stream's head comes first
            heapq.heappop(heap)
            if event.cancelled:
                self._cancelled_live -= 1
                continue
            if time < self._now:
                raise SimulationError("event heap produced a time in the past")
            self._now = time
            self._events_processed += 1
            event.callback(*event.args)
            return True
        stream = self._stream
        if stream is None:
            return False
        time = self._stream_time
        self._now = time
        self._events_processed += 1
        # Advance before the callback runs, so it sees the stream's successor.
        stream.ran = stream.cursor
        i = stream.cursor = stream.ran + 1
        if i < len(stream.times):
            self._stream_time = stream.times[i]
            self._stream_seq = stream.first + i
        else:
            self._stream = None
            self._stream_time = self._stream_seq = math.inf
        stream.callback(time)
        return True

    def run(self) -> None:
        """Run events until the agenda drains.

        Not re-entrant: a callback that calls :meth:`run` raises
        :class:`SimulationError`.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        try:
            while self.step():
                pass
        finally:
            self._running = False
