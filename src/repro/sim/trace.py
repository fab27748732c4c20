"""Event tracing for simulation debugging.

A :class:`TraceRecorder` wraps a :class:`~repro.sim.engine.Simulator` and
records every executed event (timestamp, callback name, sequence) into a
bounded ring buffer. Useful when a platform run misbehaves: attach a
recorder, re-run the burst (runs are deterministic), and inspect the event
stream around the anomaly.

    sim = Simulator()
    trace = TraceRecorder(sim, capacity=10_000)
    ... run ...
    for entry in trace.window(120.0, 130.0):
        print(entry)

Executed events travel over a :class:`~repro.telemetry.bus.EventBus` as
``sim.event`` publications — the recorder is one subscriber among any
number, so a telemetry session (or a test) can watch the same stream by
passing a shared bus. The recorder is the one publisher that runs as the
simulator does: a burst or serving run publishes its lifecycle events
(crashes, retries, lost chains, failed batches, remediation stages) when
it ends, so on a shared bus they follow every ``sim.event`` of that run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro.sim.engine import Simulator
from repro.telemetry.bus import EventBus, TelemetryEvent

#: Event kind published on the bus for every executed simulator event.
SIM_EVENT_KIND = "sim.event"


@dataclass(frozen=True)
class TraceEntry:
    """One executed event."""

    time: float
    seq: int
    callback: str

    def __str__(self) -> str:
        return f"[{self.time:12.6f}] #{self.seq} {self.callback}"


def _callback_name(callback: Callable) -> str:
    qualname = getattr(callback, "__qualname__", None)
    if qualname:
        return qualname
    return repr(callback)


class TraceRecorder:
    """Records executed events from a simulator into a ring buffer.

    Entries flow through ``bus`` (a private one by default): the wrapped
    step publishes a ``sim.event`` per execution and the recorder's ring
    buffer is simply a subscriber, so other listeners on a shared bus see
    the identical stream.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: int = 100_000,
        predicate: Optional[Callable[[TraceEntry], bool]] = None,
        bus: Optional[EventBus] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.predicate = predicate
        self.bus = bus if bus is not None else EventBus()
        self.entries: deque[TraceEntry] = deque(maxlen=capacity)
        self.dropped = 0
        self._installed = False
        self._original_step = None
        self._unsubscribe: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------ #
    def install(self) -> "TraceRecorder":
        """Start recording (wraps the simulator's step method)."""
        if self._installed:
            return self
        self._unsubscribe = self.bus.subscribe(self._on_event, kind=SIM_EVENT_KIND)
        original = self.sim.step
        recorder = self

        def traced_step() -> bool:
            # Capture the next entry's identity before it executes.
            head = recorder.sim.next_entry()
            if head is None:
                return original()
            time, seq, callback = head
            callback = _callback_name(callback)
            executed = original()
            if executed:
                recorder.bus.publish(
                    SIM_EVENT_KIND, time, seq=seq, callback=callback
                )
            return executed

        self._original_step = original
        self.sim.step = traced_step  # type: ignore[method-assign]
        self._installed = True
        return self

    def uninstall(self) -> None:
        if self._installed and self._original_step is not None:
            self.sim.step = self._original_step  # type: ignore[method-assign]
            self._installed = False
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None

    def __enter__(self) -> "TraceRecorder":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #
    def _on_event(self, event: TelemetryEvent) -> None:
        entry = TraceEntry(
            time=event.time,
            seq=int(event.get("seq")),
            callback=str(event.get("callback")),
        )
        self._record(entry)

    def _record(self, entry: TraceEntry) -> None:
        if self.predicate is not None and not self.predicate(entry):
            return
        if len(self.entries) == self.capacity:
            self.dropped += 1
        self.entries.append(entry)

    def window(self, start: float, end: float) -> list[TraceEntry]:
        """Entries executed in the time window [start, end]."""
        return [e for e in self.entries if start <= e.time <= end]

    def by_callback(self, substring: str) -> list[TraceEntry]:
        return [e for e in self.entries if substring in e.callback]

    def __len__(self) -> int:
        return len(self.entries)

    def summary(self) -> dict[str, int]:
        """Event counts per callback name (a quick profile of a run)."""
        counts: dict[str, int] = {}
        for entry in self.entries:
            counts[entry.callback] = counts.get(entry.callback, 0) + 1
        return dict(sorted(counts.items(), key=lambda kv: -kv[1]))
