"""The telemetry event bus: one publish/subscribe path for everything.

Every observable occurrence in the stack — a simulator event executing,
a dispatch crashing, a retry being scheduled — can be published as a
:class:`TelemetryEvent` on an :class:`EventBus`. Subscribers (the
:class:`~repro.sim.trace.TraceRecorder` ring buffer, the JSONL event log,
ad-hoc debugging hooks) see events in publication order, which is
deterministic because the simulator itself is. The recorder publishes
each simulator event as it runs; a burst or serving run publishes its
lifecycle events when it ends, each stamped with the simulation time it
happened at.

The bus is intentionally synchronous and allocation-light: ``publish`` is a
dict lookup plus a loop over subscriber callables, and a bus with no
subscribers for a kind does no work beyond building the event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Optional

#: Subscribers receive the event object itself.
Subscriber = Callable[["TelemetryEvent"], None]


class TelemetryEvent(NamedTuple):
    """One occurrence, keyed to simulation time.

    ``fields`` is stored as a sorted tuple of ``(key, value)`` pairs so two
    identically-seeded runs serialize byte-identically. Events are
    immutable and compare by value.
    """

    kind: str
    time: float
    fields: tuple[tuple[str, Any], ...] = ()

    def as_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"kind": self.kind, "time": self.time}
        doc.update(self.fields)
        return doc

    def get(self, key: str, default: Any = None) -> Any:
        for k, v in self.fields:
            if k == key:
                return v
        return default


class EventBus:
    """Synchronous pub/sub with per-kind and catch-all subscriptions."""

    def __init__(self) -> None:
        self._by_kind: dict[str, list[Subscriber]] = {}
        self._all: list[Subscriber] = []

    def subscribe(
        self, fn: Subscriber, kind: Optional[str] = None
    ) -> Callable[[], None]:
        """Register ``fn`` for one ``kind`` (or every kind when ``None``).

        Returns an unsubscribe callable (idempotent).
        """
        listing = self._all if kind is None else self._by_kind.setdefault(kind, [])
        listing.append(fn)

        def unsubscribe() -> None:
            try:
                listing.remove(fn)
            except ValueError:
                pass

        return unsubscribe

    def publish(self, kind: str, time: float, **fields: Any) -> TelemetryEvent:
        """Build and dispatch one event; returns it for chaining/testing."""
        event = TelemetryEvent(kind, time, tuple(sorted(fields.items())))
        for fn in self._by_kind.get(kind, ()):
            fn(event)
        for fn in self._all:
            fn(event)
        return event


@dataclass
class EventLog:
    """A bounded catch-all subscriber backing the JSONL exporter."""

    capacity: Optional[int] = None
    events: list[TelemetryEvent] = field(default_factory=list)
    dropped: int = 0

    def __call__(self, event: TelemetryEvent) -> None:
        if self.capacity is not None and len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(event)

    def attach(self, bus: EventBus) -> "EventLog":
        bus.subscribe(self)
        return self

    def __len__(self) -> int:
        return len(self.events)
