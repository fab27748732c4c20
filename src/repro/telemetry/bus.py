"""The session's event log: every lifecycle event, in publication order.

A burst or serving run with a session publishes its lifecycle events (a
crash, a retry, a lost chain, a failed batch, a remediation stage) on the
session's :class:`EventBus` when the run ends, each a
:class:`TelemetryEvent` stamped with the simulation time it happened at.
The bus keeps them, in publication order, up to a bound; the JSONL
exporter reads them. Publication order is deterministic because the runs
are. Nothing subscribes: the bus exists only when the session's
``events`` switch is on.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional


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
    """A bounded log of published events, in publication order.

    ``events`` keeps the first ``capacity`` events published (all of them
    when ``capacity`` is ``None``); ``dropped`` counts the rest.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        self.capacity = capacity
        self.events: list[TelemetryEvent] = []
        self.dropped = 0

    def publish(self, kind: str, time: float, **fields: Any) -> TelemetryEvent:
        """Build one event and log it; returns it for chaining/testing."""
        event = TelemetryEvent(kind, time, tuple(sorted(fields.items())))
        if self.capacity is not None and len(self.events) >= self.capacity:
            self.dropped += 1
        else:
            self.events.append(event)
        return event
