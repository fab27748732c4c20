"""Span-based tracing keyed to deterministic simulation time.

A :class:`Span` covers one phase of one unit of work — a placement search,
a container build, an execution — on a ``(process, track)`` pair that maps
directly onto Chrome ``trace_event``'s ``(pid, tid)``: the exporter renders
each burst (process) as a band of instance rows (tracks), so the scaling
staircase of paper Fig. 1 is visible at a glance.

Spans are linked parent→child by id and carry arbitrary attributes. The
tracer keeps no clock: every span and instant is built from a finished
run's records and log, with that run's simulation times (never the wall
clock), so a seed reproduces the trace byte for byte.

The tracer is explicitly *not* thread-aware and *not* sampled: simulations
are single-threaded and deterministic, and the consumer decides what to
drop at export time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass(slots=True)
class Span:
    """One timed phase of one unit of work."""

    span_id: int
    name: str
    start: float
    category: str = ""
    end: Optional[float] = None
    parent_id: Optional[int] = None
    process: int = 0
    track: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} (#{self.span_id}) is still open")
        return self.end - self.start


@dataclass(frozen=True)
class Instant:
    """A zero-duration marker (retry scheduled, chain lost, 429 bounce)."""

    name: str
    time: float
    category: str = ""
    process: int = 0
    track: int = 0
    attrs: tuple[tuple[str, Any], ...] = ()


class Tracer:
    """Holds the spans and instants of one observation window.

    One tracer outlives many simulations: each burst or serving run calls
    :meth:`new_process` (naming its band in the exported trace), then,
    when it ends, appends its finished spans and instants. Span ids come
    from a monotonic counter (:meth:`reserve_ids`), so a fixed sequence of
    runs yields identical ids — the determinism the exporter round-trip
    tests pin.
    """

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self.spans: list[Span] = []
        self.instants: list[Instant] = []
        self.processes: dict[int, str] = {}

    # ------------------------------------------------------------------ #
    def new_process(self, name: str) -> int:
        """Open a new process band (one burst / serving run); returns pid."""
        pid = len(self.processes) + 1
        self.processes[pid] = name
        return pid

    def reserve_ids(self, n: int) -> int:
        """Take ``n`` consecutive span ids and return the first.

        A run builds its :class:`Span` objects in bulk, from its finished
        records, and appends them to :attr:`spans` itself: ids stay unique
        and increasing across the runs of a session.
        """
        first = next(self._ids)
        self._ids = itertools.count(first + n)
        return first

    # ------------------------------------------------------------------ #
    def finished(self, category: Optional[str] = None) -> list[Span]:
        """Closed spans, optionally filtered by category."""
        return [
            s
            for s in self.spans
            if s.closed and (category is None or s.category == category)
        ]

    def clear(self) -> None:
        self.spans.clear()
        self.instants.clear()
        self.processes.clear()
        self._ids = itertools.count(1)

    def __len__(self) -> int:
        return len(self.spans)
