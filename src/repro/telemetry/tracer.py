"""Span-based tracing keyed to deterministic simulation time.

A :class:`Span` covers one phase of one unit of work — a placement search,
a container build, an execution — on a ``(process, track)`` pair that maps
directly onto Chrome ``trace_event``'s ``(pid, tid)``: the exporter renders
each burst (process) as a band of instance rows (tracks), so the scaling
staircase of paper Fig. 1 is visible at a glance.

Spans are linked parent→child by id, carry arbitrary attributes, and take
their timestamps from a pluggable *clock* — in this repo always a
simulator's ``now``, never the wall clock, so a seed reproduces the trace
byte for byte.

The tracer is explicitly *not* thread-aware and *not* sampled: simulations
are single-threaded and deterministic, and the consumer decides what to
drop at export time.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

#: A clock returning the current time in (simulated) seconds.
Clock = Callable[[], float]


def _zero_clock() -> float:
    return 0.0


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
    """Records spans and instants against a rebindable clock.

    One tracer outlives many simulations: each burst/serving run calls
    :meth:`new_process` (naming its band in the exported trace) and
    :meth:`bind_clock` with its own simulator, then spans accumulate into
    one trace. Span ids are assigned from a monotonic counter, so a fixed
    call sequence yields identical ids — the determinism the exporter
    round-trip tests pin.
    """

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self._clock: Clock = clock or _zero_clock
        self._ids = itertools.count(1)
        self.spans: list[Span] = []
        self.instants: list[Instant] = []
        self.processes: dict[int, str] = {}
        self._current_process = 0

    # ------------------------------------------------------------------ #
    def bind_clock(self, clock: Clock) -> None:
        """Point the tracer at a (new) simulation's clock."""
        self._clock = clock

    @property
    def now(self) -> float:
        return self._clock()

    def new_process(self, name: str) -> int:
        """Open a new process band (one burst / serving run); returns pid."""
        pid = len(self.processes) + 1
        self.processes[pid] = name
        self._current_process = pid
        return pid

    # ------------------------------------------------------------------ #
    def start_span(
        self,
        name: str,
        category: str = "",
        parent: Optional[Span] = None,
        track: int = 0,
        **attrs: Any,
    ) -> Span:
        span = Span(
            span_id=next(self._ids),
            name=name,
            start=self._clock(),
            category=category,
            parent_id=parent.span_id if parent is not None else None,
            process=self._current_process,
            track=track if parent is None else parent.track,
            attrs=attrs,
        )
        self.spans.append(span)
        return span

    def reserve_ids(self, n: int) -> int:
        """Take ``n`` consecutive span ids and return the first.

        For callers that build their :class:`Span` objects in bulk and
        append them to :attr:`spans` themselves (a burst's spans, derived
        from its finished records): ids stay unique and increasing across
        both ways of recording a span.
        """
        first = next(self._ids)
        self._ids = itertools.count(first + n)
        return first

    def end_span(self, span: Span, **attrs: Any) -> Span:
        """Close ``span`` at the current clock; extra attrs are merged in."""
        if span.end is not None:
            raise ValueError(f"span {span.name!r} (#{span.span_id}) already ended")
        span.end = self._clock()
        if attrs:
            span.attrs.update(attrs)
        return span

    @contextmanager
    def span(
        self,
        name: str,
        category: str = "",
        parent: Optional[Span] = None,
        track: int = 0,
        **attrs: Any,
    ) -> Iterator[Span]:
        """Context-manager sugar for a span covering the ``with`` body."""
        handle = self.start_span(name, category, parent, track, **attrs)
        try:
            yield handle
        finally:
            self.end_span(handle)

    def instant(
        self, name: str, category: str = "", track: int = 0, **attrs: Any
    ) -> Instant:
        mark = Instant(
            name=name,
            time=self._clock(),
            category=category,
            process=self._current_process,
            track=track,
            attrs=tuple(sorted(attrs.items())),
        )
        self.instants.append(mark)
        return mark

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
        self._current_process = 0
        self._ids = itertools.count(1)

    def __len__(self) -> int:
        return len(self.spans)
