"""Host-speed calibration: a fixed reference loop timed beside every measurement.

The benchmark runs on shared 2-vCPU machines whose other tenants slow the
whole machine by 5–40% for minutes at a time: processes timing one
workload one after another gave median iteration times 3.5–9.7% apart
(quartile distance over median), and 23–33% in one heavily shared hour.
No run length averages that out, so every host time the benchmark reports
is *normalised*: the measured seconds times :data:`REFERENCE_S` divided by
the time this reference loop took around it, in the same process (see
``bench.runner._Timeline``). The result reads as seconds on a host where
the reference loop takes :data:`REFERENCE_S`; in the same experiments its
spread was 1.9–4.7%.

The reference is a small discrete-event loop — heap pushes and pops of
``(time, seq, event)`` tuples, slotted event objects, dict and list
updates — the operations the simulator's own event loop spends its time
on. It runs with the garbage collector off, so its time depends on the
host and the interpreter only, never on what the program left on the
heap. It is part of the benchmark and must never change: changing it
rescales every host-time metric.
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter

#: Nominal duration of one reference pass; host times are scaled to it.
#: It is the pass's time on the machine above when nothing else ran, so
#: normalised times read close to that machine's quiet-hour seconds.
REFERENCE_S = 0.04
REFERENCE_EVENTS = 40_000
_QUEUE_DEPTH = 64


class _Event:
    __slots__ = ("kind", "trail")

    def __init__(self, kind: int, trail: list) -> None:
        self.kind = kind
        self.trail = trail


def reference_work(events: int = REFERENCE_EVENTS) -> float:
    """Process ``events`` events of a fixed, seedless event loop."""
    heap: list[tuple[float, int, _Event]] = []
    totals: dict[int, float] = {}
    x = 1
    for seq in range(_QUEUE_DEPTH):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heap.append((x / 2147483648.0, seq, _Event(x & 255, [])))
    heapq.heapify(heap)
    seq = _QUEUE_DEPTH
    for _ in range(events):
        now, _, event = heapq.heappop(heap)
        totals[event.kind] = totals.get(event.kind, 0.0) + now
        event.trail.append(now)
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (now + x / 2147483648.0, seq, _Event(x & 255, [seq])))
        seq += 1
    return sum(totals.values())


def reference_seconds() -> float:
    """Host time of one reference pass, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference_work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
