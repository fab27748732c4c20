"""Discrete-event simulation engine.

This package is the lowest substrate of the reproduction, and imports no
other ``repro`` package: a deterministic, seedable discrete-event simulator
with the two queueing resources the serverless platform model is built
from:

* :class:`~repro.sim.engine.Simulator` — the event loop (binary-heap agenda,
  plus at most one pre-sorted stream beside it).
* :class:`~repro.sim.resources.FifoResource` — a multi-server FIFO queue
  (bounded parallelism; used for the sharded scheduler's consistency bus).
* :class:`~repro.sim.resources.ProcessorSharingResource` — an egalitarian
  processor-sharing queue implemented with the classic virtual-time trick
  (O(log n) per event; used for the shipping network uplink).
* :mod:`~repro.sim.randomness` — per-subsystem RNG streams derived from a
  single experiment seed so results are reproducible.
* :mod:`~repro.sim.stats` — metric accumulation (timelines, percentiles).
"""

from repro.sim.engine import Event, Simulator
from repro.sim.randomness import RandomStreams
from repro.sim.resources import FifoResource, ProcessorSharingResource
from repro.sim.stats import SummaryStats, percentile, summarize

__all__ = [
    "Event",
    "Simulator",
    "RandomStreams",
    "FifoResource",
    "ProcessorSharingResource",
    "SummaryStats",
    "percentile",
    "summarize",
]
