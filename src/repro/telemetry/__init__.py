"""Structured observability for the packing/serving stack.

The paper's argument is a *decomposition* — where scheduling, building,
shipping, and execution time (and billed vs. unbilled dollars) go as
concurrency scales. This package makes that decomposition first-class:

* :mod:`~repro.telemetry.tracer` — span-based tracing keyed to
  deterministic simulation time (instance lifecycle phases, parent/child
  links, per-span attributes);
* :mod:`~repro.telemetry.metrics` — a registry of counters, gauges, and
  fixed-bucket histograms that platform, serving, fault, and resilience
  components register into;
* :mod:`~repro.telemetry.bus` — the session's event log: lifecycle events
  published when a run ends, in publication order;
* :mod:`~repro.telemetry.exporters` — Chrome ``trace_event`` JSON (view
  the Fig. 1 scaling staircase in Perfetto), Prometheus text exposition,
  and a JSONL event log, all byte-deterministic per seed;
* :mod:`~repro.telemetry.config` — :class:`TelemetryConfig` /
  :class:`TelemetrySession`, the zero-cost-when-disabled switchboard;
* :mod:`~repro.telemetry.logging` — the CLI console helper.

See ``docs/OBSERVABILITY.md`` for the span model, metric naming
conventions, exporter formats, and overhead numbers.
"""

from repro.telemetry.bus import EventBus, TelemetryEvent
from repro.telemetry.config import TelemetryConfig, TelemetrySession, resolve_session
from repro.telemetry.exporters import (
    chrome_trace,
    events_jsonl,
    parse_events_jsonl,
    parse_prometheus_text,
    prometheus_text,
    write_chrome_trace,
)
from repro.telemetry.instruments import BurstInstrumentation, ServingInstrumentation
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.tracer import Instant, Span, Tracer

__all__ = [
    "EventBus",
    "TelemetryEvent",
    "TelemetryConfig",
    "TelemetrySession",
    "resolve_session",
    "chrome_trace",
    "events_jsonl",
    "parse_events_jsonl",
    "parse_prometheus_text",
    "prometheus_text",
    "write_chrome_trace",
    "BurstInstrumentation",
    "ServingInstrumentation",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Instant",
    "Span",
    "Tracer",
]
