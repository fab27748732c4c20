"""Telemetry configuration and the per-session runtime bundle.

:class:`TelemetryConfig` is the single switchboard: components accept an
optional config (or a prebuilt :class:`TelemetrySession`). No simulator
calls telemetry while it runs: a burst or serving run with a session
reports once, when it ends, from its finished records and logged
moments, so with the config absent or disabled no span, metric or event
is built at all. The zero-cost-when-disabled contract is enforced by the
``telemetry_overhead``-marked benchmark: a disabled config must keep the
perf-primitives burst within 2% of the uninstrumented seed path.

A :class:`TelemetrySession` owns the tracer, the metrics registry, and the
event bus (the session's event log) for one observation window (typically
one platform object's lifetime, spanning many bursts), plus the export
conveniences. Each of the three exists only when its switch is on.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import IO, Optional, Union

from repro.telemetry.bus import EventBus
from repro.telemetry.exporters import (
    chrome_trace,
    events_jsonl,
    prometheus_text,
    write_chrome_trace,
)
from repro.telemetry.instruments import BurstInstrumentation, ServingInstrumentation
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import Tracer


@dataclass(frozen=True)
class TelemetryConfig:
    """What to observe. ``enabled=False`` (or ``TelemetryConfig.off()``)
    short-circuits everything back to the uninstrumented fast path."""

    enabled: bool = True
    tracing: bool = True          # span tracer (Chrome trace export)
    metrics: bool = True          # counters / gauges / histograms
    events: bool = True           # the event bus (JSONL event log)
    max_events: Optional[int] = 1_000_000  # event-log bound (None = unbounded)

    def __post_init__(self) -> None:
        # A bound below 1 keeps no event: events=False under another name.
        bound = self.max_events
        if bound is not None and (not isinstance(bound, numbers.Integral) or bound < 1):
            raise ValueError(f"max_events must be None or an integer >= 1 (got {bound!r})")

    @classmethod
    def off(cls) -> "TelemetryConfig":
        return cls(enabled=False)

    def session(self) -> Optional["TelemetrySession"]:
        """A fresh runtime bundle, or ``None`` when disabled."""
        if not self.enabled or not (self.tracing or self.metrics or self.events):
            return None
        return TelemetrySession(self)


class TelemetrySession:
    """The tracer + registry + bus for one observation window."""

    def __init__(self, config: TelemetryConfig = TelemetryConfig()) -> None:
        self.config = config
        self.tracer: Optional[Tracer] = Tracer() if config.tracing else None
        self.registry: Optional[MetricsRegistry] = (
            MetricsRegistry() if config.metrics else None
        )
        self.bus: Optional[EventBus] = (
            EventBus(config.max_events) if config.events else None
        )

    # ------------------------------------------------------------------ #
    # instrumentation factories (used by the platform / serving loops)
    # ------------------------------------------------------------------ #
    def burst_instrumentation(self, name: str) -> BurstInstrumentation:
        """Instrument one burst: opens a new process band named ``name`` in
        the trace."""
        return BurstInstrumentation(
            tracer=self.tracer, registry=self.registry, bus=self.bus, name=name,
        )

    def serving_instrumentation(self, name: str) -> ServingInstrumentation:
        """Report one finished serving run, on a new process band named
        ``name``."""
        return ServingInstrumentation(
            tracer=self.tracer, registry=self.registry, bus=self.bus, name=name,
        )

    # ------------------------------------------------------------------ #
    # exports
    # ------------------------------------------------------------------ #
    def chrome_trace(self) -> dict:
        if self.tracer is None:
            raise ValueError("tracing is disabled in this session")
        return chrome_trace(self.tracer)

    def write_chrome_trace(self, destination: Union[str, IO[str]]) -> None:
        if self.tracer is None:
            raise ValueError("tracing is disabled in this session")
        write_chrome_trace(destination, self.tracer)

    def prometheus_text(self) -> str:
        if self.registry is None:
            raise ValueError("metrics are disabled in this session")
        return prometheus_text(self.registry)

    def events_jsonl(self) -> str:
        if self.bus is None:
            raise ValueError("the event log is disabled in this session")
        return events_jsonl(self.bus.events)


def resolve_session(
    telemetry: Union[TelemetryConfig, TelemetrySession, None],
) -> Optional[TelemetrySession]:
    """Accept a config, a prebuilt session, or ``None`` (common kwarg glue)."""
    if telemetry is None:
        return None
    if isinstance(telemetry, TelemetrySession):
        return telemetry
    return telemetry.session()
