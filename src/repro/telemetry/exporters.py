"""Exporters: Chrome ``trace_event`` JSON, Prometheus text, JSONL events.

All three formats are produced from deterministic snapshots (sorted metric
collection, monotonic span ids, sim-time timestamps), so two runs with the
same seed serialize byte-identically — the exporter round-trip tests pin
this.

* :func:`chrome_trace` — load the result into ``chrome://tracing`` or
  Perfetto: each burst is a process band, each instance a track, and the
  per-phase spans (schedule/build/ship/exec) render the scaling-time
  staircase of paper Fig. 1 directly.
* :func:`prometheus_text` — the text exposition format (``# HELP`` /
  ``# TYPE`` / samples, histograms as cumulative ``_bucket`` series).
* :func:`events_jsonl` — one JSON object per line for every
  :class:`~repro.telemetry.bus.TelemetryEvent` the bus saw.
"""

from __future__ import annotations

import json
import math
from typing import IO, Any, Iterable, Union

from repro.telemetry.bus import TelemetryEvent
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.tracer import Tracer

#: Simulation seconds → trace_event microseconds.
_US = 1e6


# --------------------------------------------------------------------- #
# Chrome trace_event
# --------------------------------------------------------------------- #
def chrome_trace(tracer: Tracer) -> dict[str, Any]:
    """The tracer's spans as a Chrome ``trace_event`` JSON object."""
    events: list[dict[str, Any]] = []
    for pid in sorted(tracer.processes):
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "name": "process_name",
                "args": {"name": tracer.processes[pid]},
            }
        )
    for span in tracer.spans:
        if not span.closed:
            continue
        events.append(
            {
                "ph": "X",
                "pid": span.process,
                "tid": span.track,
                "name": span.name,
                "cat": span.category or "span",
                "ts": span.start * _US,
                "dur": (span.end - span.start) * _US,
                "args": dict(sorted(span.attrs.items())),
            }
        )
    for mark in tracer.instants:
        events.append(
            {
                "ph": "i",
                "s": "t",
                "pid": mark.process,
                "tid": mark.track,
                "name": mark.name,
                "cat": mark.category or "mark",
                "ts": mark.time * _US,
                "args": dict(mark.attrs),
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(destination: Union[str, IO[str]], tracer: Tracer) -> None:
    """Serialize :func:`chrome_trace` to a path or open text file."""
    document = chrome_trace(tracer)
    if hasattr(destination, "write"):
        json.dump(document, destination, sort_keys=True)
    else:
        with open(destination, "w") as fh:
            json.dump(document, fh, sort_keys=True)


# --------------------------------------------------------------------- #
# Prometheus text exposition
# --------------------------------------------------------------------- #
def _fmt_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _fmt_labels(labels: Iterable[tuple[str, str]]) -> str:
    pairs = [f'{key}="{val}"' for key, val in labels]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in the Prometheus text exposition format."""
    lines: list[str] = []
    for name, kind, help_text, rows in registry.collect():
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for labels, metric in rows:
            if isinstance(metric, (Counter, Gauge)):
                lines.append(f"{name}{_fmt_labels(labels)} {_fmt_value(metric.value)}")
            elif isinstance(metric, Histogram):
                cumulative = metric.cumulative()
                for bound, count in zip(metric.buckets, cumulative):
                    le = labels + (("le", _fmt_value(bound)),)
                    lines.append(f"{name}_bucket{_fmt_labels(le)} {count}")
                inf = labels + (("le", "+Inf"),)
                lines.append(f"{name}_bucket{_fmt_labels(inf)} {cumulative[-1]}")
                lines.append(f"{name}_sum{_fmt_labels(labels)} {_fmt_value(metric.sum)}")
                lines.append(f"{name}_count{_fmt_labels(labels)} {metric.count}")
    return "\n".join(lines) + "\n"


def parse_prometheus_text(text: str) -> dict[str, float]:
    """Parse exposition text back into ``{metric{labels}: value}``.

    A deliberately small parser — enough for the round-trip tests and for
    ``propack-trace`` summaries, not a general scrape implementation.
    """
    samples: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, raw = line.rpartition(" ")
        if not key:
            raise ValueError(f"unparseable sample line: {line!r}")
        value = float(raw)
        if key in samples:
            raise ValueError(f"duplicate sample {key!r}")
        samples[key] = value
    return samples


# --------------------------------------------------------------------- #
# Newline-delimited JSON event log
# --------------------------------------------------------------------- #
def events_jsonl(events: Iterable[TelemetryEvent]) -> str:
    """One sorted-key JSON object per line (empty string for no events)."""
    return "".join(
        json.dumps(event.as_dict(), sort_keys=True) + "\n" for event in events
    )


def parse_events_jsonl(text: str) -> list[dict[str, Any]]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]
