"""Exporter round-trips: Chrome schema, Prometheus parse, determinism."""

import io
import json

from repro.platform.base import ServerlessPlatform
from repro.platform.invoker import BurstSpec
from repro.platform.providers import AWS_LAMBDA
from repro.telemetry import (
    EventBus,
    MetricsRegistry,
    TelemetryConfig,
    Tracer,
    chrome_trace,
    events_jsonl,
    parse_events_jsonl,
    parse_prometheus_text,
    prometheus_text,
    write_chrome_trace,
)
from repro.workloads import SORT


def _run_instrumented(seed=42, concurrency=200):
    platform = ServerlessPlatform(
        AWS_LAMBDA, seed=seed, telemetry=TelemetryConfig()
    )
    platform.run_burst(BurstSpec(app=SORT, concurrency=concurrency))
    return platform.telemetry


# --------------------------------------------------------------------- #
# Chrome trace_event schema
# --------------------------------------------------------------------- #
def test_chrome_trace_schema():
    session = _run_instrumented()
    document = session.chrome_trace()
    assert document["displayTimeUnit"] == "ms"
    events = document["traceEvents"]
    assert events, "trace must not be empty"

    metadata = [e for e in events if e["ph"] == "M"]
    assert len(metadata) == 1  # one burst → one process band
    assert metadata[0]["name"] == "process_name"
    assert "SORT".lower() in metadata[0]["args"]["name"].lower()

    complete = [e for e in events if e["ph"] == "X"]
    assert complete
    pids = {m["pid"] for m in metadata}
    for event in complete:
        # the complete-event contract the viewers rely on
        assert set(event) >= {"ph", "ts", "dur", "pid", "tid", "name", "cat"}
        assert event["pid"] in pids
        assert event["ts"] >= 0.0 and event["dur"] >= 0.0


def test_chrome_trace_phase_spans_nest_inside_instance_span():
    session = _run_instrumented(concurrency=40)
    events = session.chrome_trace()["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    instances = {e["tid"]: e for e in complete if e["cat"] == "instance"}
    phases = [e for e in complete if e["cat"] == "phase"]
    assert instances and phases
    for phase in phases:
        parent = instances[phase["tid"]]
        assert parent["ts"] <= phase["ts"]
        assert phase["ts"] + phase["dur"] <= parent["ts"] + parent["dur"] + 1e-6


def test_write_chrome_trace_to_file_and_stream(tmp_path):
    session = _run_instrumented(concurrency=20)
    path = tmp_path / "trace.json"
    session.write_chrome_trace(str(path))
    buffer = io.StringIO()
    write_chrome_trace(buffer, session.tracer)
    on_disk = json.loads(path.read_text())
    assert on_disk == json.loads(buffer.getvalue())
    assert on_disk == json.loads(json.dumps(session.chrome_trace(), sort_keys=True))


# --------------------------------------------------------------------- #
# Prometheus text exposition
# --------------------------------------------------------------------- #
def test_prometheus_text_parses_and_matches_registry():
    session = _run_instrumented()
    text = session.prometheus_text()
    samples = parse_prometheus_text(text)
    assert samples  # something was exported
    # counters round-trip exactly
    ok = samples['propack_burst_attempt_outcomes_total{outcome="ok"}']
    assert ok == 200
    # histogram invariants: +Inf bucket equals _count
    count = samples['propack_instance_phase_seconds_count{phase="exec"}']
    inf_bucket = samples['propack_instance_phase_seconds_bucket{phase="exec",le="+Inf"}']
    assert count == inf_bucket == 200


def test_prometheus_histogram_buckets_are_cumulative():
    registry = MetricsRegistry()
    h = registry.histogram("propack_t_seconds", buckets=(1.0, 2.0, 4.0))
    for v in (0.5, 1.5, 3.0, 9.0):
        h.observe(v)
    samples = parse_prometheus_text(prometheus_text(registry))
    buckets = [
        samples['propack_t_seconds_bucket{le="1"}'],
        samples['propack_t_seconds_bucket{le="2"}'],
        samples['propack_t_seconds_bucket{le="4"}'],
        samples['propack_t_seconds_bucket{le="+Inf"}'],
    ]
    assert buckets == sorted(buckets) == [1, 2, 3, 4]
    assert samples["propack_t_seconds_sum"] == 14.0


# --------------------------------------------------------------------- #
# JSONL event log
# --------------------------------------------------------------------- #
def test_events_jsonl_round_trip():
    bus = EventBus()
    bus.publish("retry", 1.5, chain=3, delay=0.25)
    bus.publish("crash", 2.0, correlated=False)
    text = events_jsonl(bus.events)
    parsed = parse_events_jsonl(text)
    assert parsed == [
        {"kind": "retry", "time": 1.5, "chain": 3, "delay": 0.25},
        {"kind": "crash", "time": 2.0, "correlated": False},
    ]
    assert events_jsonl([]) == ""


# --------------------------------------------------------------------- #
# Determinism: same seed → byte-identical exports
# --------------------------------------------------------------------- #
def test_same_seed_exports_byte_identical():
    a, b = _run_instrumented(seed=9), _run_instrumented(seed=9)
    assert json.dumps(a.chrome_trace(), sort_keys=True) == json.dumps(
        b.chrome_trace(), sort_keys=True
    )
    assert a.prometheus_text() == b.prometheus_text()
    assert a.events_jsonl() == b.events_jsonl()


def test_different_seed_exports_differ():
    a, b = _run_instrumented(seed=9), _run_instrumented(seed=10)
    assert json.dumps(a.chrome_trace(), sort_keys=True) != json.dumps(
        b.chrome_trace(), sort_keys=True
    )


def test_empty_tracer_exports_cleanly():
    document = chrome_trace(Tracer())
    assert document == {"traceEvents": [], "displayTimeUnit": "ms"}
