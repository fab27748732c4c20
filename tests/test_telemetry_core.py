"""Unit tests for the telemetry primitives: bus, tracer, metrics."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import (
    EventBus,
    MetricsRegistry,
    Span,
    TelemetryConfig,
    TelemetrySession,
    Tracer,
    resolve_session,
)
from repro.telemetry.instruments import PHASE_BUCKETS
from repro.telemetry.metrics import Histogram


# --------------------------------------------------------------------- #
# EventBus
# --------------------------------------------------------------------- #
def test_bus_logs_events_in_publication_order():
    bus = EventBus()
    retry = bus.publish("retry", 1.0, attempt=2)
    crash = bus.publish("crash", 0.5)
    assert bus.events == [retry, crash]
    assert [(e.kind, e.time) for e in bus.events] == [("retry", 1.0), ("crash", 0.5)]
    assert bus.dropped == 0


def test_event_fields_sorted_and_accessible():
    bus = EventBus()
    event = bus.publish("e", 3.0, zulu=1, alpha=2)
    assert event.fields == (("alpha", 2), ("zulu", 1))
    assert event.get("zulu") == 1
    assert event.get("missing", "d") == "d"
    assert event.as_dict() == {"kind": "e", "time": 3.0, "alpha": 2, "zulu": 1}


def test_event_log_bounded():
    bus = EventBus(capacity=2)
    for i in range(5):
        bus.publish("e", float(i))
    assert len(bus.events) == 2
    assert bus.dropped == 3
    assert [e.time for e in bus.events] == [0.0, 1.0]


# --------------------------------------------------------------------- #
# Tracer
# --------------------------------------------------------------------- #
def test_tracer_finished_filter():
    """``finished`` keeps the closed spans, optionally of one category."""
    tracer = Tracer()
    pid = tracer.new_process("run")
    sid = tracer.reserve_ids(3)
    tracer.spans += [
        Span(sid, "work", 1.0, "phase", 4.0, None, pid),
        Span(sid + 1, "dangling", 2.0, "phase", None, None, pid),
        Span(sid + 2, "root", 0.0, "instance", 5.0, None, pid),
    ]
    finished = tracer.finished("phase")
    assert [s.name for s in finished] == ["work"]
    assert finished[0].duration == 3.0
    assert [s.name for s in tracer.finished()] == ["work", "root"]
    assert not tracer.spans[1].closed
    with pytest.raises(ValueError, match="still open"):
        tracer.spans[1].duration


def test_tracer_span_ids_reset_on_clear():
    tracer = Tracer()
    first = tracer.reserve_ids(2)
    assert tracer.reserve_ids(1) == first + 2
    tracer.new_process("run")
    tracer.clear()
    assert (first, tracer.reserve_ids(1)) == (1, 1)
    assert tracer.new_process("next") == 1


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #
def test_counter_monotonic():
    reg = MetricsRegistry()
    ctr = reg.counter("propack_test_total")
    ctr.inc()
    ctr.inc(3)
    assert ctr.value == 4
    with pytest.raises(ValueError):
        ctr.inc(-1)


def test_gauge_moves_both_ways():
    reg = MetricsRegistry()
    g = reg.gauge("propack_depth")
    g.set(5.0)
    g.inc(2.0)
    g.dec(3.0)
    assert g.value == 4.0


def test_histogram_buckets_and_cumulative():
    reg = MetricsRegistry()
    h = reg.histogram("propack_lat_seconds", buckets=(0.1, 1.0, 10.0))
    for v in (0.05, 0.5, 0.5, 5.0, 50.0):
        h.observe(v)
    assert h.count == 5
    assert h.sum == pytest.approx(56.05)
    assert h.cumulative() == [1, 3, 4, 5]  # le=0.1, 1.0, 10.0, +Inf


_SAMPLES = st.lists(
    st.one_of(
        st.sampled_from(PHASE_BUCKETS),  # exactly on a bound
        st.floats(-10.0, 1e4, allow_nan=False),
        st.sampled_from((0.0, 1e-300, 600.0000000000001, math.inf, -math.inf)),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(before=_SAMPLES, values=_SAMPLES)
def test_observe_many_equals_a_loop_of_observe(before, values):
    """Bucket counts, count and sum to the last bit, from a running total."""
    looped, bulk = Histogram(PHASE_BUCKETS), Histogram(PHASE_BUCKETS)
    for h in (looped, bulk):
        for v in before:
            h.observe(v)
    for v in values:
        looped.observe(v)
    bulk.observe_many(values)
    assert bulk.counts == looped.counts
    assert bulk.count == looped.count
    assert type(bulk.sum) is float
    if math.isnan(looped.sum):
        assert math.isnan(bulk.sum)
    else:
        assert bulk.sum.hex() == looped.sum.hex()


def test_observe_many_puts_nan_where_bisect_does():
    looped, bulk = Histogram((1.0, 2.0)), Histogram((1.0, 2.0))
    values = [1.0, 2.0, float("nan"), 3.0, 0.5]
    for v in values:
        looped.observe(v)
    bulk.observe_many(values)
    assert bulk.counts == looped.counts == [3, 1, 1]
    assert bulk.count == 5 and math.isnan(bulk.sum)
    bulk.observe_many([])  # no values: nothing changes
    assert bulk.counts == [3, 1, 1] and bulk.count == 5


def test_registry_get_or_create_and_conflicts():
    reg = MetricsRegistry()
    a = reg.counter("propack_x_total", verdict="ok")
    b = reg.counter("propack_x_total", verdict="ok")
    c = reg.counter("propack_x_total", verdict="bad")
    assert a is b and a is not c
    with pytest.raises(ValueError):
        reg.gauge("propack_x_total")  # kind conflict
    with pytest.raises(ValueError):
        reg.histogram("propack_h", buckets=(1.0, 2.0))
        reg.histogram("propack_h", buckets=(1.0, 3.0))  # bucket conflict
    with pytest.raises(ValueError):
        reg.counter("0-bad-name")


def test_registry_collect_is_sorted():
    reg = MetricsRegistry()
    reg.counter("propack_zzz_total")
    reg.counter("propack_aaa_total", b="2")
    reg.counter("propack_aaa_total", b="1")
    names = [name for name, _, _, _ in reg.collect()]
    assert names == sorted(names)
    rows = dict((name, rows) for name, _, _, rows in reg.collect())
    labels = [labels for labels, _ in rows["propack_aaa_total"]]
    assert labels == sorted(labels)


# --------------------------------------------------------------------- #
# Config / session plumbing
# --------------------------------------------------------------------- #
def test_disabled_config_yields_no_session():
    assert TelemetryConfig.off().session() is None
    assert TelemetryConfig(
        enabled=True, tracing=False, metrics=False, events=False
    ).session() is None
    assert resolve_session(None) is None
    assert resolve_session(TelemetryConfig.off()) is None


@pytest.mark.parametrize("bound", [0, -1, 2.5, "10"])
def test_max_events_is_none_or_a_positive_integer(bound):
    """A bound below 1 used to keep no event and say nothing: a faulted
    burst exported no JSONL line and counted every event dropped."""
    with pytest.raises(ValueError, match="max_events"):
        TelemetryConfig(max_events=bound)
    assert TelemetryConfig(max_events=None).max_events is None
    assert TelemetryConfig(max_events=1).session().bus.capacity == 1


def test_session_subsystem_toggles():
    session = TelemetryConfig(tracing=False, events=False).session()
    assert session.tracer is None and session.bus is None
    assert session.registry is not None
    with pytest.raises(ValueError):
        session.chrome_trace()
    with pytest.raises(ValueError):
        session.events_jsonl()
    assert session.prometheus_text() == "\n"  # empty registry renders cleanly


def test_resolve_session_passes_prebuilt_through():
    session = TelemetrySession()
    assert resolve_session(session) is session
