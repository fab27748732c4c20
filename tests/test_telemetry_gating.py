"""The zero-cost-when-disabled telemetry contract, structurally.

The timing benchmarks (``test_perf_telemetry_disabled_is_free``,
``test_perf_auditor_disabled_is_free``) catch overhead after the fact;
these tests pin the *mechanisms* that keep the hot path free: no EventBus
is ever constructed for an uninstrumented run, and a session whose run
has nothing to report publishes nothing.
"""

import pytest

from repro.core.models import ExecutionTimeModel
from repro.extensions.streaming import StreamingPolicy
from repro.platform.base import ServerlessPlatform
from repro.platform.invoker import BurstSpec
from repro.platform.providers import AWS_LAMBDA
from repro.serving import FixedTTL, PoissonProcess, ServingSimulator, WarmPool
from repro.telemetry import EventBus, TelemetryConfig, TelemetrySession
from repro.workloads import SORT, XAPIAN

_EXEC = ExecutionTimeModel(
    coeff_a=XAPIAN.base_seconds, coeff_b=0.03, mem_gb=XAPIAN.mem_gb
)


def _count_bus_allocations(monkeypatch):
    counter = {"n": 0}
    orig = EventBus.__init__

    def counting_init(self, *args, **kwargs):
        counter["n"] += 1
        orig(self, *args, **kwargs)

    monkeypatch.setattr(EventBus, "__init__", counting_init)
    return counter


def test_disabled_telemetry_allocates_no_event_bus(monkeypatch):
    """telemetry=None runs — burst and serving — must construct zero
    EventBus objects (the regression this guards: an instrumentation
    object eagerly building a bus 'just in case')."""
    counter = _count_bus_allocations(monkeypatch)

    platform = ServerlessPlatform(AWS_LAMBDA, seed=5, telemetry=None)
    platform.run_burst(BurstSpec(app=SORT, concurrency=200))

    sim = ServingSimulator(
        AWS_LAMBDA, XAPIAN, _EXEC, pool=WarmPool(FixedTTL(60.0)), seed=7,
        telemetry=None,
    )
    sim.run(PoissonProcess(4.0), StreamingPolicy(degree=4, batch_timeout_s=2.0), 300.0)

    assert counter["n"] == 0


def test_disabled_telemetry_publishes_nothing(monkeypatch):
    """Belt and braces: a bus-only session on a fault-free run without
    remediation has no event to publish, so publish() stays unreached."""
    published = {"n": 0}
    orig = EventBus.publish

    def counting_publish(self, *args, **kwargs):
        published["n"] += 1
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(EventBus, "publish", counting_publish)
    session = TelemetrySession(
        TelemetryConfig(tracing=False, metrics=False, events=False)
    )
    sim = ServingSimulator(
        AWS_LAMBDA, XAPIAN, _EXEC, pool=WarmPool(FixedTTL(60.0)), seed=7,
        telemetry=session,
    )
    sim.run(PoissonProcess(4.0), StreamingPolicy(degree=4, batch_timeout_s=2.0), 300.0)
    assert published["n"] == 0


def test_telemetry_event_is_an_immutable_value():
    bus = EventBus()
    a = bus.publish("dispatch.crash", 1.5, dispatch=3, batch=2)
    b = bus.publish("dispatch.crash", 1.5, batch=2, dispatch=3)
    assert a == b and hash(a) == hash(b)
    assert a != bus.publish("dispatch.crash", 1.5, batch=2, dispatch=4)
    assert (a.kind, a.time, a.fields) == ("dispatch.crash", 1.5, (("batch", 2), ("dispatch", 3)))
    assert a.get("batch") == 2 and a.get("missing", "x") == "x"
    assert a.as_dict() == {"kind": "dispatch.crash", "time": 1.5, "batch": 2, "dispatch": 3}
    for attr in ("kind", "time", "fields"):
        with pytest.raises(AttributeError):
            setattr(a, attr, None)
