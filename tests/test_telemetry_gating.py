"""The zero-cost-when-disabled telemetry contract, structurally.

The timing benchmark (``test_perf_telemetry_disabled_is_free``) catches
overhead after the fact; these tests pin the *mechanisms* that keep the
hot path free: no EventBus is ever constructed for an uninstrumented run,
and the audit hooks guard on a precomputed "any auditor attached?" flag
that tracks the bus's subscription version instead of re-scanning
subscriptions per event.
"""

import pytest

from repro.chaos.auditor import InvariantAuditor
from repro.core.models import ExecutionTimeModel
from repro.extensions.streaming import StreamingPolicy
from repro.platform.base import ServerlessPlatform
from repro.platform.invoker import BurstSpec
from repro.platform.providers import AWS_LAMBDA
from repro.serving import FixedTTL, PoissonProcess, ServingSimulator, WarmPool
from repro.telemetry import EventBus, TelemetryConfig, TelemetrySession
from repro.telemetry.instruments import ServingInstrumentation
from repro.workloads import SORT, XAPIAN

_EXEC = ExecutionTimeModel(
    coeff_a=XAPIAN.base_seconds, coeff_b=0.03, mem_gb=XAPIAN.mem_gb
)


class _Clock:
    now = 0.0


def _instr(session):
    return ServingInstrumentation(
        tracer=None, registry=None, bus=session.bus, sim=_Clock(), name="t"
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
    """Belt and braces: even if a bus existed, the audit gate must keep
    publish() unreached when no auditor subscribed."""
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


def test_audit_gate_precomputed_flag_tracks_subscriptions():
    session = TelemetrySession(
        TelemetryConfig(tracing=False, metrics=False, events=False)
    )
    bus = session.bus
    instr = _instr(session)
    assert instr._audit_on is False  # no auditor yet

    auditor = InvariantAuditor().attach(bus)
    assert instr._refresh_audit_gate() is True
    assert instr._audit_on is True

    auditor.detach()
    assert instr._refresh_audit_gate() is False
    assert instr._audit_on is False


def test_audit_gate_refreshes_only_on_version_change():
    session = TelemetrySession(
        TelemetryConfig(tracing=False, metrics=False, events=False)
    )
    bus = session.bus
    instr = _instr(session)
    version = bus.subscriptions_version
    instr._refresh_audit_gate()
    assert instr._audit_version == version

    # No subscription churn: the cached verdict is reused as-is.
    assert instr._refresh_audit_gate() is False
    assert instr._audit_version == version

    bus.subscribe(lambda e: None, kind="unrelated.kind")
    assert bus.subscriptions_version > version
    # Refresh notices the bump but a non-audit subscription stays gated off.
    assert instr._refresh_audit_gate() is False
    assert instr._audit_version == bus.subscriptions_version


def test_subscriptions_version_bumps_on_subscribe_and_unsubscribe():
    bus = EventBus()
    v0 = bus.subscriptions_version
    unsub = bus.subscribe(lambda e: None, kind="audit.tick")
    v1 = bus.subscriptions_version
    assert v1 > v0
    unsub()
    assert bus.subscriptions_version > v1
    unsub()  # idempotent: second call must not bump again
    assert bus.subscriptions_version == v1 + 1


def test_mid_run_attach_detach_is_safe():
    """Attaching an auditor between events starts publication (next gate
    refresh) and detaching stops it, without breaking the run."""
    session = TelemetrySession(
        TelemetryConfig(tracing=False, metrics=False, events=False)
    )
    instr = _instr(session)
    seen = {"n": 0}

    auditor = InvariantAuditor().attach(session.bus)
    orig_events = auditor.report.events_seen
    instr._refresh_audit_gate()
    instr.on_arrival("admitted", 0.0)
    assert auditor.report.events_seen == orig_events + 1
    seen["after_attach"] = auditor.report.events_seen

    auditor.detach()
    instr._refresh_audit_gate()
    instr.on_arrival("admitted", 0.0)
    assert auditor.report.events_seen == seen["after_attach"]  # unchanged


def test_audit_gate_publishes_only_the_subscribed_kinds():
    """The cached verdict is per kind, as has_kind_subscribers answers it:
    a subscriber to one audit kind gets that kind and the others stay
    unpublished; a catch-all subscriber never opens the gate."""
    session = TelemetrySession(
        TelemetryConfig(tracing=False, metrics=False, events=False)
    )
    bus = session.bus
    instr = _instr(session)
    everything, ticks = [], []
    bus.subscribe(everything.append)
    instr.on_arrival("admitted", 0.0)
    instr.on_tick(backlog=3, violation_fraction=0.0)
    assert everything == [] and instr._audit_kinds == frozenset()

    unsubscribe = bus.subscribe(ticks.append, kind="audit.tick")
    instr.on_arrival("admitted", 0.0)  # the flag is stale until a tick
    instr.on_tick(backlog=3, violation_fraction=0.0)
    instr.on_arrival("admitted", 0.0)
    instr.on_fail_batch(2)
    assert instr._audit_kinds == frozenset({"audit.tick"})
    assert [e.kind for e in ticks] == ["audit.tick"]
    assert [e.kind for e in everything] == ["audit.tick", "batch.failed"]

    unsubscribe()
    instr.on_tick(backlog=3, violation_fraction=0.0)
    assert len(ticks) == 1 and instr._audit_kinds == frozenset()


def test_telemetry_event_is_an_immutable_value():
    bus = EventBus()
    a = bus.publish("audit.dispatch", 1.5, dispatch=3, batch=2)
    b = bus.publish("audit.dispatch", 1.5, batch=2, dispatch=3)
    assert a == b and hash(a) == hash(b)
    assert a != bus.publish("audit.dispatch", 1.5, batch=2, dispatch=4)
    assert (a.kind, a.time, a.fields) == ("audit.dispatch", 1.5, (("batch", 2), ("dispatch", 3)))
    assert a.get("batch") == 2 and a.get("missing", "x") == "x"
    assert a.as_dict() == {"kind": "audit.dispatch", "time": 1.5, "batch": 2, "dispatch": 3}
    for attr in ("kind", "time", "fields"):
        with pytest.raises(AttributeError):
            setattr(a, attr, None)
