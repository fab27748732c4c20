"""Serving runs whose arrivals tie, pinned to the last bit.

Arrivals here sit on a half-second grid, sorted and with duplicates, so
they tie with each other, with the 60 s control and remediation ticks and
with batch-timer deadlines (a deadline is an arrival time plus 0 or 2 s).
Every :class:`~repro.serving.service.ServingResult` field but the
dispatch log is folded into one fingerprint: floats by ``float.hex()``,
the digest's values in completion order, ``slo.bucket_series()``, the
resilience and backlog reports and the remediation timeline.
``backlog.mean_depth``, ``time_over_threshold_s`` and the audit counts
(which read the dispatch log) are pinned beside it, so a change in how
arrivals are merged with the run's other events shows up here as a named
number.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.chaos import InvariantAuditor
from repro.core.models import ExecutionTimeModel
from repro.faults.retry import ExponentialBackoffRetry
from repro.faults.scenario import FaultScenario
from repro.platform.providers import AWS_LAMBDA, GOOGLE_CLOUD_FUNCTIONS
from repro.remediation import RemediationConfig, RemediationLoop
from repro.resilience import (
    BrownoutController,
    CircuitBreakerBank,
    ConcurrencyLimitAdmission,
    ResiliencePolicy,
)
from repro.serving import (
    FixedTTL,
    OnlineReplanner,
    ServingConfig,
    ServingSimulator,
    StreamingPolicy,
    WarmPool,
    service,
)
from repro.serving.arrivals import ARRIVAL_STREAM, ArrivalProcess
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.workloads import XAPIAN

SEED = 2023
HORIZON_S = 600.0
EXEC = ExecutionTimeModel(coeff_a=XAPIAN.base_seconds, coeff_b=0.03, mem_gb=XAPIAN.mem_gb)


class GridArrivals(ArrivalProcess):
    """``rate × horizon`` arrivals at seeded half-second grid points."""

    def __init__(self, rate_per_s: float) -> None:
        self.rate_per_s = rate_per_s

    @property
    def mean_rate_per_s(self) -> float:
        return self.rate_per_s

    def sample(self, streams, horizon_s: float) -> np.ndarray:
        slots = streams.stream(ARRIVAL_STREAM).integers(
            0, int(2 * horizon_s), int(self.rate_per_s * horizon_s)
        )
        return np.sort(slots) * 0.5


def _canon(value):
    """JSON-ready form of a result: floats by ``hex()``, dataclasses by field."""
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_canon(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value):
        return {f.name: _canon(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return repr(value)


def fingerprint(result) -> str:
    """SHA-256 over every field of a ServingResult but ``dispatches``,
    exactly."""
    fields = {}
    for f in dataclasses.fields(result):
        if f.name == "dispatches":
            continue
        value = getattr(result, f.name)
        if f.name == "digest":
            value = value.values()
        elif f.name == "slo":
            value = (value.total, value.total_violations, value.bucket_series())
        fields[f.name] = _canon(value)
    blob = json.dumps(fields, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _protection(config: ServingConfig, degree: int, admission=None) -> ResiliencePolicy:
    """serving-storm's protection, scaled to the run's degree (``admission``
    replaces its admission controller)."""
    return ResiliencePolicy(
        admission=admission or ConcurrencyLimitAdmission(limit=8 * degree),
        breakers=CircuitBreakerBank(
            n_domains=config.fault_domains, rng=np.random.default_rng(SEED),
            failure_threshold=3, recovery_s=60.0,
        ),
        brownout=BrownoutController(
            violation_threshold=0.02, backlog_threshold=config.backlog_threshold,
            degree_boost=1.25,
        ),
    )


def _run(name: str, admission=None):
    """One configuration of the grid: (result, audit report or None). A
    storm may take its admission controller from ``admission``."""
    kind, degree, timeout = name.split("-")
    degree, timeout = int(degree[1:]), float(timeout[1:])
    policy = StreamingPolicy(degree=degree, batch_timeout_s=timeout)
    config = ServingConfig(qos_sojourn_s=30.0, backlog_threshold=6)
    kwargs = {"pool": WarmPool(FixedTTL(60.0)), "config": config, "seed": SEED}
    profile, rate = AWS_LAMBDA, 3.0
    if kind == "replan":
        kwargs["controller"] = OnlineReplanner(AWS_LAMBDA, XAPIAN, EXEC, 30.0)
    elif kind == "storm":
        profile, rate = GOOGLE_CLOUD_FUNCTIONS, 6.0
        kwargs.update(
            resilience=_protection(config, degree, admission),
            scenario=FaultScenario(
                name="tied-storm", crash_rate=0.08, persistent_fraction=0.05,
                poison_heal_s=300.0, throttle_capacity=30, throttle_refill_per_s=1.0,
                straggler_rate=0.005, correlated_bursts=2, correlated_fraction=0.5,
            ),
            retry_policy=ExponentialBackoffRetry(max_retries=3),
        )
    elif kind == "remedied":
        profile = GOOGLE_CLOUD_FUNCTIONS
        kwargs.update(
            resilience=ResiliencePolicy(
                admission=ConcurrencyLimitAdmission(limit=64),
                breakers=CircuitBreakerBank(
                    n_domains=config.fault_domains, rng=np.random.default_rng(SEED),
                    failure_threshold=5, recovery_s=45.0,
                ),
            ),
            scenario=FaultScenario(
                name="tied-remedied", crash_rate=0.05, correlated_bursts=2,
                correlated_fraction=0.5, correlated_window_s=120.0,
                persistent_fraction=0.5, poison_heal_s=600.0,
            ),
            retry_policy=ExponentialBackoffRetry(max_retries=3),
            remediation=RemediationLoop(RemediationConfig(
                tick_interval_s=60.0, shadow_horizon_s=120.0
            )),
        )
    simulator = ServingSimulator(profile, XAPIAN, EXEC, **kwargs)
    result = simulator.run(GridArrivals(rate), policy, HORIZON_S)
    report = None
    if kind == "storm":
        report = InvariantAuditor().finalize(result, breakers=simulator.resilience.breakers)
    return result, report


#: name -> (fingerprint, dispatches, mean_depth.hex(), time_over_threshold_s.hex(),
#: audit (events, checks, violations) or None)
PINNED = {
    "plain-d1-t0": ("96fbbdb8442e50f5", 1800, "0x0.0p+0", "0x0.0p+0", None),
    "plain-d8-t0": ("6364f8479c5a6f63", 932, "0x0.0p+0", "0x0.0p+0", None),
    "plain-d8-t2": ("0fdb7e7e3eaabcf5", 266, "0x1.56dee846739b2p+1", "0x1.d800000000000p+4", None),
    "replan-d1-t0": ("0e46eeeea9c9a869", 314, "0x1.596365cb92b13p+2", "0x1.ba248dc3651e0p+7", None),
    "replan-d8-t0": ("6760b3452a9f0b86", 231, "0x1.598975761b80ap+2", "0x1.ba248dc3651e0p+7", None),
    "replan-d8-t2": ("100c7e46bc263a59", 164, "0x1.691b8ece5a9b7p+2", "0x1.c6fe312f67b50p+7", None),
    "storm-d1-t0": ("d2943b9e63d1e4f0", 398, "0x0.0p+0", "0x0.0p+0", (398, 399, 0)),
    "storm-d8-t0": ("19f7b19759a6ddea", 612, "0x0.0p+0", "0x0.0p+0", (612, 613, 0)),
    "storm-d8-t2": ("761d16eefda76ac1", 292, "0x1.7a72e9316ee60p+1", "0x1.3c00000000000p+6", (292, 293, 0)),
    "remedied-d1-t0": ("cd0e407f883a0f5d", 428, "0x0.0p+0", "0x0.0p+0", None),
    "remedied-d8-t0": ("eb4df6134f35448a", 318, "0x0.0p+0", "0x0.0p+0", None),
    "remedied-d8-t2": ("b49b6bd01bef618e", 198, "0x1.581e71a5a6571p-1", "0x1.9000000000000p+3", None),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_tied_arrivals_pinned(name):
    result, report = _run(name)
    assert result.conserved()
    audit = None
    if report is not None:
        audit = (report.events_seen, report.checks_run, len(report.violations))
    got = (
        fingerprint(result),
        result.n_dispatches,
        result.backlog.mean_depth.hex(),
        result.backlog.time_over_threshold_s.hex(),
        audit,
    )
    assert got == PINNED[name]


def test_every_serving_event_absorbs_the_arrivals_due(monkeypatch):
    """Every callback a run puts on its simulator is wrapped by ``_event``:
    it absorbs the arrivals due before its body runs and re-picks the
    wake-up after, so a handler cannot skip either step."""
    callbacks = set()

    class Recording(Simulator):
        def step(self):
            head = self.next_entry()
            if head is not None:
                callbacks.add(head[2])
            return super().step()

    monkeypatch.setattr(service, "Simulator", Recording)
    for name in ("storm-d8-t2", "remedied-d8-t2", "replan-d8-t0"):
        _run(name)
    assert all(getattr(callback, "__wrapped__", None) for callback in callbacks)
    assert {callback.__name__ for callback in callbacks} == {
        "on_arrival", "timer_fired", "launch", "on_complete", "on_crash",
        "pump_fired", "on_correlated_event", "control_tick", "remediation_tick",
    }


class RecordingAdmission(ConcurrencyLimitAdmission):
    """An admission limit that records each time it is asked and its answer."""

    def __init__(self, limit: int) -> None:
        super().__init__(limit=limit)
        self.asked: list[tuple[float, bool]] = []

    def admit(self, now, priority, queue_depth, in_flight):
        admitted = super().admit(now, priority, queue_depth, in_flight)
        self.asked.append((now, admitted))
        return admitted


def test_admitted_arrivals_carry_their_own_times():
    """Admission decides an arrival at the arrival's own time, not at the
    clock of whatever event absorbed it, once per arrival brownout left."""
    admission = RecordingAdmission(limit=8 * 8)
    result, _ = _run("storm-d8-t2", admission=admission)
    assert fingerprint(result) == PINNED["storm-d8-t2"][0]
    times = iter(
        GridArrivals(6.0).sample(RandomStreams(SEED).spawn("serving/r0"), HORIZON_S).tolist()
    )
    asked = [t for t, _ in admission.asked]
    assert all(any(t == arrival for arrival in times) for t in asked)  # in order
    rep = result.resilience
    assert len(asked) == rep.arrivals - rep.shed_brownout
    assert sum(admitted for _, admitted in admission.asked) == rep.admitted


def test_grid_arrivals_tie():
    """The process really ties: with each other, with the ticks, at zero."""
    times = GridArrivals(3.0).sample(RandomStreams(SEED).spawn("serving/r0"), HORIZON_S)
    assert len(times) == 1800 and (np.diff(times) >= 0.0).all()
    assert times[0] == 0.0 and len(np.unique(times)) == 932
    assert np.isin(np.arange(1, 10) * 60.0, times).sum() == 7
