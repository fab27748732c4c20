"""The invariant auditor: checks over a finished serving run.

Two families: planted-bug tests take a real run's result, plant one
defect in its dispatch log (or its digest, or its remediation timeline)
and assert the auditor reports exactly that invariant; integration tests
audit real serving runs and require a clean bill (the auditor must never
cry wolf on the actual engine) while proving that auditing changes
nothing the run does or exports.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.chaos import InvariantAuditor
from repro.core.models import ExecutionTimeModel
from repro.extensions.streaming import StreamingPolicy
from repro.faults.retry import ExponentialBackoffRetry
from repro.faults.scenario import SCENARIOS
from repro.platform.providers import GOOGLE_CLOUD_FUNCTIONS
from repro.resilience import (
    CircuitBreakerBank,
    ConcurrencyLimitAdmission,
    ResiliencePolicy,
)
from repro.serving import (
    FixedTTL,
    PoissonProcess,
    QuantileDigest,
    ServingConfig,
    ServingSimulator,
    WarmPool,
)
from repro.telemetry.bus import EventBus
from repro.telemetry.config import TelemetryConfig, TelemetrySession
from repro.workloads import XAPIAN

EXEC = ExecutionTimeModel(
    coeff_a=XAPIAN.base_seconds, coeff_b=0.03, mem_gb=XAPIAN.mem_gb
)
POLICY = StreamingPolicy(degree=4, batch_timeout_s=2.0)


def run_with_session(session, scenario_name="stormy", protected=True, seed=7):
    cfg = ServingConfig()
    resilience = None
    if protected:
        resilience = ResiliencePolicy(
            admission=ConcurrencyLimitAdmission(limit=48),
            breakers=CircuitBreakerBank(
                n_domains=cfg.fault_domains,
                rng=np.random.default_rng(seed),
                failure_threshold=3,
                recovery_s=60.0,
            ),
        )
    sim = ServingSimulator(
        GOOGLE_CLOUD_FUNCTIONS,
        XAPIAN,
        EXEC,
        pool=WarmPool(FixedTTL(120.0)),
        config=cfg,
        resilience=resilience,
        scenario=SCENARIOS[scenario_name],
        retry_policy=ExponentialBackoffRetry(max_retries=3),
        seed=seed,
        telemetry=session,
    )
    run = sim.run(PoissonProcess(3.0), POLICY, 400.0)
    return run, resilience


# --------------------------------------------------------------------- #
# planted bugs in a finished run
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def stormy():
    """A real stormy run: its log holds completions, crashes and kills."""
    run, _ = run_with_session(None)
    assert {r.outcome for r in run.dispatches} == {"ok", "crash", "killed"}
    return run


def planted(run, **changes):
    """``run`` with some fields replaced; the run itself is left as is."""
    return dataclasses.replace(run, **changes)


def audit(run):
    return InvariantAuditor().finalize(run)


def first(log, outcome):
    """Index of the first record of ``log`` with ``outcome``."""
    return next(i for i, r in enumerate(log) if r.outcome == outcome)


def test_clean_lifecycle_is_clean(stormy):
    report = audit(stormy)
    assert report.ok, report.summary()
    assert report.events_seen == len(stormy.dispatches) == stormy.n_dispatches
    assert report.checks_run == report.events_seen + 1
    assert [r.dispatch for r in stormy.dispatches] == list(range(stormy.n_dispatches))


def test_billed_below_executed_is_flagged(stormy):
    log = list(stormy.dispatches)
    i = first(log, "ok")
    log[i] = log[i]._replace(billed_s=log[i].exec_s / 2)
    assert audit(planted(stormy, dispatches=log)).violation_kinds() == [
        "billing-legality"
    ]


def test_billed_below_executed_on_a_crash_is_flagged(stormy):
    """Crashed attempts are billed too, and checked too."""
    log = list(stormy.dispatches)
    i = next(i for i, r in enumerate(log) if r.outcome == "crash" and r.exec_s > 0)
    log[i] = log[i]._replace(billed_s=log[i].exec_s / 2)
    report = audit(planted(stormy, dispatches=log))
    assert report.violation_kinds() == ["billing-legality"]
    assert len(report.violations) == 1


def test_double_launch_and_unknown_termination(stormy):
    """A dispatch that ends twice, and one that ends but was never
    launched, each show once."""
    log = list(stormy.dispatches)
    i = first(log, "crash")
    crash = log[i]
    log[i + 1:i + 1] = [crash, crash._replace(dispatch=stormy.n_dispatches)]
    report = audit(planted(stormy, dispatches=log))
    assert [v.invariant for v in report.violations] == ["dispatch-lifecycle"] * 2
    assert "ended twice" in report.violations[0].message
    assert "never launched" in report.violations[1].message


def test_never_terminated_dispatch_flagged_at_finalize(stormy):
    log = list(stormy.dispatches)
    missing = log.pop(first(log, "crash"))
    report = audit(planted(stormy, dispatches=log))
    assert report.violation_kinds() == ["dispatch-lifecycle"]
    assert report.violations[0].message == f"dispatch {missing.dispatch} never ended"


def test_dispatch_ending_before_its_launch_or_carrying_nothing(stormy):
    log = list(stormy.dispatches)
    i = first(log, "crash")
    j = first(log[i + 1:], "crash") + i + 1
    log[i] = log[i]._replace(ended_at=log[i].launched_at - 1.0)
    log[j] = log[j]._replace(batch=0)
    report = audit(planted(stormy, dispatches=log))
    assert [v.invariant for v in report.violations] == ["dispatch-lifecycle"] * 2
    assert "before its launch" in report.violations[0].message
    assert "batch=0" in report.violations[1].message


def test_time_reversal_is_flagged(stormy):
    """Launch times go backwards between two dispatch ids."""
    log = list(stormy.dispatches)
    log[10] = log[10]._replace(launched_at=log[9].launched_at - 1.0)
    report = audit(planted(stormy, dispatches=log))
    assert report.violation_kinds() == ["sim-time-monotonic"]
    assert len(report.violations) == 1


def test_completion_with_wrong_batch_size(stormy):
    """A completed dispatch that carried more requests than were served."""
    log = list(stormy.dispatches)
    i = first(log, "ok")
    log[i] = log[i]._replace(batch=log[i].batch + 1)
    report = audit(planted(stormy, dispatches=log))
    assert report.violation_kinds() == ["request-conservation"]


def test_negative_sojourn_is_flagged(stormy):
    values = stormy.digest.values()
    values[3] = -values[3]
    digest = QuantileDigest()
    digest.add(*values)
    report = audit(planted(stormy, digest=digest))
    assert report.violation_kinds() == ["request-conservation"]
    assert "negative sojourns: 1" in report.violations[0].message


def test_rollback_without_apply(stormy):
    action = ("quarantine", 2)
    remediation = SimpleNamespace(
        applications=[(1.0, action)],
        rollbacks=[(2.0, ("release", 2), action), (3.0, ("release", 2), action)],
    )
    report = audit(planted(stormy, remediation=remediation))
    assert report.violation_kinds() == ["remediation-pairing"]
    assert len(report.violations) == 1


def test_finalize_is_idempotent(stormy):
    log = list(stormy.dispatches)
    log.pop(first(log, "crash"))
    auditor = InvariantAuditor()
    first_report = auditor.finalize(planted(stormy, dispatches=log))
    again = auditor.finalize(stormy)
    assert first_report is again
    assert len(again.violations) == 1


# --------------------------------------------------------------------- #
# real serving runs
# --------------------------------------------------------------------- #
def test_real_stormy_run_audits_clean():
    run, resilience = run_with_session(None)
    report = InvariantAuditor().finalize(run, breakers=resilience.breakers)
    assert report.ok, report.summary()
    assert report.events_seen == run.n_dispatches  # one record per dispatch


def test_no_auditor_means_no_audit_events():
    """A full-telemetry session logs no audit.* events, and the run is
    unchanged."""
    session = TelemetrySession(TelemetryConfig())
    run, _ = run_with_session(session)
    kinds = {e.kind for e in session.event_log.events}
    assert kinds  # the ordinary event families did flow
    assert not any(k.startswith("audit.") for k in kinds)

    # Byte-identity against a fully untelemetered run.
    bare, _ = run_with_session(None)
    assert bare.signature() == run.signature()


def test_audited_run_is_byte_identical_to_unaudited():
    """Attaching the auditor subscribes to nothing, so it cannot perturb
    the simulation. Signatures (counts, expense, p99, backlog) must match."""
    session = TelemetrySession(
        TelemetryConfig(tracing=False, metrics=False, events=False)
    )
    auditor = InvariantAuditor()
    assert auditor.attach(session.bus) is auditor
    assert vars(session.bus) == vars(EventBus())
    audited, _ = run_with_session(session)
    bare, _ = run_with_session(None)
    assert audited.signature() == bare.signature()
    assert audited.dispatches == bare.dispatches
