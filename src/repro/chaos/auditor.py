"""Runtime invariant auditor: online checks over the telemetry EventBus.

The auditor subscribes to the opt-in ``audit.*`` event family that
:class:`~repro.telemetry.instruments.ServingInstrumentation` offers on
every hook. Publication is gated on a precomputed "any auditor attached?"
flag (re-derived when the bus's subscription set changes; see
``ServingInstrumentation._refresh_audit_gate``) plus a per-kind check, so
a session without an auditor publishes nothing and allocates nothing — the zero-cost-when-disabled contract the telemetry
overhead benchmark enforces — and a session *with* one checks invariants
as the simulation runs, catching an accounting bug at the event where it
first becomes visible instead of in a post-mortem diff.

Online checks: sim-time monotonicity, dispatch lifecycle legality (launch
before terminate, terminate exactly once), running request conservation
(completed + failed never exceeds admitted; a completion never delivers
more requests than its dispatch carried), billed >= executed on every
completion, and remediation apply/rollback pairing. End-of-run checks
(:meth:`InvariantAuditor.finalize`) delegate to the shared library in
:mod:`repro.chaos.invariants`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.chaos.invariants import (
    EPS,
    Violation,
    serving_violations,
)

#: Every event kind the auditor subscribes to (and the instrumentation
#: offers). Kept in one tuple so instrumentation and auditor cannot drift.
AUDIT_KINDS: tuple[str, ...] = (
    "audit.arrival",
    "audit.dispatch",
    "audit.complete",
    "audit.crash",
    "audit.retry",
    "audit.throttled",
    "audit.fail",
    "audit.tick",
    "audit.remediation",
)

_ARRIVAL_VERDICTS = frozenset({"admitted", "shed-admission", "shed-brownout"})


@dataclass
class AuditReport:
    """What one audited run looked like to the auditor."""

    events_seen: int = 0
    checks_run: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_invariant(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for v in self.violations:
            counts[v.invariant] = counts.get(v.invariant, 0) + 1
        return dict(sorted(counts.items()))

    def violation_kinds(self) -> list[str]:
        return sorted({v.invariant for v in self.violations})

    def summary(self) -> str:
        if self.ok:
            return (
                f"audit clean: {self.events_seen} events, "
                f"{self.checks_run} checks, 0 violations"
            )
        kinds = ", ".join(
            f"{kind}×{n}" for kind, n in self.by_invariant().items()
        )
        return (
            f"audit FAILED: {len(self.violations)} violations "
            f"({kinds}) over {self.events_seen} events"
        )


class InvariantAuditor:
    """Subscribes to ``audit.*`` events and checks invariants online.

    Usage::

        session = TelemetrySession(TelemetryConfig(tracing=False,
                                                   metrics=False,
                                                   events=False))
        auditor = InvariantAuditor().attach(session.bus)
        sim = ServingSimulator(..., telemetry=session)
        result = sim.run(...)
        report = auditor.finalize(result, breakers=policy.breakers)

    ``detach()`` removes every subscription, restoring the bus to the
    publish-nothing state.
    """

    def __init__(self) -> None:
        self.report = AuditReport()
        self._unsubscribe: list[Any] = []
        self._last_time: Optional[float] = None
        # dispatch_id -> batch size, for lifecycle + conservation checks
        self._open_dispatches: dict[int, int] = {}
        self._arrivals = 0
        self._admitted = 0
        self._shed = 0
        self._completed = 0
        self._failed = 0
        # remediation pairing: action signature string -> open apply count
        self._open_applies: dict[str, int] = {}
        self._finalized = False

    # ------------------------------------------------------------------ #
    def attach(self, bus: Any) -> "InvariantAuditor":
        """Subscribe to every ``audit.*`` kind on ``bus`` (per-kind, never
        catch-all — the instrumentation's gate depends on that)."""
        handlers = {
            "audit.arrival": self._on_arrival,
            "audit.dispatch": self._on_dispatch,
            "audit.complete": self._on_complete,
            "audit.crash": self._on_crash,
            "audit.fail": self._on_fail,
            "audit.remediation": self._on_remediation,
        }
        for kind in AUDIT_KINDS:
            handler = handlers.get(kind, self._on_other)
            self._unsubscribe.append(bus.subscribe(self._wrap(handler), kind=kind))
        return self

    def detach(self) -> None:
        for unsub in self._unsubscribe:
            unsub()
        self._unsubscribe.clear()

    # ------------------------------------------------------------------ #
    def _wrap(self, handler):
        def observe(event) -> None:
            # Every event counts once and gets the sim-time monotonicity
            # check inline, before its kind's handler runs.
            report = self.report
            report.events_seen += 1
            report.checks_run += 1
            time, last = event.time, self._last_time
            if last is not None and time + EPS < last:
                self._violate(
                    "sim-time-monotonic",
                    time,
                    f"event {event.kind!r} at t={time:g} after t={last:g}",
                )
            self._last_time = time
            handler(event)

        return observe

    def _violate(self, invariant: str, time: float, message: str) -> None:
        self.report.violations.append(Violation(invariant, time, message))

    # ------------------------------------------------------------------ #
    def _on_arrival(self, event) -> None:
        self.report.checks_run += 1
        verdict = event.get("verdict")
        self._arrivals += 1
        if verdict == "admitted":
            self._admitted += 1
        elif verdict in _ARRIVAL_VERDICTS:
            self._shed += 1
        else:
            self._violate(
                "admission-conservation",
                event.time,
                f"unknown arrival verdict {verdict!r}",
            )
        if self._arrivals != self._admitted + self._shed:
            self._violate(
                "admission-conservation",
                event.time,
                f"arrivals={self._arrivals} != admitted={self._admitted} "
                f"+ shed={self._shed}",
            )

    def _on_dispatch(self, event) -> None:
        self.report.checks_run += 1
        dispatch = event.get("dispatch")
        batch = event.get("batch", 0)
        if dispatch in self._open_dispatches:
            self._violate(
                "dispatch-lifecycle",
                event.time,
                f"dispatch {dispatch} launched twice without terminating",
            )
        if batch < 1:
            self._violate(
                "dispatch-lifecycle",
                event.time,
                f"dispatch {dispatch} carries batch={batch}",
            )
        self._open_dispatches[dispatch] = batch

    def _terminate(self, event, outcome: str) -> Optional[int]:
        dispatch = event.get("dispatch")
        if dispatch not in self._open_dispatches:
            self._violate(
                "dispatch-lifecycle",
                event.time,
                f"{outcome} for dispatch {dispatch} that is not in flight",
            )
            return None
        return self._open_dispatches.pop(dispatch)

    def _on_complete(self, event) -> None:
        self.report.checks_run += 1
        batch = self._terminate(event, "completion")
        n = event.get("n", 0)
        if batch is not None and n != batch:
            self._violate(
                "request-conservation",
                event.time,
                f"dispatch {event.get('dispatch')} completed {n} requests "
                f"but carried {batch}",
            )
        self._completed += n
        exec_s = event.get("exec_s", -1.0)
        billed_s = event.get("billed_s", -1.0)
        if exec_s >= 0.0 and billed_s >= 0.0 and billed_s + EPS < exec_s:
            self._violate(
                "billing-legality",
                event.time,
                f"dispatch {event.get('dispatch')} billed {billed_s:g}s "
                f"< executed {exec_s:g}s",
            )
        self._check_running_conservation(event)

    def _on_crash(self, event) -> None:
        self.report.checks_run += 1
        self._terminate(event, "crash")

    def _on_fail(self, event) -> None:
        self.report.checks_run += 1
        self._failed += event.get("batch", 0)
        self._check_running_conservation(event)

    def _check_running_conservation(self, event) -> None:
        if self._completed + self._failed > self._admitted:
            self._violate(
                "request-conservation",
                event.time,
                f"completed={self._completed} + failed={self._failed} "
                f"exceeds admitted={self._admitted}",
            )

    def _on_remediation(self, event) -> None:
        self.report.checks_run += 1
        stage = event.get("stage")
        action = str(event.get("action", "?"))
        if stage == "apply":
            self._open_applies[action] = self._open_applies.get(action, 0) + 1
        elif stage == "rollback":
            if self._open_applies.get(action, 0) < 1:
                self._violate(
                    "remediation-pairing",
                    event.time,
                    f"rollback of {action!r} with no open apply",
                )
            else:
                self._open_applies[action] -= 1

    def _on_other(self, event) -> None:
        self.report.checks_run += 1  # monotonicity already ran in the wrap

    # ------------------------------------------------------------------ #
    def finalize(
        self,
        result: Any = None,
        breakers: Any = None,
        tracer: Any = None,
    ) -> AuditReport:
        """End-of-run pass: leftover in-flight dispatches plus the shared
        library checks from :mod:`repro.chaos.invariants`. Idempotent."""
        if not self._finalized:
            self._finalized = True
            now = self._last_time or 0.0
            for dispatch, batch in sorted(self._open_dispatches.items()):
                self._violate(
                    "dispatch-lifecycle",
                    now,
                    f"dispatch {dispatch} (batch={batch}) never terminated",
                )
            if result is not None:
                self.report.checks_run += 1
                self.report.violations.extend(
                    serving_violations(result, breakers=breakers, tracer=tracer)
                )
        return self.report
