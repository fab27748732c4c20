"""The invariant library: conservation and legality checks in one place.

Every identity that makes a serving result *trustworthy* used to live in
docstrings (``arrivals == admitted + shed`` in ``serving/service.py``) and
scattered test assertions. This module is now the single home: the test
suites call :func:`assert_serving_invariants` and :func:`burst_violations`,
the :class:`~repro.chaos.auditor.InvariantAuditor` runs
:func:`serving_violations` on the finished run, and the chaos search scores
storms by what they break — so the simulator and its auditors can never
drift apart.

Catalog (see ``docs/CHAOS.md``):

=====================  ==================================================
invariant              statement
=====================  ==================================================
admission-conservation arrivals == admitted + shed (exact, integer)
request-conservation   arrivals == completed + shed + failed after drain;
                       the completed dispatches carried exactly the
                       completed requests, none with a negative sojourn
expense-breakdown      every component finite and >= 0; a reported total
                       equals the component sum
billing-legality       billed seconds >= executed seconds (providers
                       never bill less than the work they ran)
breaker-legality       per-domain transition chains use only legal edges
                       (closed->open, open->half-open, half-open->closed,
                       half-open->open) with continuous src/dst linkage
                       and non-decreasing times
remediation-pairing    every rollback undoes exactly one earlier apply
span-nesting           a child span lies inside its parent's interval;
                       every span closes with end >= start
sim-time-monotonic     dispatch launch times never decrease in id order
dispatch-lifecycle     every dispatch launched ends exactly once, carries
                       at least one request and ends no earlier than it
                       was launched
burst-phase-order      a burst record's set timestamps follow its phases
                       (invoke, place and build, ship, start, end)
burst-conservation     one first attempt per function group; completed
                       plus lost functions equal the concurrency
tenant-conservation    per-tenant submitted == admitted + rejected, all
                       counters non-negative (exact, integer)
billing-attribution    per-tenant bills are finite and >= 0, and their
                       sum equals the fleet's reported expense total
=====================  ==================================================

All checks are pure functions returning :class:`Violation` lists — no
simulator imports, so the library is usable from tests, the auditor, and
offline analysis alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

import numpy as np

#: Absolute slack for float comparisons (sim arithmetic is double-precision
#: exact per seed; the epsilon only forgives representation noise).
EPS = 1e-9

#: Legal circuit-breaker state transitions (src, dst).
LEGAL_BREAKER_EDGES = frozenset(
    {
        ("closed", "open"),
        ("open", "half-open"),
        ("half-open", "closed"),
        ("half-open", "open"),
    }
)


@dataclass(frozen=True)
class Violation:
    """One broken invariant, pinned to sim time."""

    invariant: str
    time: float
    message: str

    def __str__(self) -> str:
        return f"[{self.invariant} @ t={self.time:g}] {self.message}"


# --------------------------------------------------------------------- #
# conservation
# --------------------------------------------------------------------- #
def check_admission_conservation(report: Any, time: float = 0.0) -> list[Violation]:
    """``arrivals == admitted + shed`` on a :class:`ResilienceReport`."""
    if report.arrivals == report.admitted + report.shed:
        return []
    return [
        Violation(
            "admission-conservation",
            time,
            f"arrivals={report.arrivals} != admitted={report.admitted} "
            f"+ shed={report.shed}",
        )
    ]


def check_request_conservation(result: Any, time: float = 0.0) -> list[Violation]:
    """``arrivals == completed + shed + failed`` on a drained ServingResult."""
    total = result.n_completed + result.n_shed + result.n_failed
    if result.n_requests == total:
        return []
    return [
        Violation(
            "request-conservation",
            time,
            f"n_requests={result.n_requests} != completed={result.n_completed} "
            f"+ shed={result.n_shed} + failed={result.n_failed}",
        )
    ]


# --------------------------------------------------------------------- #
# billing
# --------------------------------------------------------------------- #
def check_expense_breakdown(
    expense: Any,
    reported_total: Optional[float] = None,
    time: float = 0.0,
) -> list[Violation]:
    """Component sanity plus an optional cross-check of a reported total.

    The components must be finite and non-negative; when a separately
    *reported* total is supplied (a summary scalar, a ledger entry), it
    must equal the component sum — the planted-bug test feeds a total that
    silently dropped a line item.
    """
    out: list[Violation] = []
    components = {
        "compute_usd": expense.compute_usd,
        "requests_usd": expense.requests_usd,
        "storage_usd": expense.storage_usd,
        "egress_usd": expense.egress_usd,
        "keepalive_usd": expense.keepalive_usd,
    }
    for name, value in components.items():
        if not math.isfinite(value) or value < 0.0:
            out.append(
                Violation(
                    "expense-breakdown", time, f"{name}={value!r} is not a legal charge"
                )
            )
    component_sum = sum(components.values())
    if reported_total is not None and not math.isclose(
        reported_total, component_sum, rel_tol=EPS, abs_tol=EPS
    ):
        out.append(
            Violation(
                "expense-breakdown",
                time,
                f"reported total {reported_total!r} != component sum "
                f"{component_sum!r}",
            )
        )
    return out


def check_billed_vs_executed(
    billed_s: float, exec_s: float, time: float = 0.0
) -> list[Violation]:
    """``billed >= executed``: a provider never bills less than it ran."""
    if billed_s + EPS >= exec_s:
        return []
    return [
        Violation(
            "billing-legality",
            time,
            f"billed {billed_s:g}s < executed {exec_s:g}s",
        )
    ]


# --------------------------------------------------------------------- #
# state machines
# --------------------------------------------------------------------- #
def check_breaker_transitions(
    log: Iterable[tuple[float, int, str, str]],
) -> list[Violation]:
    """Legality of a :meth:`CircuitBreakerBank.transition_log`.

    Three properties per domain: every edge is in
    :data:`LEGAL_BREAKER_EDGES`; consecutive transitions chain (the next
    edge's source is the previous edge's destination, starting from
    ``closed``); times never decrease.
    """
    out: list[Violation] = []
    state: dict[int, str] = {}
    last_t: dict[int, float] = {}
    for t, domain, src, dst in log:
        if (src, dst) not in LEGAL_BREAKER_EDGES:
            out.append(
                Violation(
                    "breaker-legality", t, f"domain {domain}: illegal edge {src}->{dst}"
                )
            )
        expected = state.get(domain, "closed")
        if src != expected:
            out.append(
                Violation(
                    "breaker-legality",
                    t,
                    f"domain {domain}: transition from {src!r} but the "
                    f"domain was {expected!r}",
                )
            )
        if t < last_t.get(domain, 0.0):
            out.append(
                Violation(
                    "breaker-legality",
                    t,
                    f"domain {domain}: transition time went backwards "
                    f"({last_t[domain]:g} -> {t:g})",
                )
            )
        state[domain] = dst
        last_t[domain] = t
    return out


def check_remediation_pairing(report: Any) -> list[Violation]:
    """Every rollback must undo exactly one *earlier* application.

    ``report`` is a :class:`~repro.remediation.loop.RemediationReport`:
    ``applications`` holds ``(t, action_signature)`` and ``rollbacks``
    holds ``(t, inverse_signature, original_signature)``. A rollback whose
    original was never applied (or already rolled back) is a pairing
    violation; so is a rollback stamped before its application.
    """
    out: list[Violation] = []
    open_applies: list[tuple[float, tuple]] = []
    events: list[tuple[float, int, str, tuple]] = []
    for t, sig in report.applications:
        events.append((t, 0, "apply", tuple(sig)))
    for t, _inv, orig in report.rollbacks:
        events.append((t, 1, "rollback", tuple(orig)))
    for t, _order, stage, sig in sorted(events, key=lambda e: (e[0], e[1])):
        if stage == "apply":
            open_applies.append((t, sig))
            continue
        for i, (applied_t, applied_sig) in enumerate(open_applies):
            if applied_sig == sig and applied_t <= t:
                del open_applies[i]
                break
        else:
            out.append(
                Violation(
                    "remediation-pairing",
                    t,
                    f"rollback of {sig!r} has no matching earlier apply",
                )
            )
    return out


# --------------------------------------------------------------------- #
# telemetry structure
# --------------------------------------------------------------------- #
def check_span_nesting(tracer: Any) -> list[Violation]:
    """Structural legality of a :class:`~repro.telemetry.tracer.Tracer`.

    Every span must close with ``end >= start``; every child must name an
    existing parent and lie inside the parent's closed interval.
    """
    out: list[Violation] = []
    by_id = {s.span_id: s for s in tracer.spans}
    for span in tracer.spans:
        if span.end is not None and span.end + EPS < span.start:
            out.append(
                Violation(
                    "span-nesting",
                    span.start,
                    f"span #{span.span_id} {span.name!r} ends before it starts "
                    f"({span.start:g} -> {span.end:g})",
                )
            )
        if span.parent_id is None:
            continue
        parent = by_id.get(span.parent_id)
        if parent is None:
            out.append(
                Violation(
                    "span-nesting",
                    span.start,
                    f"span #{span.span_id} {span.name!r} names missing parent "
                    f"#{span.parent_id}",
                )
            )
            continue
        if span.start + EPS < parent.start:
            out.append(
                Violation(
                    "span-nesting",
                    span.start,
                    f"child #{span.span_id} starts before parent "
                    f"#{parent.span_id} ({span.start:g} < {parent.start:g})",
                )
            )
        if (
            span.end is not None
            and parent.end is not None
            and span.end > parent.end + EPS
        ):
            out.append(
                Violation(
                    "span-nesting",
                    span.end,
                    f"child #{span.span_id} ends after parent "
                    f"#{parent.span_id} ({span.end:g} > {parent.end:g})",
                )
            )
    return out


def check_monotonic_times(times: Sequence[float]) -> list[Violation]:
    """Times, in the order something happened, must never decrease."""
    out: list[Violation] = []
    for prev, cur in zip(times, times[1:]):
        if cur + EPS < prev:
            out.append(
                Violation(
                    "sim-time-monotonic",
                    cur,
                    f"event time went backwards ({prev:g} -> {cur:g})",
                )
            )
    return out


# --------------------------------------------------------------------- #
# the finished run's logs
# --------------------------------------------------------------------- #
def check_dispatch_log(result: Any) -> list[Violation]:
    """A ServingResult's dispatch log, ``result.dispatches``, record by record.

    Each record is one dispatch, written when it ended, in dispatch-id
    order. dispatch-lifecycle: the ids are exactly ``0 … n_dispatches − 1``,
    each once, so a dispatch that never ended, ended twice or was never
    launched shows; every batch holds a request and no dispatch ends before
    its launch. sim-time-monotonic: launch times never decrease in id
    order (ids are handed out at launch). billing-legality: every attempt,
    completed, crashed or killed, billed at least what it executed.
    request-conservation: the completed dispatches' batches add up to the
    completed requests, and no sojourn is negative.
    """
    out: list[Violation] = []
    records = result.dispatches
    n = result.n_dispatches
    seen: set[int] = set()
    for r in records:
        if not 0 <= r.dispatch < n:
            out.append(Violation(
                "dispatch-lifecycle", r.ended_at,
                f"dispatch {r.dispatch} ended but was never launched "
                f"({n} dispatches)",
            ))
        elif r.dispatch in seen:
            out.append(Violation(
                "dispatch-lifecycle", r.ended_at,
                f"dispatch {r.dispatch} ended twice",
            ))
        seen.add(r.dispatch)
        if r.batch < 1:
            out.append(Violation(
                "dispatch-lifecycle", r.ended_at,
                f"dispatch {r.dispatch} carries batch={r.batch}",
            ))
        if r.ended_at + EPS < r.launched_at:
            out.append(Violation(
                "dispatch-lifecycle", r.ended_at,
                f"dispatch {r.dispatch} ended at t={r.ended_at:g} before its "
                f"launch at t={r.launched_at:g}",
            ))
        out.extend(check_billed_vs_executed(r.billed_s, r.exec_s, r.ended_at))
    end = max((r.ended_at for r in records), default=0.0)
    for dispatch in sorted(set(range(n)) - seen):
        out.append(Violation(
            "dispatch-lifecycle", end, f"dispatch {dispatch} never ended",
        ))
    out.extend(check_monotonic_times([r.launched_at for r in records]))
    served = sum(r.batch for r in records if r.outcome == "ok")
    if served != result.n_completed:
        out.append(Violation(
            "request-conservation", end,
            f"completed dispatches carried {served} requests but "
            f"{result.n_completed} completed",
        ))
    sojourns = result.digest.values()
    negative = sojourns[sojourns < 0.0]
    if len(negative):
        out.append(Violation(
            "request-conservation", end,
            f"negative sojourns: {len(negative)} (min {negative.min():g}s)",
        ))
    return out


def burst_violations(spec: Any, result: Any) -> list[Violation]:
    """Every invariant applicable to one finished burst.

    ``result`` is a :class:`~repro.platform.metrics.RunResult` of ``spec``,
    from either path. Times are relative to the burst's invocation, so the
    violations carry burst time.

    * burst-phase-order: each record's set timestamps (NaN is unset) are in
      the order its phases run: placement and build both start at
      invocation, shipping follows both, then execution starts and ends;
    * burst-conservation: each of the ``ceil(C/P)`` function groups has at
      most one first attempt (attempt 1, not a hedge), and only a group lost
      to a final 429 before its first attempt has none; the completed
      attempts' functions plus the lost functions equal C;
    * expense-breakdown: the bill is legal.
    """
    out: list[Violation] = []
    table = result.table
    phases = (
        ("invoked_at", "sched_done"), ("invoked_at", "built_at"),
        ("sched_done", "shipped_at"), ("built_at", "shipped_at"),
        ("shipped_at", "exec_start"), ("exec_start", "exec_end"),
    )
    for first, then in phases:
        a, b = getattr(table, first), getattr(table, then)
        for i in np.flatnonzero(a > b + EPS).tolist():
            out.append(Violation(
                "burst-phase-order", float(b[i]),
                f"instance {int(table.instance_id[i])}: {then}={b[i]:g} "
                f"before {first}={a[i]:g}",
            ))
    groups = -(-spec.concurrency // spec.packing_degree)
    first_attempts = int(np.count_nonzero((table.attempt == 1) & ~table.hedged))
    unadmitted = groups - first_attempts
    if not 0 <= unadmitted <= result.fault_stats.throttle_rejections_final:
        out.append(Violation(
            "burst-conservation", 0.0,
            f"{first_attempts} first attempts for {groups} function groups "
            f"({result.fault_stats.throttle_rejections_final} lost to a "
            f"final 429)",
        ))
    done = int(table.n_packed[table.successful()].sum())
    if done + result.lost_functions != spec.concurrency:
        out.append(Violation(
            "burst-conservation", 0.0,
            f"completed {done} + lost {result.lost_functions} functions "
            f"!= C={spec.concurrency}",
        ))
    out.extend(
        check_expense_breakdown(result.expense, reported_total=result.expense.total_usd)
    )
    return out


# --------------------------------------------------------------------- #
# the one entry point the test suites use
# --------------------------------------------------------------------- #
def serving_violations(
    result: Any,
    breakers: Any = None,
    tracer: Any = None,
) -> list[Violation]:
    """Every end-of-run invariant applicable to one ServingResult."""
    out: list[Violation] = []
    out.extend(check_admission_conservation(result.resilience))
    out.extend(check_request_conservation(result))
    out.extend(check_dispatch_log(result))
    out.extend(
        check_expense_breakdown(result.expense, reported_total=result.expense.total_usd)
    )
    if breakers is not None:
        out.extend(check_breaker_transitions(breakers.transition_log()))
    if result.remediation is not None:
        out.extend(check_remediation_pairing(result.remediation))
    if tracer is not None:
        out.extend(check_span_nesting(tracer))
    return out


def assert_serving_invariants(
    result: Any,
    breakers: Any = None,
    tracer: Any = None,
) -> None:
    """Raise ``AssertionError`` listing every violated invariant.

    The conservation tests across the serving/resilience/remediation
    suites call this instead of re-deriving the identities inline, so the
    checked algebra is byte-for-byte the auditor's.
    """
    violations = serving_violations(result, breakers=breakers, tracer=tracer)
    assert not violations, "invariant violations:\n" + "\n".join(
        str(v) for v in violations
    )


# --------------------------------------------------------------------- #
# multi-tenant fleet fairness (SharedFleet / FusedFleet ledgers)
# --------------------------------------------------------------------- #
def check_tenant_conservation(
    accounts: Iterable[Any], time: float = 0.0
) -> list[Violation]:
    """Per tenant: ``submitted == admitted + rejected``, counters >= 0.

    Accepts any iterable of ledger entries with ``tenant``/``submitted``/
    ``admitted``/``rejected`` attributes (duck-typed — both
    :class:`repro.platform.multitenant.FleetAccount` ledgers and fused
    fleets qualify; no fleet imports here).
    """
    out: list[Violation] = []
    for account in accounts:
        counters = (account.submitted, account.admitted, account.rejected)
        if any(c < 0 for c in counters):
            out.append(
                Violation(
                    "tenant-conservation",
                    time,
                    f"tenant {account.tenant!r} has a negative counter "
                    f"(submitted={account.submitted}, "
                    f"admitted={account.admitted}, "
                    f"rejected={account.rejected})",
                )
            )
        if account.submitted != account.admitted + account.rejected:
            out.append(
                Violation(
                    "tenant-conservation",
                    time,
                    f"tenant {account.tenant!r}: submitted "
                    f"{account.submitted} != admitted {account.admitted} "
                    f"+ rejected {account.rejected}",
                )
            )
    return out


def check_tenant_billing_attribution(
    total_usd: float, bills: Iterable[Any], time: float = 0.0
) -> list[Violation]:
    """Per-tenant bills are finite, non-negative, and sum to the total.

    ``bills`` is any iterable with ``tenant``/``total_usd`` attributes
    (e.g. :class:`repro.fusion.scheduler.TenantBill`). The platform must
    never invent or lose dollars when splitting a shared instance's cost.
    """
    out: list[Violation] = []
    billed = 0.0
    for bill in bills:
        value = bill.total_usd
        if not math.isfinite(value) or value < -EPS:
            out.append(
                Violation(
                    "billing-attribution",
                    time,
                    f"tenant {bill.tenant!r} bill is {value!r}",
                )
            )
            continue
        billed += value
    tolerance = EPS * max(1.0, abs(total_usd))
    if not math.isfinite(total_usd) or abs(billed - total_usd) > tolerance:
        out.append(
            Violation(
                "billing-attribution",
                time,
                f"tenant bills sum to {billed!r} but the fleet reported "
                f"{total_usd!r}",
            )
        )
    return out


def fleet_violations(report: Any) -> list[Violation]:
    """Every end-of-run invariant applicable to one fused-fleet run.

    Duck-typed against :class:`repro.fusion.fleet.FleetRunReport`:
    ``accounts`` (tenant -> ledger), ``report.bills``, ``expense_usd``,
    and the inner run's expense breakdown.
    """
    out: list[Violation] = []
    out.extend(check_tenant_conservation(report.accounts.values()))
    out.extend(
        check_tenant_billing_attribution(report.expense_usd, report.report.bills)
    )
    out.extend(
        check_expense_breakdown(
            report.report.expense, reported_total=report.expense_usd
        )
    )
    return out


def assert_fleet_invariants(report: Any) -> None:
    """Raise ``AssertionError`` listing every violated fleet invariant."""
    violations = fleet_violations(report)
    assert not violations, "invariant violations:\n" + "\n".join(
        str(v) for v in violations
    )
