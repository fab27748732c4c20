"""The invariant auditor: the invariant library over a finished serving run.

An audited run runs exactly the code an unaudited one runs. The run
records each dispatch once, when it ends, in ``ServingResult.dispatches``,
and :meth:`InvariantAuditor.finalize` checks that log and the rest of the
result afterwards, through :func:`~repro.chaos.invariants.serving_violations`:
dispatch lifecycle (every dispatch launched ends exactly once), launch
times in id order, billed >= executed on every attempt, request and
admission conservation, the expense breakdown, and, when given, breaker
legality, remediation pairing and span nesting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.chaos.invariants import Violation, serving_violations


@dataclass
class AuditReport:
    """What one audited run looked like to the auditor.

    ``events_seen`` counts the dispatch records read; ``checks_run`` counts
    one check per record and one for the end-of-run checks.
    """

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
    """Checks a finished serving run against the invariant library.

    Usage::

        result = ServingSimulator(...).run(...)
        report = InvariantAuditor().finalize(result, breakers=policy.breakers)
    """

    def __init__(self) -> None:
        self.report = AuditReport()
        self._finalized = False

    def attach(self, bus: Any) -> "InvariantAuditor":
        """Return the auditor; it subscribes to nothing on ``bus``.

        Kept only for ``bench/workloads.py``, which still calls it.
        """
        return self

    def finalize(
        self,
        result: Any = None,
        breakers: Any = None,
        tracer: Any = None,
    ) -> AuditReport:
        """Check ``result`` with :func:`serving_violations`. Idempotent: the
        first call fills the report, and every call returns it."""
        if not self._finalized:
            self._finalized = True
            if result is not None:
                report = self.report
                report.events_seen = len(result.dispatches)
                report.checks_run = report.events_seen + 1
                report.violations.extend(
                    serving_violations(result, breakers=breakers, tracer=tracer)
                )
        return self.report
