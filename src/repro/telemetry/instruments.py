"""Instrumentation adapters between the simulators and the telemetry core.

The platform invoker and the serving loop stay almost telemetry-free: each
holds an optional instrumentation object and calls cheap, well-named hooks
(``on_placed``, ``on_exec_end``, …) behind an ``is not None`` guard. All
span bookkeeping, metric registration, and bus publishing lives here, so
the hot paths pay exactly one attribute check when telemetry is off.

Span model (see ``docs/OBSERVABILITY.md``):

* one *process* band per burst or serving run (``Tracer.new_process``),
* one *track* per instance (burst) or dispatch (serving),
* a root ``instance``/``dispatch`` span per track with child phase spans
  ``sched`` / ``build`` / ``ship`` / ``exec`` (bursts) keyed to sim time,
* instants for retries, throttle bounces, lost chains, correlated events.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.telemetry.metrics import MetricsRegistry

if TYPE_CHECKING:  # imported for annotations only; avoids heavy deps here
    from repro.telemetry.bus import EventBus
    from repro.telemetry.tracer import Span, Tracer

#: Histogram boundaries for per-phase durations (sub-second to minutes).
PHASE_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0,
    2.0, 5.0, 10.0, 30.0, 60.0, 180.0, 600.0,
)

#: Histogram boundaries for request sojourn times in the serving loop.
SOJOURN_BUCKETS: tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 15.0,
    30.0, 60.0, 120.0, 300.0, 600.0, 1800.0,
)


class BurstInstrumentation:
    """Per-burst tracing + metrics, driven by :class:`BurstInvoker` hooks."""

    def __init__(
        self,
        tracer: Optional["Tracer"],
        registry: Optional[MetricsRegistry],
        bus: Optional["EventBus"],
        sim,
        name: str,
    ) -> None:
        self.tracer = tracer
        self.bus = bus
        self.registry = registry
        self._now = lambda: sim.now  # bus events are published untraced too
        if tracer is not None:
            tracer.bind_clock(self._now)
            self.pid = tracer.new_process(name)
        self._roots: dict[int, Span] = {}
        self._phases: dict[int, dict[str, Span]] = {}
        self._m: dict[str, object] = {}
        if registry is not None:
            self._m = {
                "cold": registry.counter(
                    "propack_burst_instances_total",
                    help="Instances launched, by start type.", start="cold",
                ),
                "warm": registry.counter(
                    "propack_burst_instances_total", start="warm",
                ),
                "functions": registry.counter(
                    "propack_burst_functions_total",
                    help="Logical functions carried by launched instances.",
                ),
                "retries": registry.counter(
                    "propack_burst_retries_total",
                    help="Retry attempts scheduled after failed executions.",
                ),
                "throttled": registry.counter(
                    "propack_burst_throttled_total",
                    help="429-style admission bounces.",
                ),
                "hedges": registry.counter(
                    "propack_burst_hedges_total",
                    help="Speculative hedge attempts launched.",
                ),
                "lost": registry.counter(
                    "propack_burst_lost_functions_total",
                    help="Functions lost after exhausting retries.",
                ),
                "outcomes": {
                    outcome: registry.counter(
                        "propack_burst_attempt_outcomes_total",
                        help="Execution attempts by terminal outcome.",
                        outcome=outcome,
                    )
                    for outcome in ("ok", "crash", "timeout", "cancelled")
                },
                "phases": {
                    phase: registry.histogram(
                        "propack_instance_phase_seconds",
                        buckets=PHASE_BUCKETS,
                        help="Per-instance phase durations (sched/build/ship/exec).",
                        phase=phase,
                    )
                    for phase in ("sched", "build", "ship", "exec")
                },
            }

    # ------------------------------------------------------------------ #
    def on_invoked(self, record, warm: bool = False) -> None:
        if self._m:
            self._m["warm" if warm else "cold"].inc()
            self._m["functions"].inc(record.n_packed)
        if self.tracer is None:
            return
        root = self.tracer.start_span(
            f"instance#{record.instance_id}",
            category="instance",
            track=record.instance_id,
            n_packed=record.n_packed,
            attempt=record.attempt,
            hedged=record.hedged,
            warm=warm,
        )
        self._roots[record.instance_id] = root
        if not warm:
            self._phases[record.instance_id] = {
                "sched": self.tracer.start_span("sched", "phase", parent=root),
                "build": self.tracer.start_span("build", "phase", parent=root),
            }

    def _end_phase(self, record, phase: str) -> None:
        span = self._phases.get(record.instance_id, {}).pop(phase, None)
        if span is not None:
            self.tracer.end_span(span)

    def on_placed(self, record) -> None:
        if self.tracer is not None:
            self._end_phase(record, "sched")

    def on_built(self, record) -> None:
        if self.tracer is not None:
            self._end_phase(record, "build")

    def on_ship_begin(self, record) -> None:
        if self.tracer is None:
            return
        root = self._roots.get(record.instance_id)
        if root is not None:
            self._phases.setdefault(record.instance_id, {})["ship"] = (
                self.tracer.start_span("ship", "phase", parent=root)
            )

    def on_shipped(self, record) -> None:
        if self.tracer is not None:
            self._end_phase(record, "ship")

    def on_exec_begin(self, record) -> None:
        if self.tracer is None:
            return
        root = self._roots.get(record.instance_id)
        if root is not None:
            self._phases.setdefault(record.instance_id, {})["exec"] = (
                self.tracer.start_span("exec", "phase", parent=root)
            )

    def on_exec_end(self, record, outcome: str) -> None:
        """Terminal hook for every attempt that reached execution."""
        if self._m:
            self._m["outcomes"][outcome].inc()
            histograms = self._m["phases"]
            for phase, seconds in record.phase_durations().items():
                histograms[phase].observe(seconds)
        if outcome in ("crash", "timeout") and self.bus is not None:
            self.bus.publish(
                f"instance.{outcome}",
                self._now(),
                instance=record.instance_id,
                attempt=record.attempt,
                correlated=record.correlated,
            )
        if self.tracer is None:
            return
        self._end_phase(record, "exec")
        root = self._roots.pop(record.instance_id, None)
        if root is not None:
            self.tracer.end_span(root, outcome=outcome)

    def on_cancelled_before_exec(self, record) -> None:
        """A hedge twin won while this copy was still in the cold pipeline."""
        if self._m:
            self._m["outcomes"]["cancelled"].inc()
        if self.tracer is None:
            return
        phases = self._phases.pop(record.instance_id, {})
        for span in phases.values():
            self.tracer.end_span(span, abandoned=True)
        root = self._roots.pop(record.instance_id, None)
        if root is not None:
            # A zero-duration exec span keeps the per-instance exec set
            # aligned with RunResult._starts (which spans cancelled records).
            exec_span = self.tracer.start_span("exec", "phase", parent=root)
            self.tracer.end_span(exec_span, outcome="cancelled")
            self.tracer.end_span(root, outcome="cancelled")

    # ------------------------------------------------------------------ #
    def on_retry(self, chain_id: int, next_attempt: int, delay: float) -> None:
        if self._m:
            self._m["retries"].inc()
        if self.tracer is not None:
            self.tracer.instant(
                "retry", "fault", track=chain_id,
                attempt=next_attempt, delay_s=delay,
            )
        if self.bus is not None:
            self.bus.publish(
                "chain.retry", self._now(),
                chain=chain_id, attempt=next_attempt, delay_s=delay,
            )

    def on_throttled(self, chain_id: int, tries: int) -> None:
        if self._m:
            self._m["throttled"].inc()
        if self.tracer is not None:
            self.tracer.instant("throttled", "fault", track=chain_id, tries=tries)

    def on_hedge(self, chain_id: int) -> None:
        if self._m:
            self._m["hedges"].inc()
        if self.tracer is not None:
            self.tracer.instant("hedge", "fault", track=chain_id)

    def on_lost(self, chain_id: int, n_packed: int) -> None:
        if self._m:
            self._m["lost"].inc(n_packed)
        if self.tracer is not None:
            self.tracer.instant("lost", "fault", track=chain_id, n_packed=n_packed)
        if self.bus is not None:
            self.bus.publish(
                "chain.lost", self._now(), chain=chain_id, n_packed=n_packed
            )


class ServingInstrumentation:
    """Per-run tracing + metrics, driven by the serving loop's hooks.

    Besides the tracer/metrics adapters, every hook also offers an
    ``audit.*`` event to the bus — but only when something subscribed to
    that kind *specifically*. The "is any auditor attached?" verdict is
    precomputed once per run (and re-derived only when the bus's
    subscription set changes, at the latest on the next control tick), so
    sessions without a chaos :class:`~repro.chaos.auditor.InvariantAuditor`
    pay one attribute load per hook — no field-dict allocation, no bus
    lookup — and publish nothing, keeping JSONL exports byte-identical.
    """

    def __init__(
        self,
        tracer: Optional["Tracer"],
        registry: Optional[MetricsRegistry],
        bus: Optional["EventBus"],
        sim,
        name: str,
    ) -> None:
        self.tracer = tracer
        self.bus = bus
        self._registry = registry
        self._now = lambda: sim.now  # bus events are published untraced too
        # Audit short-circuit: hooks fire per dispatch/arrival (hot loop),
        # so "which audit.* kinds has anyone subscribed to?" is answered
        # once here and re-derived only when the bus's subscription set
        # changes, never per event.
        self._audit_version = -1
        self._audit_kinds: frozenset[str] = frozenset()
        self._audit_on = False
        self._refresh_audit_gate()
        if tracer is not None:
            tracer.bind_clock(self._now)
            self.pid = tracer.new_process(name)
        self._dispatches: dict[int, Span] = {}
        self._m: dict[str, object] = {}
        if registry is not None:
            self._m = {
                "arrivals": registry.counter(
                    "propack_serving_arrivals_total",
                    help="Requests offered to the serving loop.",
                ),
                "admitted": registry.counter(
                    "propack_serving_admitted_total",
                    help="Requests admitted past protection.",
                ),
                "shed": {
                    source: registry.counter(
                        "propack_serving_shed_total",
                        help="Requests shed before dispatch, by mechanism.",
                        source=source,
                    )
                    for source in ("admission", "brownout")
                },
                "warm": registry.counter(
                    "propack_serving_dispatches_total",
                    help="Batch dispatches, by start type.", start="warm",
                ),
                "cold": registry.counter(
                    "propack_serving_dispatches_total", start="cold",
                ),
                "completed": registry.counter(
                    "propack_serving_requests_completed_total",
                    help="Requests served to completion.",
                ),
                "failed": registry.counter(
                    "propack_serving_requests_failed_total",
                    help="Admitted requests that were never served.",
                ),
                "crashes": {
                    kind: registry.counter(
                        "propack_serving_crashes_total",
                        help="Dispatch crashes, by cause.", kind=kind,
                    )
                    for kind in ("independent", "correlated")
                },
                "retries": registry.counter(
                    "propack_serving_retries_total",
                    help="Batch re-dispatches after crashes.",
                ),
                "throttled": registry.counter(
                    "propack_serving_throttled_total",
                    help="429-style dispatch bounces.",
                ),
                "sojourn": registry.histogram(
                    "propack_serving_sojourn_seconds",
                    buckets=SOJOURN_BUCKETS,
                    help="Per-request sojourn (arrival to completion).",
                ),
                "backlog": registry.gauge(
                    "propack_serving_backlog_depth",
                    help="Dispatch-queue depth at the last control tick.",
                ),
            }

    # ------------------------------------------------------------------ #
    def _refresh_audit_gate(self) -> bool:
        """Recompute the cached per-kind ``audit.*`` subscriber verdicts.

        One bus scan, and only when the subscription set actually changed
        since the last refresh (tracked via
        :attr:`EventBus.subscriptions_version`). It caches the set of
        ``audit.*`` kinds someone subscribed to specifically (what
        :meth:`EventBus.has_kind_subscribers` answers per kind) and whether
        that set is empty. Runs at construction and again at every
        (un)subscribe observed through :meth:`_audit`; an auditor attached
        mid-run is picked up at the latest on the next control tick.
        """
        bus = self.bus
        if bus is None:
            return False
        version = bus.subscriptions_version
        if version != self._audit_version:
            self._audit_version = version
            self._audit_kinds = frozenset(
                kind for kind, subs in bus._by_kind.items()
                if subs and kind.startswith("audit.")
            )
            self._audit_on = bool(self._audit_kinds)
        return self._audit_on

    def _audit(self, kind: str, **fields) -> None:
        """Publish an opt-in ``audit.*`` event iff someone subscribed to it.

        Hot hooks guard on the precomputed :attr:`_audit_on` flag before
        building their field dicts, so an auditor-less session pays one
        attribute load per event — no dict allocation, no bus lookup.
        """
        bus = self.bus
        if bus is None:
            return
        if bus.subscriptions_version != self._audit_version:
            self._refresh_audit_gate()
        if kind in self._audit_kinds:
            bus.publish(kind, self._now(), **fields)

    # ------------------------------------------------------------------ #
    def on_arrival(self, verdict: str) -> None:
        """``verdict`` is 'admitted', 'shed-admission', or 'shed-brownout'."""
        if self._audit_on:
            self._audit("audit.arrival", verdict=verdict)
        if not self._m:
            return
        self._m["arrivals"].inc()
        if verdict == "admitted":
            self._m["admitted"].inc()
        else:
            self._m["shed"][verdict.removeprefix("shed-")].inc()

    def on_dispatch(
        self, dispatch_id: int, batch_size: int, warm: bool, domain: Optional[int]
    ) -> None:
        if self._audit_on:
            self._audit(
                "audit.dispatch",
                dispatch=dispatch_id, batch=batch_size, warm=warm,
                domain=-1 if domain is None else domain,
            )
        if self._m:
            self._m["warm" if warm else "cold"].inc()
        if self.tracer is None:
            return
        self._dispatches[dispatch_id] = self.tracer.start_span(
            f"dispatch#{dispatch_id}",
            category="dispatch",
            track=dispatch_id,
            batch=batch_size,
            warm=warm,
            domain=-1 if domain is None else domain,
        )

    def _end_dispatch(self, dispatch_id: int, outcome: str) -> None:
        span = self._dispatches.pop(dispatch_id, None)
        if span is not None:
            self.tracer.end_span(span, outcome=outcome)

    def on_complete(
        self,
        dispatch_id: int,
        sojourns: list[float],
        exec_s: Optional[float] = None,
        billed_s: Optional[float] = None,
    ) -> None:
        if self._audit_on:
            self._audit(
                "audit.complete",
                dispatch=dispatch_id, n=len(sojourns),
                exec_s=-1.0 if exec_s is None else exec_s,
                billed_s=-1.0 if billed_s is None else billed_s,
            )
        if self._m:
            self._m["completed"].inc(len(sojourns))
            hist = self._m["sojourn"]
            for sojourn in sojourns:
                hist.observe(sojourn)
        if self.tracer is not None:
            self._end_dispatch(dispatch_id, "ok")

    def on_crash(
        self, dispatch_id: int, correlated: bool, domain: Optional[int] = None
    ) -> None:
        if self._audit_on:
            self._audit(
                "audit.crash",
                dispatch=dispatch_id, correlated=correlated,
                domain=-1 if domain is None else domain,
            )
        if self._m:
            self._m["crashes"]["correlated" if correlated else "independent"].inc()
        if self.tracer is not None:
            self._end_dispatch(dispatch_id, "crash")
        if self.bus is not None:
            self.bus.publish(
                "dispatch.crash", self._now(),
                dispatch=dispatch_id, correlated=correlated,
                domain=-1 if domain is None else domain,
            )

    def on_retry(self, batch_size: int, delay: float) -> None:
        if self._audit_on:
            self._audit("audit.retry", batch=batch_size, delay_s=delay)
        if self._m:
            self._m["retries"].inc()
        if self.tracer is not None:
            self.tracer.instant("retry", "fault", batch=batch_size, delay_s=delay)

    def on_throttled(self) -> None:
        if self._audit_on:
            self._audit("audit.throttled")
        if self._m:
            self._m["throttled"].inc()

    def on_fail_batch(self, batch_size: int) -> None:
        if self._audit_on:
            self._audit("audit.fail", batch=batch_size)
        if self._m:
            self._m["failed"].inc(batch_size)
        if self.bus is not None:
            self.bus.publish("batch.failed", self._now(), batch=batch_size)

    def on_tick(self, backlog: int, violation_fraction: float) -> None:
        # Per-wave gate refresh: the control tick is the run's heartbeat,
        # so a mid-run (un)subscribe is folded in here at the latest.
        if self._refresh_audit_gate():
            self._audit("audit.tick", backlog=backlog)
        if self._m:
            self._m["backlog"].set(backlog)
        if self.tracer is not None:
            self.tracer.instant(
                "control-tick", "control",
                backlog=backlog, violation=round(violation_fraction, 9),
            )

    def on_remediation(self, stage: str, **fields) -> None:
        """One remediation-loop event: ``stage`` is 'detection', 'proposal',
        'verdict', 'apply', or 'rollback'; ``fields`` are stage-specific."""
        if self._audit_on:
            self._audit("audit.remediation", stage=stage, **fields)
        if self._registry is not None:
            self._registry.counter(
                "propack_remediation_events_total",
                help="Remediation-loop pipeline events, by stage.",
                stage=stage,
            ).inc()
        if self.tracer is not None:
            self.tracer.instant(f"remediation-{stage}", "remediation", **fields)
        if self.bus is not None:
            self.bus.publish(f"remediation.{stage}", self._now(), **fields)
