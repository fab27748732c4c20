"""Instrumentation adapters between the simulators and the telemetry core.

The burst kernel and the serving loop stay almost telemetry-free: each
holds an optional instrumentation object behind an ``is not None`` guard.
Both report once, when they end, from their finished record: a burst
from its record table and its chain moments
(:meth:`BurstInstrumentation.record_burst`), a serving run from its
result (:meth:`ServingInstrumentation.record_run`). The components a run
drove — admission, circuit breakers, brownout, the fault injector — hold
no registry: their families are written at that same moment, from the
state each component ended the run in. Only the serving loop calls
hooks as things happen (a burst's event loop calls none), for what its
result does not hold: spans, instants and bus events. The chaos auditor
needs none of them: it reads the finished result. All span bookkeeping,
metric registration, and bus publishing lives here, so the hot paths pay
exactly one attribute check when telemetry is off.

Span model (see ``docs/OBSERVABILITY.md``):

* one *process* band per burst or serving run (``Tracer.new_process``),
* one *track* per instance (burst) or dispatch (serving),
* a root ``instance``/``dispatch`` span per track with child phase spans
  ``sched`` / ``build`` / ``ship`` / ``exec`` (bursts) keyed to sim time,
* instants for retries, throttle bounces, lost chains, correlated events.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import Instant, Span

if TYPE_CHECKING:  # imported for annotations only; avoids heavy deps here
    from repro.telemetry.bus import EventBus
    from repro.telemetry.tracer import Tracer

#: Histogram boundaries for per-phase durations (sub-second to minutes).
PHASE_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0,
    2.0, 5.0, 10.0, 30.0, 60.0, 180.0, 600.0,
)

#: Placement-search histogram boundaries: milliseconds to the multi-second
#: quadratic tail a large burst's last placement pays.
SEARCH_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Histogram boundaries for request sojourn times in the serving loop.
SOJOURN_BUCKETS: tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 15.0,
    30.0, 60.0, 120.0, 300.0, 600.0, 1800.0,
)

#: The detail of each kind of burst chain moment, named as its instant's
#: attributes (in sorted order) and its ``chain.*`` event's fields.
MOMENT_FIELDS: dict[str, tuple[str, ...]] = {
    "retry": ("attempt", "delay_s"), "throttled": ("tries",),
    "hedge": (), "lost": ("n_packed",),
}

#: Label values of the component families: the resilience layer's priority
#: classes (by index, lowest priority last) and circuit-breaker states.
#: Telemetry sits below that layer, so it spells them out here.
PRIORITY_LABELS: tuple[str, ...] = ("high", "normal", "low")
BREAKER_STATES: tuple[str, ...] = ("closed", "open", "half-open")


def _record_faults(registry: MetricsRegistry, injector) -> None:
    """The fault injector's draws, one sample per non-zero count."""
    for persistent, n in (
        ("false", injector.transient_crashes), ("true", injector.persistent_crashes)
    ):
        if n:
            registry.counter(
                "propack_fault_crashes_total", persistent=persistent,
                help="Crash decisions drawn by the fault injector.",
            ).inc(n)
    if injector.stragglers:
        registry.counter(
            "propack_fault_stragglers_total",
            help="Straggler slowdowns drawn by the fault injector.",
        ).inc(injector.stragglers)


def _record_admission(registry: MetricsRegistry, report) -> None:
    """Admission verdicts per priority class, one sample per non-zero count:
    every admitted request, and every shed one but brownout's (all of the
    lowest class)."""
    shed = list(report.shed_by_priority)
    shed[-1] -= report.shed_brownout
    for verdict, counts in (("admitted", report.admitted_by_priority), ("shed", shed)):
        for priority, n in zip(PRIORITY_LABELS, counts):
            if n:
                registry.counter(
                    "propack_admission_decisions_total",
                    help="Admit/shed verdicts by priority class.",
                    verdict=verdict, priority=priority,
                ).inc(n)


def _record_breakers(registry: MetricsRegistry, bank) -> None:
    """A circuit-breaker bank's transitions and flaps, which a session's
    runs add up, and its final state: the two domain gauges read the last
    run's open and quarantined domains."""
    log = bank.transition_log()
    registry.counter(
        "propack_breaker_transitions_total",
        help="Circuit-breaker state transitions across fault domains.",
    ).inc(len(log))
    for state in BREAKER_STATES:
        registry.counter(
            "propack_breaker_state_changes_total", to=state,
            help="Circuit-breaker transitions by destination state.",
        ).inc(sum(1 for *_, dst in log if dst == state))
    registry.counter(
        "propack_breaker_flaps_total",
        help="Failed half-open probes (half-open → open re-openings).",
    ).inc(bank.n_flaps)
    registry.gauge(
        "propack_breaker_open_domains",
        help="Fault domains currently in the open state.",
    ).set(bank.n_open)
    registry.gauge(
        "propack_breaker_quarantined_domains",
        help="Fault domains administratively quarantined.",
    ).set(len(bank.quarantined))


def _record_brownout(registry: MetricsRegistry, brownout) -> None:
    """A brownout controller's final level and its level changes."""
    registry.gauge(
        "propack_brownout_level",
        help="Current brownout degradation level (0 = normal).",
    ).set(brownout.level)
    for direction, n in (
        ("escalate", brownout.escalations), ("recover", brownout.recoveries)
    ):
        registry.counter(
            "propack_brownout_shifts_total", direction=direction,
            help="Brownout level changes by direction.",
        ).inc(n)


class BurstInstrumentation:
    """Per-burst tracing + metrics for :class:`BurstInvoker`.

    A burst is reported once, when it ends: the kernel hands its finished
    record table and its chain moments to :meth:`record_burst`. From the
    moments (retries, 429 bounces, hedges and lost chains, which the table
    does not hold) it replays the chain counters, instants and ``chain.*``
    bus events; from the columns it derives every instance and phase span,
    the phase and placement-search histograms, the instance, function,
    outcome and placement counters and the ``instance.*`` bus events.
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
        self.registry = registry
        if tracer is not None:
            tracer.bind_clock(lambda: sim.now)
            self.pid = tracer.new_process(name)
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
                "retry": registry.counter(
                    "propack_burst_retries_total",
                    help="Retry attempts scheduled after failed executions.",
                ),
                "throttled": registry.counter(
                    "propack_burst_throttled_total",
                    help="429-style admission bounces.",
                ),
                "hedge": registry.counter(
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
    def record_burst(
        self,
        table,
        invoked_at: float,
        kernel_path: str,
        fallback_reason: Optional[str],
        search_costs: Optional[tuple[float, float]] = None,
        injector=None,
        moments=(),
    ) -> None:
        """Report a burst's chain moments, then its attempts from its
        record table in one pass.

        ``table`` is a :class:`~repro.platform.metrics.RecordTable` (one
        column per record field, NaN for a timestamp never set) whose times
        count from ``invoked_at``, the burst's invocation instant on the
        simulator clock; spans and bus events carry clock times. The spans
        go to this burst's own process band (:attr:`pid`), record by record.

        An attempt *finished* once its ``exec_end`` is set. Its outcome is
        ``timeout``, ``crash``, ``cancelled`` or ``ok``, and it gets a
        closed root span carrying that outcome, an ``exec`` span and one
        observation per phase. A cancelled attempt that ran for no time was
        cancelled before it executed: its ``exec`` span is zero-length with
        ``outcome=cancelled``, and it adds no phase observations. A
        ``crash`` or ``timeout`` publishes ``instance.<outcome>``, in
        ``(exec_end, record id)`` order. An attempt still in flight (the
        burst aborted) counts as launched and keeps its closed phase spans;
        its root span stays open, so no export shows it.

        ``kernel_path`` (``"fluid"`` or ``"event"``) and ``fallback_reason``
        (why the replay declined, or None) feed the path counters.

        ``search_costs`` is the ``(base, search)`` seconds of the burst's
        serial placement scheduler (None for a sharded one: no search
        families). That scheduler serves the cold attempts one at a time,
        in record order, on a fresh fleet, so the k-th cold record searched
        for ``base + search·k``. Every cold record whose ``sched_done`` is
        set counts as a placement; on an aborted burst the first unplaced
        cold record was being searched for, and counts as a search too.

        ``injector`` is the burst's fault injector (None without a fault
        scenario); its draws become the ``propack_fault_*`` samples.

        ``moments`` are the burst's chain moments, in the order they
        happened, on the simulator clock. They are replayed first
        (:meth:`_record_moments`), so their bus events come before the
        ``instance.*`` ones."""
        self._record_moments(moments)
        rid, start, end = table.instance_id, table.exec_start, table.exec_end
        finished = ~np.isnan(end)
        skipped = table.cancelled & (end == start)  # cancelled before it ran
        outcome = np.select(
            [table.timed_out, table.failed, table.cancelled],
            ["timeout", "crash", "cancelled"], "ok",
        )
        registry = self.registry
        if registry is not None:
            m = self._m
            n_warm = int(np.count_nonzero(table.warm_start))
            m["cold"].inc(len(rid) - n_warm)
            m["warm"].inc(n_warm)
            m["functions"].inc(int(table.n_packed.sum()))
            for name, count in zip(*np.unique(outcome[finished], return_counts=True)):
                m["outcomes"][str(name)].inc(int(count))
            observed = finished & ~skipped
            for phase, seconds in table.phase_seconds().items():
                values = seconds[observed]
                m["phases"][phase].observe_many(values[~np.isnan(values)])
            registry.counter(
                "propack_kernel_runs_total",
                help="Bursts run, by the kernel path that ran them.",
                path=kernel_path,
            ).inc()
            if fallback_reason is not None:
                registry.counter(
                    "propack_fluid_fallback_total",
                    help="Bursts the fluid replay declined, by reason.",
                    reason=fallback_reason,
                ).inc()
            if search_costs is not None:
                cold = ~table.warm_start
                n_cold = int(np.count_nonzero(cold))
                placed = int(np.count_nonzero(cold & ~np.isnan(table.sched_done)))
                base_s, search_s = search_costs
                registry.histogram(
                    "propack_sched_search_seconds",
                    buckets=SEARCH_BUCKETS,
                    help="Placement-search time per request (grows with occupancy).",
                ).observe_many(
                    base_s + search_s * np.arange(placed + (placed < n_cold), dtype=float)
                )
                registry.counter(
                    "propack_sched_placements_total",
                    help="Placements completed by the scheduling loop.",
                ).inc(placed)
            if injector is not None:
                _record_faults(registry, injector)
        if self.bus is not None:
            failed = np.flatnonzero(table.failed | table.timed_out)
            failed = failed[np.lexsort((rid[failed], end[failed]))]
            for i, t, timed_out, attempt, correlated in zip(
                rid[failed].tolist(),
                (end[failed] + invoked_at).tolist(),
                table.timed_out[failed].tolist(),
                table.attempt[failed].tolist(),
                table.correlated[failed].tolist(),
            ):
                self.bus.publish(
                    "instance.timeout" if timed_out else "instance.crash", t,
                    instance=i, attempt=attempt, correlated=correlated,
                )
        if self.tracer is not None:
            self._trace(table, invoked_at, finished, skipped, outcome)

    def _trace(self, table, invoked_at, finished, skipped, outcome) -> None:
        """Append the burst's spans: per record, its root, then ``sched``,
        ``build``, ``ship`` (cold starts only) and ``exec`` as each closed."""
        ship_from = np.maximum(table.sched_done, table.built_at)
        cold = ~table.warm_start
        n_spans = len(table) + int(
            np.count_nonzero(cold & ~np.isnan(table.sched_done))
            + np.count_nonzero(cold & ~np.isnan(table.built_at))
            + np.count_nonzero(cold & ~np.isnan(table.shipped_at))
            + np.count_nonzero(finished)
        )
        tracer = self.tracer
        sid = tracer.reserve_ids(n_spans)
        pid = self.pid
        spans: list[Span] = []
        add = spans.append
        for (rid, n_packed, attempt, hedged, warm, done, skip, result,
             t_inv, t_sched, t_built, t_ship, t_shipped, t_start, t_end) in zip(
            table.instance_id.tolist(),
            table.n_packed.tolist(),
            table.attempt.tolist(),
            table.hedged.tolist(),
            table.warm_start.tolist(),
            finished.tolist(),
            skipped.tolist(),
            outcome.tolist(),
            *(
                (column + invoked_at).tolist()
                for column in (
                    table.invoked_at, table.sched_done, table.built_at, ship_from,
                    table.shipped_at, table.exec_start, table.exec_end,
                )
            ),
        ):
            root = sid
            attrs = {"n_packed": n_packed, "attempt": attempt, "hedged": hedged,
                     "warm": warm}
            if done:
                attrs["outcome"] = result
            add(Span(root, f"instance#{rid}", t_inv, "instance",
                     t_end if done else None, None, pid, rid, attrs))
            sid += 1
            if not warm:
                if t_sched == t_sched:  # not NaN: placed
                    add(Span(sid, "sched", t_inv, "phase", t_sched, root, pid, rid, {}))
                    sid += 1
                if t_built == t_built:
                    add(Span(sid, "build", t_inv, "phase", t_built, root, pid, rid, {}))
                    sid += 1
                if t_shipped == t_shipped:
                    add(Span(sid, "ship", t_ship, "phase", t_shipped, root, pid, rid, {}))
                    sid += 1
            if done:
                add(Span(sid, "exec", t_start, "phase", t_end, root, pid, rid,
                         {"outcome": "cancelled"} if skip else {}))
                sid += 1
        tracer.spans += spans

    def _record_moments(self, moments) -> None:
        """Replay a burst's chain moments, in the order they happened.

        A moment is ``(time, kind, chain id, *detail)``, its detail named
        by :data:`MOMENT_FIELDS` (a lost chain's last flag, lost to a final
        429, is not reported). Each becomes a ``fault`` instant named
        ``kind`` on its chain's track; a retry or a lost chain also
        publishes ``chain.<kind>``. Each chain counter is incremented once.
        """
        tracer, bus = self.tracer, self.bus
        instants: list[Instant] = []
        for t, kind, chain, *detail in moments:
            fields = tuple(zip(MOMENT_FIELDS[kind], detail))
            if tracer is not None:
                instants.append(Instant(kind, t, "fault", self.pid, chain, fields))
            if bus is not None and kind in ("retry", "lost"):
                bus.publish(f"chain.{kind}", t, chain=chain, **dict(fields))
        if tracer is not None:
            tracer.instants += instants
        if self._m:
            counts = Counter(moment[1] for moment in moments)
            for kind in ("retry", "throttled", "hedge"):
                self._m[kind].inc(counts[kind])
            lost = (moment[3] for moment in moments if moment[1] == "lost")
            self._m["lost"].inc(sum(lost))


class ServingInstrumentation:
    """Per-run tracing + metrics for
    :class:`~repro.serving.service.ServingSimulator`.

    The serving counters and the sojourn histogram are written once, when
    the run ends, from its result (:meth:`record_run`). The hooks the loop
    calls as things happen report spans, instants and bus events, and keep
    two live metrics: the backlog gauge and the remediation counter.
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
        if tracer is not None:
            tracer.bind_clock(self._now)
            self.pid = tracer.new_process(name)
        self._dispatches: dict[int, Span] = {}
        self._backlog = None
        if registry is not None:
            self._backlog = registry.gauge(
                "propack_serving_backlog_depth",
                help="Dispatch-queue depth at the last control tick.",
            )

    # ------------------------------------------------------------------ #
    def record_run(self, result, resilience=None, injector=None) -> None:
        """Write the run's counters from its finished
        :class:`~repro.serving.service.ServingResult`.

        Each counter is a field of the result or of its
        :class:`~repro.serving.service.ResilienceReport`. The digest keeps
        every sojourn in completion order, so one ``observe_many`` over its
        column equals one ``observe`` per completed request, to the last bit
        of the sum. The admission, breaker, brownout and fault families are
        read from the run's ``resilience`` policy and fault ``injector``, as
        the run left them.
        """
        registry = self._registry
        if registry is None:
            return
        rep, counter = result.resilience, registry.counter
        counter(
            "propack_serving_arrivals_total",
            help="Requests offered to the serving loop.",
        ).inc(rep.arrivals)
        counter(
            "propack_serving_admitted_total",
            help="Requests admitted past protection.",
        ).inc(rep.admitted)
        for source, n in (
            ("admission", rep.shed_admission), ("brownout", rep.shed_brownout)
        ):
            counter(
                "propack_serving_shed_total", source=source,
                help="Requests shed before dispatch, by mechanism.",
            ).inc(n)
        for start, n in (
            ("warm", result.warm_dispatches), ("cold", result.cold_dispatches)
        ):
            counter(
                "propack_serving_dispatches_total", start=start,
                help="Batch dispatches, by start type.",
            ).inc(n)
        counter(
            "propack_serving_requests_completed_total",
            help="Requests served to completion.",
        ).inc(result.n_completed)
        counter(
            "propack_serving_requests_failed_total",
            help="Admitted requests that were never served.",
        ).inc(rep.failed_requests)
        for kind, n in (
            ("independent", rep.crashes), ("correlated", rep.correlated_kills)
        ):
            counter(
                "propack_serving_crashes_total", kind=kind,
                help="Dispatch crashes, by cause.",
            ).inc(n)
        counter(
            "propack_serving_retries_total",
            help="Batch re-dispatches after crashes.",
        ).inc(rep.retries)
        counter(
            "propack_serving_throttled_total",
            help="429-style dispatch bounces.",
        ).inc(rep.throttled_attempts)
        registry.histogram(
            "propack_serving_sojourn_seconds",
            buckets=SOJOURN_BUCKETS,
            help="Per-request sojourn (arrival to completion).",
        ).observe_many(result.digest.values())
        if resilience is not None:
            if resilience.admission is not None:
                _record_admission(registry, rep)
            if resilience.breakers is not None:
                _record_breakers(registry, resilience.breakers)
            if resilience.brownout is not None:
                _record_brownout(registry, resilience.brownout)
        if injector is not None:
            _record_faults(registry, injector)

    def on_dispatch(
        self, dispatch_id: int, batch_size: int, warm: bool, domain: Optional[int]
    ) -> None:
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

    def on_complete(self, dispatch_id: int) -> None:
        if self.tracer is not None:
            self._end_dispatch(dispatch_id, "ok")

    def on_crash(
        self, dispatch_id: int, correlated: bool, domain: Optional[int] = None
    ) -> None:
        if self.tracer is not None:
            self._end_dispatch(dispatch_id, "crash")
        if self.bus is not None:
            self.bus.publish(
                "dispatch.crash", self._now(),
                dispatch=dispatch_id, correlated=correlated,
                domain=-1 if domain is None else domain,
            )

    def on_retry(self, batch_size: int, delay: float) -> None:
        if self.tracer is not None:
            self.tracer.instant("retry", "fault", batch=batch_size, delay_s=delay)

    def on_fail_batch(self, batch_size: int) -> None:
        if self.bus is not None:
            self.bus.publish("batch.failed", self._now(), batch=batch_size)

    def on_tick(self, backlog: int, violation_fraction: float) -> None:
        if self._backlog is not None:
            self._backlog.set(backlog)
        if self.tracer is not None:
            self.tracer.instant(
                "control-tick", "control",
                backlog=backlog, violation=round(violation_fraction, 9),
            )

    def on_remediation(self, stage: str, **fields) -> None:
        """One remediation-loop event: ``stage`` is 'detection', 'proposal',
        'verdict', 'apply', or 'rollback'; ``fields`` are stage-specific."""
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
