"""Long-horizon serving simulator: arrivals × batching × warm pool × SLOs.

:class:`ServingSimulator` is the one simulator of sustained traffic, from a
short homogeneous stream to *hours* of service:

* requests arrive from any :class:`~repro.serving.arrivals.ArrivalProcess`,
* a batch-and-pack dispatcher groups them under the current policy (which
  an :class:`~repro.serving.controller.OnlineReplanner` may change
  mid-service),
* dispatches draw instances from a :class:`~repro.serving.warmpool.WarmPool`
  — warm hits pay a millisecond dispatch, cold starts pay the sandbox
  latency *and* billed initialization (the index/model load runs inside the
  handler, so providers charge it),
* sojourn times fill one column, read as exact nearest-rank quantiles
  after the run, and feed a windowed SLO tracker that controllers read
  mid-run,
* every attempt is billed once through the profile's
  :class:`~repro.platform.billing.BillingFidelity` (execution plus billed
  init), and billing threads warm-idle time through
  :meth:`~repro.platform.billing.BillingModel.serving_expense` at the
  provisioned-concurrency rate.

Overload and faults (see ``docs/RESILIENCE.md``) compose onto that loop:

* a :class:`~repro.resilience.ResiliencePolicy` wires admission control
  (shed excess arrivals, exact per-priority accounting), per-fault-domain
  circuit breakers around instance dispatch, and a brownout controller
  that boosts the packing degree and then sheds low-priority traffic
  while the windowed SLO is breached;
* a :class:`~repro.faults.scenario.FaultScenario` injects crashes,
  stragglers, 429 throttling, poisoned domains, and correlated kill
  events into the dispatch path, with any
  :class:`~repro.faults.retry.RetryPolicy` governing re-execution; failed
  attempts are billed (and counted as wasted), retries re-pay payload
  egress.

Determinism: one integer seed fixes the arrival schedule, every priority,
fault, and noise draw, and therefore every reported number, bit for bit —
``admitted + shed == arrivals`` holds exactly.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, Optional, Union

from repro.core.models import ExecutionTimeModel
from repro.engine import (
    AttemptChain,
    DispatchCosts,
    DispatchKernel,
    resolve_retry_policy,
)
from repro.faults.retry import RetryPolicy
from repro.faults.scenario import FaultScenario
from repro.platform.billing import BillingModel
from repro.platform.metrics import ExpenseBreakdown
from repro.platform.providers import PlatformProfile
from repro.resilience import NORMAL, N_PRIORITIES, ResiliencePolicy
from repro.serving.arrivals import ArrivalProcess, check_horizon
from repro.serving.controller import OnlineReplanner, StreamingPolicy
from repro.serving.quantiles import QuantileDigest, WindowedSLOTracker
from repro.serving.warmpool import WarmPool
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.telemetry.config import TelemetryConfig, TelemetrySession, resolve_session
from repro.workloads.base import AppSpec

if TYPE_CHECKING:  # annotation-only: a runtime import would be circular
    from repro.remediation import RemediationLoop, RemediationReport


@dataclass(frozen=True)
class ServingConfig:
    """Latency and accounting constants of the serving loop."""

    cold_start_s: float = 2.5        # sandbox + init latency on a cold dispatch
    warm_dispatch_s: float = 0.02    # dispatch latency onto a warm instance
    cold_init_billed_s: float = 2.0  # initialization billed as execution
                                     # (index/model load inside the handler)
    qos_sojourn_s: float = 30.0      # per-request SLO bound
    slo_window_s: float = 600.0
    slo_bucket_s: float = 60.0
    replan_interval_s: float = 60.0  # controller tick (ignored w/o controller)
    backlog_threshold: int = 64      # backlog depth counted as "over" in the
                                     # report (and fed to brownout)
    max_breaker_deferrals: int = 32  # batch dispatch deferrals before giving up
    fault_domains: int = 4           # dispatch targets under a FaultScenario
                                     # (a CircuitBreakerBank overrides this
                                     # with its own domain count)

    def __post_init__(self) -> None:
        # NaN passes every comparison below, so finiteness is checked first.
        for name in ("cold_start_s", "warm_dispatch_s", "cold_init_billed_s",
                     "qos_sojourn_s", "slo_window_s", "slo_bucket_s",
                     "replan_interval_s"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite (got {value})")
        for name in ("cold_start_s", "warm_dispatch_s", "cold_init_billed_s"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0 (got {getattr(self, name)})")
        for name in ("qos_sojourn_s", "slo_bucket_s", "replan_interval_s"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive (got {getattr(self, name)})")
        if self.slo_window_s < self.slo_bucket_s:
            raise ValueError(
                f"slo_window_s must be >= slo_bucket_s (got {self.slo_window_s} "
                f"< {self.slo_bucket_s})"
            )
        if self.backlog_threshold < 1:
            raise ValueError("backlog_threshold must be >= 1")
        if self.max_breaker_deferrals < 1:
            raise ValueError("max_breaker_deferrals must be >= 1")
        if self.fault_domains < 1:
            raise ValueError("fault_domains must be >= 1")


@dataclass
class BacklogStats:
    """Dispatch-queue visibility for one serving run.

    ``mean_depth`` is time-weighted over the whole horizon;
    ``time_over_threshold_s`` accumulates while the backlog exceeds
    :attr:`ServingConfig.backlog_threshold` — the signal an operator's
    queue-depth alert (and the brownout controller) watches.
    """

    threshold: int = 0
    max_depth: int = 0
    mean_depth: float = 0.0
    time_over_threshold_s: float = 0.0


@dataclass
class ResilienceReport:
    """Exact overload/fault accounting for one serving run.

    The conservation identity ``arrivals == admitted + shed`` (and
    ``admitted == completed + failed + still-queued == completed + failed``
    once the run drains) is bit-exact under one seed; the property and
    golden suites pin it. ``admitted_by_priority`` and ``shed_by_priority``
    split ``admitted`` and ``shed`` by priority class.
    """

    arrivals: int = 0
    admitted: int = 0
    shed_admission: int = 0
    shed_brownout: int = 0
    admitted_by_priority: list[int] = field(
        default_factory=lambda: [0] * N_PRIORITIES
    )
    shed_by_priority: list[int] = field(
        default_factory=lambda: [0] * N_PRIORITIES
    )
    failed_requests: int = 0      # admitted but never completed
    crashes: int = 0
    correlated_kills: int = 0
    retries: int = 0
    throttled_attempts: int = 0   # 429 rejections at dispatch
    throttle_drops: int = 0       # batches dropped after the 429 budget
    breaker_deferrals: int = 0    # dispatches parked on open breakers
    breaker_transitions: int = 0
    breaker_opens: int = 0
    brownout_escalations: int = 0
    brownout_max_level: int = 0
    wasted_gb_seconds: float = 0.0   # billed GB-s that produced no result
    retry_egress_gb: float = 0.0     # payload re-shipped by retries

    @property
    def shed(self) -> int:
        return self.shed_admission + self.shed_brownout

    def conserved(self) -> bool:
        return self.arrivals == self.admitted + self.shed

    def signature(self) -> tuple:
        return (
            self.arrivals,
            self.admitted,
            self.shed_admission,
            self.shed_brownout,
            tuple(self.shed_by_priority),
            self.failed_requests,
            self.crashes,
            self.correlated_kills,
            self.retries,
            self.throttled_attempts,
            self.throttle_drops,
            self.breaker_transitions,
            self.brownout_escalations,
            round(self.wasted_gb_seconds, 9),
            round(self.retry_egress_gb, 9),
        )


class DispatchRecord(NamedTuple):
    """One dispatch of a serving run, written once, when it ends.

    ``outcome`` is ``"ok"`` (it completed), ``"crash"`` (it crashed) or
    ``"killed"`` (a correlated event killed it). ``exec_s`` is the
    execution billed for the attempt and ``billed_s`` the seconds the
    profile's billing fidelity charged for it (execution plus billed init
    on a cold start, rounded).
    """

    dispatch: int
    launched_at: float
    ended_at: float
    outcome: str
    batch: int
    warm: bool
    exec_s: float
    billed_s: float


@dataclass
class ServingResult:
    """Everything measured from one serving run."""

    policy_name: str
    mode: str                    # "static" or "replan"
    n_requests: int = 0
    n_dispatches: int = 0
    cold_dispatches: int = 0
    warm_dispatches: int = 0
    exec_gb_seconds: float = 0.0
    idle_gb_seconds: float = 0.0
    evictions: int = 0
    replans: int = 0
    policy_changes: int = 0
    final_degree: int = 1
    expense: ExpenseBreakdown = field(
        default_factory=lambda: ExpenseBreakdown(0.0, 0.0, 0.0, 0.0)
    )
    digest: QuantileDigest = field(default_factory=QuantileDigest)
    slo: Optional[WindowedSLOTracker] = None
    resilience: ResilienceReport = field(default_factory=ResilienceReport)
    backlog: BacklogStats = field(default_factory=BacklogStats)
    #: Timeline of the auto-remediation loop, when one drove the run
    #: (kept out of ``signature()``: the goldens pin it separately).
    remediation: Optional["RemediationReport"] = None
    #: One record per dispatch, in dispatch-id order (kept out of
    #: ``signature()``; the invariant library checks it).
    dispatches: list[DispatchRecord] = field(default_factory=list)

    @property
    def cold_start_fraction(self) -> float:
        if self.n_dispatches == 0:
            return 0.0
        return self.cold_dispatches / self.n_dispatches

    @property
    def n_completed(self) -> int:
        """Requests actually served (admitted and not lost to faults)."""
        return self.digest.count

    @property
    def n_shed(self) -> int:
        return self.resilience.shed

    @property
    def n_failed(self) -> int:
        return self.resilience.failed_requests

    @property
    def p50_sojourn_s(self) -> float:
        return self.digest.quantile(0.5)

    @property
    def p95_sojourn_s(self) -> float:
        return self.digest.quantile(0.95)

    @property
    def p99_sojourn_s(self) -> float:
        return self.digest.quantile(0.99)

    @property
    def slo_violation_fraction(self) -> float:
        return self.slo.violation_fraction if self.slo is not None else 0.0

    @property
    def slo_attainment(self) -> float:
        """Fraction of completed requests that met the sojourn bound."""
        return 1.0 - self.slo_violation_fraction

    def windowed_p99_attainment(self, per_window_budget: float = 0.01) -> float:
        """Fraction of sliding SLO windows whose P99 met the bound."""
        if self.slo is None:
            return 1.0
        return self.slo.window_attainment(per_window_budget)

    def cost_per_request_usd(self) -> float:
        if self.n_requests == 0:
            return 0.0
        return self.expense.total_usd / self.n_requests

    def cost_per_completed_request_usd(self) -> float:
        """Dollars per request that actually finished — the honest overload
        metric: shedding reduces the denominator only if the survivors
        still complete."""
        if self.n_completed == 0:
            return 0.0
        return self.expense.total_usd / self.n_completed

    def conserved(self) -> bool:
        """arrivals == completed + shed + failed, exactly."""
        return self.n_requests == (
            self.n_completed + self.n_shed + self.n_failed
        )

    def signature(self) -> tuple:
        """Hashable summary pinned by the determinism tests."""
        return (
            self.n_requests,
            self.n_dispatches,
            self.cold_dispatches,
            round(self.expense.total_usd, 12),
            round(self.p99_sojourn_s, 12),
            round(self.idle_gb_seconds, 9),
            self.resilience.signature(),
            self.backlog.max_depth,
        )


@dataclass
class _ActiveDispatch:
    """An in-flight dispatch, killable by correlated fault events.

    ``chain`` is the batch's :class:`~repro.engine.chain.AttemptChain`; its
    ``payload`` holds the batched requests' arrival times.
    """

    chain: AttemptChain
    event: object               # the scheduled completion/crash event
    domain: Optional[int]
    warm: bool
    launched_at: float
    exec_start: float
    exec_time: float
    crashing: bool              # already scheduled to crash


class ServingSimulator:
    """Simulates sustained service for one app on one platform profile.

    A simulator serves one run: its pool, replanner, resilience components
    and remediation loop keep the state the run left them in, which its
    result reads, so a second :meth:`run` raises. Build a new simulator,
    with new components, per run; a telemetry session may span several.
    """

    def __init__(
        self,
        profile: PlatformProfile,
        app: AppSpec,
        exec_model: ExecutionTimeModel,
        pool: WarmPool,
        config: ServingConfig = ServingConfig(),
        controller: Optional[OnlineReplanner] = None,
        resilience: Optional[ResiliencePolicy] = None,
        scenario: Optional[FaultScenario] = None,
        retry_policy: Optional[RetryPolicy] = None,
        seed: int = 0,
        telemetry: Union[TelemetryConfig, TelemetrySession, None] = None,
        remediation: Optional["RemediationLoop"] = None,
    ) -> None:
        self.profile = profile
        self.app = app
        self.exec_model = exec_model
        self.pool = pool
        self.config = config
        self.controller = controller
        self.resilience = resilience
        self.scenario = scenario
        self.retry_policy = retry_policy
        self.seed = seed
        #: Optional closed-loop auto-remediation (see repro.remediation):
        #: ticks inside sim time, actuating through _RemediationPort.
        self.remediation = remediation
        #: The run is a process band in the session's trace and writes its
        #: metric families once it has ended (see docs/OBSERVABILITY.md).
        self.telemetry = resolve_session(telemetry)
        self._served = False
        self._billing = BillingModel(profile)
        self._billed_gb = self._billing.billed_memory_mb(profile.max_memory_mb) / 1024.0

    def run(
        self,
        process: ArrivalProcess,
        policy: StreamingPolicy,
        horizon_s: float,
        repetition: int = 0,
    ) -> ServingResult:
        """Serve every *admitted* arrival in ``[0, horizon_s)`` to completion.
        A second call raises ``RuntimeError`` (see the class docstring)."""
        if self._served:
            raise RuntimeError(
                "a ServingSimulator serves one run, and its components keep "
                "its state: build a new simulator, with new components"
            )
        check_horizon(horizon_s)
        self._served = True
        return _ServingRun(self, process, policy, horizon_s, repetition).execute()


def _event(body):
    """Make a :class:`_ServingRun` method one of the run's simulator events.

    The event first absorbs every arrival due by the clock, up to and
    including the wake-up (:meth:`_ServingRun._absorb`), then runs
    ``body``, then re-picks the wake-up: the next arrival the simulator
    runs as an event. With the queue empty, that is the next arrival: it
    may arm the batch timer. Otherwise the timer is armed, and the earliest
    arrival that can fill the batch is ``cursor + degree - len(waiting) -
    1`` (if every arrival before it is admitted). Any event may move it,
    backwards too: a timer that empties the queue makes the next arrival
    the wake-up. So no event reads a queue that is missing an arrival, and
    none leaves a stale wake-up behind. Every callback a run schedules is
    one of these.
    """

    @functools.wraps(body)
    def event(self: "_ServingRun", *args) -> None:
        times, cursor = self.times, self.cursor
        if cursor < len(times):
            now = self.sim.now
            if times[cursor] <= now:
                self._absorb(bisect_right(times, now, cursor, min(self.wake + 1, len(times))))
        body(self, *args)
        wake, waiting = self.cursor, len(self.waiting)
        if waiting:
            wake = min(wake + max(0, self._effective_degree() - waiting - 1), len(times))
        if wake != self.wake:
            self.wake = wake
            self.sim.seek_stream(self.stream, wake)

    return event


class _ServingRun:
    """State machine of one :meth:`ServingSimulator.run` invocation.

    Arrivals are not simulator events. The run keeps the sorted arrival
    column, ``times``, and a cursor over the arrivals it has *absorbed*:
    counted, given a priority, shed or queued, each at its own time. Most
    arrivals only join the queue or are shed, and those decisions read
    state that only an event changes (the queue, the requests in flight,
    the policy, the brownout level and the admission limit). So every
    event absorbs the arrivals due before it runs, and the simulator runs
    just the *wake-up*: the earliest arrival that can arm the batch timer
    (the queue is empty) or fill a batch (:func:`_event`). It is an entry
    of a :meth:`Simulator.schedule_sorted` stream, picked with
    :meth:`Simulator.seek_stream`, so it runs at its exact time and in the
    order the arrival had as an event of its own.
    """

    def __init__(
        self,
        owner: ServingSimulator,
        process: ArrivalProcess,
        policy: StreamingPolicy,
        horizon_s: float,
        repetition: int,
    ) -> None:
        self.owner = owner
        self.cfg = owner.config
        self.pool = owner.pool
        self.horizon_s = float(horizon_s)
        self.rng = RandomStreams(owner.seed).spawn(f"serving/r{repetition}")
        self.arrivals = process.sample(self.rng, horizon_s)
        self.times: list[float] = self.arrivals.tolist()
        self.cursor = 0      # arrivals times[:cursor] are absorbed
        self.wake = 0        # the arrival the simulator runs next
        self.stream = None   # the arrival column's schedule_sorted handle
        self.sim = Simulator()
        self.policy = policy
        self.timer = None
        self.waiting: list[tuple[float, int]] = []  # (arrival time, priority)
        self.blocked: list[AttemptChain] = []       # parked on open breakers
        self.pump_scheduled = False
        self.requests_in_flight = 0                 # formed, not yet resolved
        self.active: dict[int, _ActiveDispatch] = {}
        self._next_dispatch_id = 0
        self._rotor = 0                             # round-robin fault domain
        self.poisoned_at: dict[int, float] = {}     # domain -> poisoning time
        self.crashes_by_domain: dict[int, int] = {}  # cumulative, detectors' feed
        self.max_degree = owner.app.max_packing_degree(owner.profile.max_memory_mb)

        res = owner.resilience
        self.protection_on = res is not None and res.active
        self.admission = res.admission if res else None
        self.breakers = res.breakers if res else None
        self.brownout = res.brownout if res else None
        self.priority_mix = res.priority_mix if res else None

        scenario = owner.scenario
        # All fault/throttle/retry arbitration is delegated to the shared
        # dispatch kernel; serving keeps only its own concerns (batching,
        # domain routing, breakers, brownout) around the kernel's verdicts.
        self.kernel = DispatchKernel(
            self.rng,
            scenario=scenario,
            retry_policy=resolve_retry_policy(owner.retry_policy, scenario),
            profile_failure_rate=owner.profile.failure_rate,
        )
        self.injector = self.kernel.injector
        self.throttle = self.kernel.bucket
        # A scenario may start with domains already poisoned (shadow replays
        # seed this with the live run's state; experiments can use it too).
        if scenario is not None:
            for domain in scenario.initially_poisoned:
                self.poisoned_at.setdefault(domain, 0.0)
        self.costs = DispatchCosts(
            self.cfg.cold_start_s,
            self.cfg.warm_dispatch_s,
            self.cfg.cold_init_billed_s,
        )

        self.result = ServingResult(
            policy_name=getattr(self.pool.policy, "name", "custom"),
            mode="replan" if owner.controller is not None else "static",
            n_requests=len(self.arrivals),
            slo=WindowedSLOTracker(
                self.cfg.qos_sojourn_s, self.cfg.slo_window_s, self.cfg.slo_bucket_s
            ),
        )
        self.result.backlog.threshold = self.cfg.backlog_threshold
        # Backlog accounting, written to result.backlog when the run ends.
        self._bl_last_t = 0.0
        self._bl_integral = 0.0
        self._bl_over = 0.0
        self._bl_max = 0

        self.tel = None
        session = owner.telemetry
        if session is not None:
            self.tel = session.serving_instrumentation(
                self.sim,
                f"serving {owner.app.name} "
                f"{self.result.policy_name}/{self.result.mode} r{repetition}",
            )

        self.remedy = owner.remediation
        if self.remedy is not None:
            self.remedy.begin_run(_RemediationPort(self))

    # ---------------------------------------------------------------- #
    # backlog accounting (satellite: queue-depth visibility)
    def _backlog_touch(self, now: float) -> None:
        dt = now - self._bl_last_t
        if dt > 0.0:
            depth = len(self.waiting)
            self._bl_integral += depth * dt
            if depth > self.cfg.backlog_threshold:
                self._bl_over += dt
        self._bl_last_t = now

    # ---------------------------------------------------------------- #
    def _effective_degree(self) -> int:
        degree = self.policy.degree
        if self.brownout is not None:
            boosted = int(round(degree * self.brownout.degree_multiplier))
            degree = max(1, min(boosted, self.max_degree))
        return degree

    def _payload_gb(self, n: int) -> float:
        return n * self.owner.app.io_mb / 1024.0

    def _domain_poisoned(self, domain: int, now: float) -> bool:
        poisoned_since = self.poisoned_at.get(domain)
        if poisoned_since is None:
            return False
        heal = self.owner.scenario.poison_heal_s
        if heal is not None and now >= poisoned_since + heal:
            del self.poisoned_at[domain]
            return False
        return True

    # ---------------------------------------------------------------- #
    def _absorb(self, stop: int) -> None:
        """Count, prioritise, shed or queue arrivals ``cursor .. stop - 1``.

        In arrival order, each at its own time: the admission verdict and
        the backlog integral both take ``t``, not the clock.
        None of these arrivals fills a batch or arms the timer (see
        :func:`_event`), so none needs an event of its own.
        """
        start = self.cursor
        if stop <= start:
            return
        self.cursor = stop
        times, priorities = self.times, self.priorities
        report, controller, brownout, admission, waiting, threshold = self._absorb_with
        report.arrivals += stop - start
        if controller is not None:
            controller.record_arrivals(times[start:stop])
        depth = len(waiting)
        # _backlog_touch(t) per queued arrival, on locals: the same float
        # operations in the same order.
        last, area, over = self._bl_last_t, self._bl_integral, self._bl_over
        for i in range(start, stop):
            t, priority = times[i], priorities[i]
            if brownout is not None and brownout.sheds(priority):
                report.shed_brownout += 1
                report.shed_by_priority[priority] += 1
                continue
            if admission is not None and not admission.admit(
                t, priority, depth, self.requests_in_flight
            ):
                report.shed_admission += 1
                report.shed_by_priority[priority] += 1
                continue
            report.admitted += 1
            report.admitted_by_priority[priority] += 1
            dt = t - last
            if dt > 0.0:
                area += depth * dt
                if depth > threshold:
                    over += dt
            last = t
            waiting.append((t, priority))
            depth += 1
        self._bl_last_t, self._bl_integral, self._bl_over = last, area, over
        if depth > self._bl_max:
            self._bl_max = depth

    @_event
    def on_arrival(self, t: float) -> None:
        """The wake-up, absorbed like any arrival: it fills a batch or
        arms the timer (or neither, when it was shed)."""
        self.wake += 1  # the simulator has moved the stream to the next entry
        if not self.waiting:
            return  # shed into an empty queue
        if len(self.waiting) >= self._effective_degree():
            self.form_batch()
        else:
            self.arm_timer()

    def arm_timer(self) -> None:
        if self.timer is not None or not self.waiting:
            return
        deadline = self.waiting[0][0] + self.policy.batch_timeout_s
        self.timer = self.sim.schedule(
            max(0.0, deadline - self.sim.now), self.timer_fired
        )

    @_event
    def timer_fired(self) -> None:
        self.timer = None
        self.form_batch()

    def form_batch(self) -> None:
        if not self.waiting:
            return
        degree = self._effective_degree()
        self._backlog_touch(self.sim.now)
        taken = self.waiting[:degree]
        del self.waiting[: len(taken)]
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None
        self.requests_in_flight += len(taken)
        chain = self.kernel.new_chain(
            n_packed=len(taken), payload=[t for t, _ in taken]
        )
        self.launch(chain)
        if self.waiting:
            self.arm_timer()

    # ---------------------------------------------------------------- #
    def launch(self, chain: AttemptChain) -> None:
        now = self.sim.now
        report = self.result.resilience
        # 429-style platform throttling: back off, retry, eventually drop.
        if self.throttle is not None:
            verdict = self.kernel.throttle_gate(chain, now)
            if not verdict.admitted:
                report.throttled_attempts += 1
                if verdict.rejected:
                    report.throttle_drops += 1
                    self.fail_batch(chain)
                    return
                self.sim.schedule(verdict.wait_s, self.relaunch, chain)
                return
        # Route to a fault domain: breakers filter by circuit state; an
        # unprotected run routes round-robin regardless of domain health —
        # the asymmetry the overload experiment measures.
        domain: Optional[int] = None
        if self.breakers is not None:
            domain = self.breakers.pick(now)
            if domain is None:
                report.breaker_deferrals += 1
                chain.deferrals += 1
                if chain.deferrals > self.cfg.max_breaker_deferrals:
                    self.fail_batch(chain)
                    return
                self.blocked.append(chain)
                self.schedule_pump()
                return
        elif self.injector is not None:
            domain = self._rotor % self.cfg.fault_domains
            self._rotor += 1
        warm = self.pool.acquire(now)
        start_latency = self.costs.start_latency(warm)
        exec_time = self.owner.exec_model.predict(
            chain.n_packed
        ) * self.kernel.exec_noise_factor(self.owner.profile.exec_noise_sigma)
        exec_time *= self.kernel.straggler_factor()
        # Gray failures: a slow-but-alive domain stretches execution without
        # crashing, so breakers (which watch failures) never trip. Draw-free,
        # so runs without gray domains keep a byte-identical RNG schedule.
        exec_time *= self.kernel.gray_factor(domain, now)
        self.result.n_dispatches += 1
        if warm:
            self.result.warm_dispatches += 1
        else:
            self.result.cold_dispatches += 1
        exec_start = now + start_latency
        crash = None
        if self.injector is not None:
            # Poisoning is per fault *domain* here (the dispatch target),
            # not per chain — a poisoned domain dooms whichever batch lands
            # on it until the domain heals.
            poisoned = domain is not None and self._domain_poisoned(domain, now)
            crash = self.kernel.crash_decision(poisoned=poisoned)
        dispatch_id = self._next_dispatch_id
        self._next_dispatch_id += 1
        if crash is None:
            event = self.sim.schedule_at(
                exec_start + exec_time, self.on_complete, dispatch_id
            )
            crashing = False
        else:
            event = self.sim.schedule_at(
                exec_start + crash.at_fraction * exec_time,
                self.on_crash,
                dispatch_id,
                crash.persistent,
            )
            crashing = True
        self.active[dispatch_id] = _ActiveDispatch(
            chain=chain,
            event=event,
            domain=domain,
            warm=warm,
            launched_at=now,
            exec_start=exec_start,
            exec_time=exec_time,
            crashing=crashing,
        )
        if self.tel is not None:
            self.tel.on_dispatch(dispatch_id, chain.n_packed, warm, domain)

    #: A throttled or retried batch launches again as an event of its own.
    relaunch = _event(launch)

    def _end(
        self, dispatch_id: int, ad: _ActiveDispatch, outcome: str, exec_s: float
    ) -> None:
        """Bill a dispatch's attempt and write its record, as it ends.

        The provider rounds each invocation, so the profile's
        :class:`~repro.platform.billing.BillingFidelity` rounds once per
        attempt, over execution plus billed init (cold starts only). An
        attempt that did not complete (``outcome`` is not ``"ok"``) bills
        wasted GB-seconds.
        """
        billed_s = self.owner._billing.fidelity.billed_seconds(
            self.costs.billed_seconds(exec_s, ad.warm)
        )
        gb_s = billed_s * self.owner._billed_gb
        self.result.exec_gb_seconds += gb_s
        if outcome != "ok":
            self.result.resilience.wasted_gb_seconds += gb_s
        self.result.dispatches.append(DispatchRecord(
            dispatch_id, ad.launched_at, self.sim.now, outcome,
            ad.chain.n_packed, ad.warm, exec_s, billed_s,
        ))

    @_event
    def on_complete(self, dispatch_id: int) -> None:
        ad = self.active.pop(dispatch_id)
        now = self.sim.now
        self._end(dispatch_id, ad, "ok", ad.exec_time)
        self.pool.release(now)
        if ad.domain is not None and self.breakers is not None:
            self.breakers.record(ad.domain, True, now)
        sojourns = [now - arrived for arrived in ad.chain.payload]
        self.result.digest.add(*sojourns)
        self.result.slo.record(now, *sojourns)
        if self.tel is not None:
            self.tel.on_complete(dispatch_id)
        self.requests_in_flight -= ad.chain.n_packed
        self.pump_blocked()

    @_event
    def on_crash(self, dispatch_id: int, persistent: bool) -> None:
        ad = self.active.pop(dispatch_id)
        now = self.sim.now
        self.result.resilience.crashes += 1
        if ad.domain is not None:
            self.crashes_by_domain[ad.domain] = (
                self.crashes_by_domain.get(ad.domain, 0) + 1
            )
        if self.tel is not None:
            self.tel.on_crash(dispatch_id, correlated=False, domain=ad.domain)
        self._end(dispatch_id, ad, "crash", max(0.0, now - ad.exec_start))
        if persistent and ad.domain is not None:
            self.poisoned_at.setdefault(ad.domain, now)
        if ad.domain is not None and self.breakers is not None:
            self.breakers.record(ad.domain, False, now)
        # The sandbox died: the instance never returns to the warm pool.
        self.retry_or_fail(ad.chain)
        self.pump_blocked()

    def retry_or_fail(self, chain: AttemptChain) -> None:
        report = self.result.resilience
        delay = self.kernel.next_retry_delay(chain)
        if delay is None:
            self.fail_batch(chain)
            return
        report.retries += 1
        report.retry_egress_gb += self._payload_gb(chain.n_packed)
        if self.tel is not None:
            self.tel.on_retry(chain.n_packed, delay)
        self.sim.schedule(delay, self.relaunch, chain)

    def fail_batch(self, chain: AttemptChain) -> None:
        chain.lost = True
        self.result.resilience.failed_requests += chain.n_packed
        self.requests_in_flight -= chain.n_packed
        if self.tel is not None:
            self.tel.on_fail_batch(chain.n_packed)

    # ---------------------------------------------------------------- #
    def schedule_pump(self) -> None:
        if self.pump_scheduled or not self.blocked or self.breakers is None:
            return
        at = self.breakers.earliest_retry(self.sim.now)
        if at is None:
            return  # an in-flight probe's completion/crash will pump instead
        self.pump_scheduled = True
        self.sim.schedule_at(at, self.pump_fired)

    @_event
    def pump_fired(self) -> None:
        self.pump_scheduled = False
        self.pump_blocked()

    def pump_blocked(self) -> None:
        if not self.blocked:
            return
        batches, self.blocked = self.blocked, []
        for batch in batches:
            self.launch(batch)  # re-parks itself if still refused
        self.schedule_pump()

    # ---------------------------------------------------------------- #
    @_event
    def on_correlated_event(self) -> None:
        """A rack/AZ-style event: each in-flight dispatch may be killed."""
        now = self.sim.now
        victims = list(self.active.items())
        if not victims:
            return
        kills = self.kernel.correlated_kills(len(victims))
        for (dispatch_id, ad), killed in zip(victims, kills):
            if not killed:
                continue
            ad.event.cancel()
            del self.active[dispatch_id]
            self.result.resilience.correlated_kills += 1
            if ad.domain is not None:
                self.crashes_by_domain[ad.domain] = (
                    self.crashes_by_domain.get(ad.domain, 0) + 1
                )
            if self.tel is not None:
                self.tel.on_crash(dispatch_id, correlated=True, domain=ad.domain)
            executed = max(0.0, min(now, ad.exec_start + ad.exec_time) - ad.exec_start)
            self._end(dispatch_id, ad, "killed", executed)
            if ad.domain is not None and self.breakers is not None:
                self.breakers.record(ad.domain, False, now)
            self.retry_or_fail(ad.chain)
        self.pump_blocked()

    # ---------------------------------------------------------------- #
    @_event
    def control_tick(self) -> None:
        now = self.sim.now
        violation = self.result.slo.recent_violation_fraction(now)
        if self.tel is not None:
            self.tel.on_tick(len(self.waiting), violation)
        if self.owner.controller is not None:
            decision = self.owner.controller.replan(now)
            if decision.changed:
                self.policy = decision.policy
                self.pool.set_capacity(decision.pool_target)
                self.result.policy_changes += 1
        if self.brownout is not None:
            self.brownout.observe(now, violation, len(self.waiting))
        if self.admission is not None:
            self.admission.observe_window(now, violation)
        # A shallower (or brownout-boosted) degree may make the current
        # backlog dispatchable immediately.
        while len(self.waiting) >= self._effective_degree():
            self.form_batch()

    @_event
    def remediation_tick(self) -> None:
        """One pass of the auto-remediation loop, inside sim time.

        Applied actions may change the packing degree or pool capacity, so
        batch formation is re-checked afterwards exactly as a control tick
        does. The loop itself draws no live RNG (shadow replays run on
        spawned streams), so an idle loop leaves the run bit-identical.
        """
        self.remedy.tick(self.sim.now)
        while len(self.waiting) >= self._effective_degree():
            self.form_batch()

    # ---------------------------------------------------------------- #
    def execute(self) -> ServingResult:
        result = self.result
        if len(self.arrivals) == 0:
            result.expense = self.owner._billing.serving_expense(0.0, 0, 0.0)
        else:
            self._serve()
        if self.remedy is not None:
            result.remediation = self.remedy.report
        if self.tel is not None:
            self.tel.record_run(result, self.owner.resilience, self.injector)
        return result

    def _serve(self) -> None:
        owner, cfg, result = self.owner, self.cfg, self.result
        self.stream = self.sim.schedule_sorted(self.arrivals, self.on_arrival)
        # Only arrivals draw from the "priority" stream, one uniform each in
        # arrival order, so one random(n) call draws the same doubles.
        self.priorities = (
            self.priority_mix.draws(self.rng.stream("priority"), len(self.times))
            if self.protection_on
            else [NORMAL] * len(self.times)
        )
        # What _absorb reads that no event changes, bound once: it runs
        # before every event, most often for one arrival.
        self._absorb_with = (
            result.resilience,
            owner.controller,
            self.brownout,
            self.admission,
            self.waiting,
            cfg.backlog_threshold,
        )
        ticking = (
            owner.controller is not None
            or self.brownout is not None
            or self.admission is not None
        )
        if ticking:
            ticks = int(math.floor(self.horizon_s / cfg.replan_interval_s))
            for k in range(1, ticks + 1):
                self.sim.schedule_at(k * cfg.replan_interval_s, self.control_tick)
        if self.remedy is not None:
            interval = self.remedy.config.tick_interval_s
            for k in range(1, int(math.floor(self.horizon_s / interval)) + 1):
                self.sim.schedule_at(k * interval, self.remediation_tick)
        if self.injector is not None and owner.scenario.correlated_bursts > 0:
            times = self.rng.stream("fault.correlated.times").uniform(
                0.0, self.horizon_s, owner.scenario.correlated_bursts
            )
            for t in sorted(float(t) for t in times):
                self.sim.schedule_at(t, self.on_correlated_event)

        self.sim.run()
        # Every arrival is absorbed by now: an event follows each one, a
        # timer while the queue holds requests and a wake-up otherwise.
        # Flush the tail still waiting when arrivals stop, then drain the
        # retries/completions those dispatches scheduled.
        while self.waiting:
            self.form_batch()
        self.sim.run()
        # Safety net: a batch still parked on permanently-open breakers
        # after the agenda drained is failed, preserving conservation.
        for batch in self.blocked:
            self.fail_batch(batch)
        self.blocked.clear()

        self.stream = None  # its callback is this run: let the run be freed
        result.dispatches.sort()  # written as dispatches end; ids are unique
        end_time = max(self.sim.now, self.horizon_s)
        self.pool.drain(end_time)
        self._backlog_touch(self.sim.now)
        result.backlog.mean_depth = (
            self._bl_integral / end_time if end_time > 0.0 else 0.0
        )
        result.backlog.time_over_threshold_s = self._bl_over
        result.backlog.max_depth = self._bl_max
        result.replans = owner.controller.replans if owner.controller else 0
        result.final_degree = self.policy.degree
        result.evictions = self.pool.stats.evictions
        result.idle_gb_seconds = self.pool.stats.idle_seconds * owner._billed_gb
        if self.breakers is not None:
            result.resilience.breaker_transitions = self.breakers.n_transitions
            result.resilience.breaker_opens = sum(
                1
                for b in self.breakers.breakers
                for (_, _, dst) in b.transitions
                if dst == "open"
            )
        if self.brownout is not None:
            result.resilience.brownout_escalations = self.brownout.escalations
            result.resilience.brownout_max_level = self.brownout.max_level_seen
        result.expense = owner._billing.serving_expense(
            result.exec_gb_seconds,
            result.n_dispatches,
            result.idle_gb_seconds,
            egress_gb=result.resilience.retry_egress_gb,
        )


class _RemediationPort:
    """The narrow adapter the remediation loop drives a live run through.

    Implements both halves of the loop's contract (see
    ``repro.remediation.loop.RemediationPort``): read-only health signals
    for the detectors and typed actuation for the actions. Serving keeps no
    import on ``repro.remediation`` — the coupling is duck-typed here, and
    the layering test keeps the dependency one-directional.
    """

    def __init__(self, run: _ServingRun) -> None:
        self._run = run

    # --- health signals ------------------------------------------------ #
    def violation_fraction(self, now: float) -> float:
        return self._run.result.slo.recent_violation_fraction(now)

    @property
    def backlog_depth(self) -> int:
        return len(self._run.waiting)

    @property
    def backlog_threshold(self) -> int:
        return self._run.cfg.backlog_threshold

    @property
    def in_flight(self) -> int:
        return self._run.requests_in_flight

    @property
    def arrivals_total(self) -> int:
        return self._run.result.resilience.arrivals

    @property
    def n_domains(self) -> int:
        # Quarantine needs a breaker bank to actuate through; without one
        # the loop sees zero domains and the domain detectors stay silent.
        breakers = self._run.breakers
        return len(breakers) if breakers is not None else 0

    def open_domains(self) -> tuple[int, ...]:
        breakers = self._run.breakers
        if breakers is None:
            return ()
        return tuple(
            d for d, b in enumerate(breakers.breakers) if b.state == "open"
        )

    def breaker_flaps(self) -> tuple[int, ...]:
        breakers = self._run.breakers
        return tuple(breakers.flaps_by_domain()) if breakers is not None else ()

    def crashes_by_domain(self) -> tuple[int, ...]:
        return tuple(
            self._run.crashes_by_domain.get(d, 0) for d in range(self.n_domains)
        )

    def poisoned_domains(self, now: float) -> tuple[int, ...]:
        run = self._run
        return tuple(sorted(
            d for d in list(run.poisoned_at) if run._domain_poisoned(d, now)
        ))

    # --- actuators ------------------------------------------------------ #
    def get_degree(self) -> int:
        return self._run.policy.degree

    def set_degree(self, degree: int) -> None:
        run = self._run
        clamped = max(1, min(int(degree), run.max_degree))
        run.policy = StreamingPolicy(
            degree=clamped, batch_timeout_s=run.policy.batch_timeout_s
        )
        run.result.policy_changes += 1

    @property
    def max_degree(self) -> int:
        return self._run.max_degree

    def get_pool_capacity(self) -> Optional[int]:
        return self._run.pool.capacity

    def set_pool_capacity(self, capacity: Optional[int]) -> None:
        self._run.pool.set_capacity(capacity)

    def get_admission_limit(self) -> Optional[int]:
        admission = self._run.admission
        if admission is None or not getattr(
            admission, "supports_limit_override", False
        ):
            return None
        return int(admission.concurrency_limit)

    def set_admission_limit(self, limit: int) -> None:
        self._run.admission.set_limit(limit)

    def quarantined_domains(self) -> frozenset[int]:
        breakers = self._run.breakers
        return frozenset(breakers.quarantined) if breakers is not None else frozenset()

    def quarantine_domain(self, domain: int) -> None:
        self._run.breakers.quarantine(domain)

    def release_domain(self, domain: int) -> None:
        self._run.breakers.release(domain)

    # --- shadow materials & determinism seams --------------------------- #
    def shadow_materials(self) -> dict:
        run = self._run
        owner = run.owner
        breakers = run.breakers
        failure_threshold = None
        recovery_s = 30.0
        if breakers is not None and breakers.breakers:
            failure_threshold = breakers.breakers[0].failure_threshold
            recovery_s = breakers.breakers[0].recovery_s
        return {
            "profile": owner.profile,
            "app": owner.app,
            "exec_model": owner.exec_model,
            "config": owner.config,
            "scenario": owner.scenario,
            "retry_policy": owner.retry_policy,
            "batch_timeout_s": run.policy.batch_timeout_s,
            "warm_ttl_s": run.pool.policy.keep_alive_s(),
            "breaker_failure_threshold": failure_threshold,
            "breaker_recovery_s": recovery_s,
        }

    def predict_exec_s(self, degree: int) -> float:
        return self._run.owner.exec_model.predict(max(1, int(degree)))

    def shadow_seed(self, label: str) -> int:
        """Deterministic shadow seed spawned off the live run's streams —
        spawning consumes no parent draws, so the live run is unperturbed."""
        return self._run.rng.spawn(label).seed

    @property
    def live_horizon_s(self) -> float:
        return self._run.horizon_s

    # --- telemetry ------------------------------------------------------ #
    def emit(self, stage: str, **fields) -> None:
        if self._run.tel is not None:
            self._run.tel.on_remediation(stage, **fields)
