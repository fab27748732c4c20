"""The event-driven burst dispatch kernel (the Step-Functions role).

Drives attempt chains through the full cold pipeline on the discrete-event
simulator: placement scheduling ∥ container build → shipping → execution.
Supports the *wave* dispatch pattern used by the Pywren baseline (at most
``wave_size`` instances are provisioned cold; finished instances are
reused warm — execution only, no build/ship), speculative hedging of
straggling attempts, billed timeouts, 429 admission throttling, and
correlated crash events.

All retry/fault/throttle arbitration is inherited from
:class:`~repro.engine.kernel.DispatchKernel`; this module adds the
event-driven driver and the burst-specific accounting. What a chain runs
is data, not behaviour: each chain carries a :class:`ChainWork` — the
image it builds and ships, its noise-free execution seconds, and the
``(app, functions)`` pairs whose I/O a successful attempt stores. A
homogeneous burst derives one record per packing degree; heterogeneous
dispatchers — e.g. the mixed-packing simulator — hand :meth:`begin` one
record per chain and run the identical lifecycle.

The loop simulates only what it cannot compute. A container build is a
k-slot FIFO, so :meth:`ContainerPipeline.build` returns its finish at
admission; the placement event ships the container then if the build is
done, and otherwise pushes one event at the build's exact finish. Each
attempt is a row of column lists (one per
:class:`~repro.platform.metrics.InstanceRecord` field) that
:meth:`BurstDispatchKernel.collect` hands to
:class:`~repro.platform.metrics.RecordTable`; handlers pass record ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

import numpy as np

from repro.cluster.registry import FunctionImage
from repro.cluster.server import Server
from repro.engine.chain import AttemptChain
from repro.engine.kernel import DispatchKernel
from repro.faults.retry import HedgePolicy, RetryPolicy
from repro.faults.scenario import FaultScenario
from repro.interference.model import InterferenceModel
from repro.platform.billing import BillingModel
from repro.platform.container import ContainerPipeline
from repro.platform.metrics import (
    FaultStats,
    InstanceRecord,
    RecordTable,
    RunResult,
    sequential_sum,
)
from repro.platform.providers import PlatformProfile
from repro.platform.scheduler import PlacementScheduler
from repro.platform.storage import ObjectStore
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.workloads.base import AppSpec

if TYPE_CHECKING:  # annotation-only: keeps the hot import path lean
    from repro.telemetry.instruments import BurstInstrumentation


class FunctionTimeoutError(RuntimeError):
    """An instance exceeded the platform's maximum execution time.

    The aborting attempt is billed for the full execution cap (Lambda
    semantics): its record carries ``exec_end = exec_start + cap`` and the
    exception reports the dollars charged for the doomed attempt.
    """

    def __init__(
        self,
        message: str,
        record: Optional[InstanceRecord] = None,
        billed_usd: float = 0.0,
    ) -> None:
        super().__init__(message)
        self.record = record
        self.billed_usd = billed_usd


@dataclass(frozen=True)
class BurstSpec:
    """One burst request.

    ``concurrency`` is the number of logical functions ``C``; the burst
    spawns ``ceil(C / packing_degree)`` instances (the last instance may be
    partially packed). ``provisioned_mb`` defaults to the platform maximum,
    matching the paper's setup ("we use Lambdas with the maximum memory
    size"). ``wave_size`` caps simultaneously provisioned instances;
    ``build_factor``/``ship_factor`` discount the cold-start pipeline
    (used by the Pywren baseline), and ``exec_overhead`` multiplies
    execution wall time (e.g. Pywren's S3 (de)serialization inside the
    handler — it is billed, because it runs inside the function).

    ``scenario`` injects a fault environment, ``retry_policy`` overrides
    the platform's immediate-retry default, and ``hedge`` enables
    speculative re-execution of straggling attempts.
    """

    app: AppSpec
    concurrency: int
    packing_degree: int = 1
    provisioned_mb: Optional[int] = None
    wave_size: Optional[int] = None
    build_factor: float = 1.0
    ship_factor: float = 1.0
    exec_overhead: float = 1.0
    warm_dispatch_s: float = 0.05
    extra_io_mb_per_function: float = 0.0
    # Coefficient of variation of per-function work (input skew). A packed
    # instance finishes with its slowest function, so skew stretches packed
    # execution times beyond the homogeneous model's prediction.
    skew_cv: float = 0.0
    scenario: Optional[FaultScenario] = None
    retry_policy: Optional[RetryPolicy] = None
    hedge: Optional[HedgePolicy] = None

    def __post_init__(self) -> None:
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.packing_degree < 1:
            raise ValueError("packing degree must be >= 1")
        if self.packing_degree > self.concurrency:
            raise ValueError(
                f"packing degree {self.packing_degree} exceeds concurrency "
                f"{self.concurrency}"
            )
        if self.wave_size is not None and self.wave_size < 1:
            raise ValueError("wave_size must be >= 1")
        if self.provisioned_mb is not None and self.provisioned_mb < 1:
            raise ValueError(f"provisioned_mb must be >= 1 (got {self.provisioned_mb})")
        # NaN passes every comparison below, so finiteness is checked first.
        for name in ("build_factor", "ship_factor", "exec_overhead",
                     "warm_dispatch_s", "extra_io_mb_per_function", "skew_cv"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite (got {value})")
        if self.skew_cv < 0.0:
            raise ValueError("skew_cv must be non-negative")
        for name in ("build_factor", "ship_factor"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive (got {getattr(self, name)})")
        if self.exec_overhead < 1.0:
            raise ValueError("exec_overhead must be >= 1.0")
        if self.warm_dispatch_s < 0.0:
            raise ValueError(f"warm_dispatch_s must be >= 0 (got {self.warm_dispatch_s})")
        if self.extra_io_mb_per_function < 0.0:
            raise ValueError(
                "extra_io_mb_per_function must be >= 0 "
                f"(got {self.extra_io_mb_per_function})"
            )

    @property
    def n_instances(self) -> int:
        return math.ceil(self.concurrency / self.packing_degree)


@dataclass(frozen=True)
class ChainWork:
    """What one attempt chain runs, as data every attempt reads.

    ``image`` is the container each attempt builds and ships,
    ``exec_seconds`` the noise-free modeled execution time of one attempt,
    and ``outputs`` the ``(app, functions)`` pairs whose I/O a successful
    attempt stores: one pair for a homogeneous chain, one per member app
    for a mixed or fused group. ``n_packed``, their total, is derived once.
    """

    image: FunctionImage
    exec_seconds: float
    outputs: tuple[tuple[AppSpec, int], ...]
    n_packed: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_packed", sum(count for _, count in self.outputs))


#: Index of each per-:class:`ChainWork` constant in a burst's cost tuple:
#: noise-free build seconds, ship MB, CPU-share penalty, hedge threshold.
_BUILD_S, _SHIP_MB, _PENALTY, _HEDGE_AT = range(4)

_NAN = math.nan


class BurstDispatchKernel(DispatchKernel):
    """Executes one :class:`BurstSpec` on a fresh simulation."""

    def __init__(
        self,
        sim: Simulator,
        profile: PlatformProfile,
        scheduler: PlacementScheduler,
        pipeline: ContainerPipeline,
        store: ObjectStore,
        rng: RandomStreams,
        interference: InterferenceModel,
        enforce_timeout: bool = True,
        telemetry: Optional["BurstInstrumentation"] = None,
    ) -> None:
        super().__init__(rng)
        self.sim = sim
        self.profile = profile
        self.scheduler = scheduler
        self.pipeline = pipeline
        self.store = store
        self.interference = interference
        self.enforce_timeout = enforce_timeout
        # Read by fluid_ineligibility and when the burst ends (collect, or
        # run's abort path); the event loop never reads it.
        self._tel = telemetry
        # Why the fluid replay declined this burst (set by try_run_fluid).
        self._fallback_reason: Optional[str] = None
        self._pending_functions = 0
        # Chain moments, which no record holds, in the order they happen:
        # (time, "retry", chain, next attempt, delay s), (time, "throttled",
        # chain, consecutive 429s), (time, "hedge", chain) and (time, "lost",
        # chain, functions, by a final 429). collect derives the burst's
        # counts and its chain telemetry from them.
        self._moments: list[tuple] = []
        self._inflight: dict[int, tuple] = {}  # record id -> (event, server)

    def _configure(self, spec: BurstSpec, image: Optional[FunctionImage]) -> int:
        """Bind ``spec`` to this kernel and return its cold-chain count.

        Every burst is set up here — by :meth:`begin` and by the fluid
        replay: the fault environment (:meth:`bind`), the provisioned-memory
        check and the number of chains provisioned cold (every instance, or
        at most ``wave_size``). A homogeneous burst (``image`` given) also
        gets its chain records, one per packing degree: an instance packs
        the full degree, except the last one, cold or warm, which packs
        what is left. No event is scheduled and no random draw is made.
        """
        self._spec = spec
        n_inst = spec.n_instances
        cold = n_inst if spec.wave_size is None else min(n_inst, spec.wave_size)
        self._invoked_at = self.sim.now

        self.bind(self.profile, spec.scenario, spec.retry_policy)

        provisioned = spec.provisioned_mb or self.profile.max_memory_mb
        if provisioned > self.profile.max_memory_mb:
            raise ValueError(
                f"provisioned memory {provisioned} MB exceeds the platform "
                f"maximum {self.profile.max_memory_mb} MB"
            )
        self._provisioned = provisioned
        self._work_by_degree: dict[int, ChainWork] = {}
        if image is not None:
            last = spec.concurrency - spec.packing_degree * (n_inst - 1)
            for n in (spec.packing_degree, last):
                self._work_by_degree[n] = ChainWork(
                    image,
                    self.interference.execution_seconds(spec.app, n, cold),
                    ((spec.app, n),),
                )
        return cold

    def begin(
        self, spec: BurstSpec, work: Union[FunctionImage, Sequence[ChainWork]]
    ) -> None:
        """Enqueue the burst's invocations at the current simulation time.

        ``work`` is a homogeneous burst's image, from which the kernel
        derives its chains, or one :class:`ChainWork` per chain: the burst
        then runs exactly those chains, all cold, and ``spec`` supplies
        only the burst-wide settings (see
        :mod:`repro.extensions.mixed_sim`).

        Does not drive the simulation — callers sharing one simulator
        across bursts (see :mod:`repro.platform.multitenant`) call
        ``begin`` per burst, run the simulator once, then ``collect``.
        """
        if isinstance(work, FunctionImage):
            cold = self._configure(spec, work)
            remaining = spec.concurrency
            work = []
            for _ in range(cold):
                n_packed = min(spec.packing_degree, remaining)
                remaining -= n_packed
                work.append(self._work_by_degree[n_packed])
            self._pending_functions = remaining
            self._open_columns(spec, self._work_by_degree.values())
        else:
            self._configure(spec, None)
            self._open_columns(spec, work)
        for chain_work in work:
            chain = self.new_chain(n_packed=chain_work.n_packed, payload=chain_work)
            self._admit(chain, attempt=1, retry_delay=0.0)

        for t in self.correlated_event_times():
            self.sim.schedule(t, self._correlated_event)

    def _open_columns(self, spec: BurstSpec, works: Iterable[ChainWork]) -> None:
        """Allocate the event loop's per-attempt columns and derive the
        constants of each distinct chain record in ``works``.

        Each attempt is one row: its index is its record id, and each
        column holds one :class:`~repro.platform.metrics.InstanceRecord`
        field (NaN for an unset timestamp). A fault flag is the list of
        the record ids that set it. ``_build_done`` holds the instant each
        attempt's build finishes, and ``_cost`` its chain's constants:
        noise-free build seconds, ship MB, CPU-share penalty and hedge
        threshold, derived once per :class:`ChainWork` instead of once or
        twice per attempt.
        """
        self._chains: list[AttemptChain] = []
        self._invoked: list[float] = []
        self._sched: list[float] = []
        self._built: list[float] = []
        self._shipped: list[float] = []
        self._exec_start: list[float] = []
        self._exec_end: list[float] = []
        self._npacked: list[int] = []
        self._attempt: list[int] = []
        self._warm: list[bool] = []
        self._hedged: list[bool] = []
        self._throttled: list[int] = []
        self._retry_delay: list[float] = []
        self._failed: list[int] = []
        self._timed_out: list[int] = []
        self._correlated: list[int] = []
        self._persistent: list[int] = []
        self._cancelled: list[int] = []
        self._build_done: list[float] = []
        self._cost: list[tuple] = []

        pipeline = self.pipeline
        hedge = spec.hedge
        costs: dict[int, tuple] = {}
        for chain_work in works:
            if id(chain_work) in costs:
                continue
            penalty = self._cpu_share_penalty(chain_work.n_packed, self._provisioned)
            # The hedge trigger compares against the *modeled* (noise-free)
            # execution time, the quantity a real controller would know.
            hedge_at = math.inf if hedge is None else hedge.trigger_seconds(
                chain_work.exec_seconds * spec.exec_overhead * penalty
            )
            costs[id(chain_work)] = (
                pipeline.build_seconds(chain_work.image, spec.build_factor),
                pipeline.ship_size_mb(chain_work.image, spec.ship_factor),
                penalty,
                hedge_at,
            )
        self._costs = costs

    def _row(
        self, chain: AttemptChain, now: float, attempt: int, hedged: bool,
        warm: bool, throttled: int, retry_delay: float,
    ) -> int:
        """Append one attempt of ``chain``, invoked at ``now``; its record id."""
        rid = len(self._chains)
        self._chains.append(chain)
        self._invoked.append(now)
        self._sched.append(_NAN)
        self._built.append(_NAN)
        self._shipped.append(_NAN)
        self._exec_start.append(_NAN)
        self._exec_end.append(_NAN)
        self._npacked.append(chain.n_packed)
        self._attempt.append(attempt)
        self._warm.append(warm)
        self._hedged.append(hedged)
        self._throttled.append(throttled)
        self._retry_delay.append(retry_delay)
        self._cost.append(self._costs[id(chain.payload)])
        chain.track(rid)
        return rid

    def _record_table(self, offset: float = 0.0) -> RecordTable:
        """The attempts so far as a table, ``offset`` subtracted from every
        timestamp (NaN stays NaN), as a per-record ``-=`` would."""
        n = len(self._chains)

        def stamps(column: list[float]) -> np.ndarray:
            values = np.array(column, dtype=np.float64)
            return values - offset if offset else values

        def flags(ids: list[int]) -> np.ndarray:
            mask = np.zeros(n, dtype=bool)
            mask[np.array(ids, dtype=np.int64)] = True
            return mask

        return RecordTable(
            instance_id=np.arange(n),
            n_packed=self._npacked,
            invoked_at=stamps(self._invoked),
            sched_done=stamps(self._sched),
            built_at=stamps(self._built),
            shipped_at=stamps(self._shipped),
            exec_start=stamps(self._exec_start),
            exec_end=stamps(self._exec_end),
            provisioned_mb=np.full(n, self._provisioned),
            warm_start=self._warm,
            attempt=self._attempt,
            failed=flags(self._failed),
            timed_out=flags(self._timed_out),
            correlated=flags(self._correlated),
            persistent_fault=flags(self._persistent),
            hedged=self._hedged,
            cancelled=flags(self._cancelled),
            throttled_attempts=self._throttled,
            retry_delay_s=self._retry_delay,
        )

    def collect(self, table: Optional[RecordTable] = None) -> RunResult:
        """Bill the burst and assemble its result; every burst ends here.

        The fluid replay passes the record table it wrote (its burst starts
        at t=0). After the event loop, ``table`` is None: the table is built
        from the kernel's columns, normalized to the burst's own invocation
        instant, so a burst submitted mid-simulation reports the same
        metrics as one submitted at t=0. An observed burst is reported to
        its telemetry from that table and from its chain moments, which
        stay on the simulator clock.
        """
        invoked_at = self._invoked_at
        kernel_path = "event" if table is None else "fluid"
        if table is None:
            table = self._record_table(invoked_at)
        billing = BillingModel(self.profile)
        expense = billing.burst_expense(table, self.store.usage)
        if self._tel is not None:
            self._tel.record_burst(
                table, invoked_at, kernel_path, self._fallback_reason,
                self._search_costs(), self, self._moments,
            )
        return RunResult(
            platform_name=self.profile.name,
            app_name=self._spec.app.name,
            concurrency=self._spec.concurrency,
            packing_degree=self._spec.packing_degree,
            table=table,
            expense=expense,
            lost_functions=sum(m[3] for m in self._moments if m[1] == "lost"),
            fault_stats=self._fault_stats(billing, table),
            kernel_path=kernel_path,
            fallback_reason=self._fallback_reason,
        )

    def _search_costs(self) -> Optional[tuple[float, float]]:
        """The serial scheduler's ``(base, search)`` seconds per placement,
        from which the telemetry derives each cold attempt's search; None
        for a sharded scheduler, whose searches it does not export."""
        scheduler = self.scheduler
        if type(scheduler) is not PlacementScheduler:
            return None
        return scheduler.base_cost_s, scheduler.search_cost_s

    def _fault_stats(self, billing: BillingModel, table: RecordTable) -> FaultStats:
        """The burst's fault counters, derived when it ends.

        The attempt counts and the billed and wasted GB-seconds of the
        executed attempts come from the table, summed in record order; the
        retry and throttle counts come from the chain moments, the retry
        delays summed in the order the retries were scheduled."""
        moments = self._moments
        seconds = table.exec_end - table.exec_start  # NaN where either is unset
        executed = ~np.isnan(seconds)
        gbs = (
            seconds[executed]
            * billing.billed_memory_mb_array(table.provisioned_mb[executed])
            / 1024.0
        )
        wasted = ~table.successful()[executed]  # crashed, timed out or cancelled
        delays = [m[4] for m in moments if m[1] == "retry"]
        return FaultStats(
            crashed_attempts=int(np.count_nonzero(table.failed)),
            correlated_crashes=int(np.count_nonzero(table.correlated)),
            timed_out_attempts=int(np.count_nonzero(table.timed_out)),
            throttled_attempts=sum(1 for m in moments if m[1] == "throttled"),
            throttle_rejections_final=sum(m[4] for m in moments if m[1] == "lost"),
            hedged_attempts=int(np.count_nonzero(table.hedged)),
            hedge_wins=int(np.count_nonzero(table.hedged & table.successful())),
            retries_scheduled=len(delays),
            retry_delay_s_total=sequential_sum(np.array(delays, dtype=float)),
            wasted_billed_gb_seconds=sequential_sum(gbs[wasted]),
            total_billed_gb_seconds=sequential_sum(gbs),
        )

    def run(self, spec: BurstSpec, image: FunctionImage) -> RunResult:
        """Simulate a homogeneous burst to completion and return its result.

        An eligible burst (no faults, hedging or telemetry, on a fresh
        datacenter — see :func:`repro.engine.fluid.fluid_ineligibility`)
        skips the event loop and replays the pipeline's closed-form
        timeline instead, producing a byte-identical result in
        O(instances) array work; every other burst runs on the
        event-driven path. A burst that aborts there (a billed timeout,
        fleet exhaustion) still reports the attempts it ran, the aborting
        one included, and its chain moments to its telemetry before the
        error propagates.
        """
        # Resolved per call: tests replace try_run_fluid to reach the
        # event-loop reference.
        from repro.engine.fluid import try_run_fluid

        result = try_run_fluid(self, spec, image)
        if result is not None:
            return result
        self.begin(spec, image)
        try:
            self.sim.run()
        except RuntimeError:  # a billed timeout or fleet exhaustion
            if self._tel is not None:
                # A build that finished by the abort has its instant, though
                # its attempt was not placed: no event was due to write it.
                now = self.sim.now
                built = self._built
                for rid, done in enumerate(self._build_done):
                    if done <= now and built[rid] != built[rid]:
                        built[rid] = done
                # Records still on the simulator clock: no offset to add.
                self._tel.record_burst(
                    self._record_table(), 0.0, "event",
                    self._fallback_reason, self._search_costs(), self,
                    self._moments,
                )
            raise
        return self.collect()

    # ------------------------------------------------------------------ #
    # Admission (throttle gate) and the cold pipeline
    # ------------------------------------------------------------------ #
    def _admit(
        self,
        chain: AttemptChain,
        attempt: int,
        retry_delay: float,
        hedged: bool = False,
    ) -> None:
        """Admit one attempt of ``chain``, or bounce it off the throttle.

        A final rejection loses the chain, unless the attempt is a hedge:
        then only the hedge is dropped, and its primary runs on.
        """
        if chain.satisfied or chain.lost:
            return
        now = self.sim.now
        if self.bucket is not None:
            verdict = self.throttle_gate(chain, now)
            if not verdict.admitted:
                self._moments.append((now, "throttled", chain.chain_id, chain.throttle_tries))
                if verdict.rejected:
                    if not hedged:
                        self._lose(chain, rejected=True)
                    return
                self.sim.schedule(
                    verdict.wait_s, self._admit, chain, attempt, retry_delay, hedged
                )
                return
        rid = self._row(
            chain, now, attempt, hedged, False, chain.throttle_tries, retry_delay
        )
        chain.throttle_tries = 0
        # Placement search and container build proceed in parallel: the
        # image server does not need the placement target to build. The
        # build's finish is known now; _placed reads it.
        self._build_done.append(self.pipeline.build(self._cost[rid][_BUILD_S]))
        self.scheduler.request_placement(
            self.profile.cores_per_instance, self._provisioned, self._placed, rid
        )

    def _placed(self, server: Server, rid: int) -> None:
        # A container ships once it is both built and placed: now, if its
        # build finished by its placement, else at its build's finish.
        now = self.sim.now
        self._sched[rid] = now
        done = self._build_done[rid]
        if done <= now:
            self._built[rid] = done
            self._ship(server, rid)
        else:
            self.sim._push(done, self._built_late, (server, rid))

    def _built_late(self, server: Server, rid: int) -> None:
        self._built[rid] = self.sim.now
        self._ship(server, rid)

    def _ship(self, server: Server, rid: int) -> None:
        self.pipeline.network.ship(self._cost[rid][_SHIP_MB], self._arrived, server, rid)

    def _arrived(self, server: Server, rid: int) -> None:
        self._shipped[rid] = self.sim.now
        self._start_execution(server, rid)

    # ------------------------------------------------------------------ #
    # Execution, faults, and completion
    # ------------------------------------------------------------------ #
    def _cpu_share_penalty(self, n_packed: int, provisioned_mb: int) -> float:
        """Memory-proportional CPU (Lambda semantics).

        Providers scale an instance's CPU share with its provisioned
        memory — at the platform maximum the instance has all its cores; a
        right-sized small instance gets a fraction of one. Each packed
        function needs roughly one core-equivalent
        (``max_memory / cores`` MB) to run at full speed. The penalty is
        expressed *relative to the max-memory configuration* the
        interference model was calibrated on, so it is exactly 1.0 whenever
        the burst provisions maximum memory (the paper's setup).
        """
        mem_per_core = self.profile.max_memory_mb / self.profile.cores_per_instance
        need_mb = n_packed * mem_per_core
        actual = max(1.0, need_mb / provisioned_mb)
        calibrated = max(1.0, need_mb / self.profile.max_memory_mb)
        return actual / calibrated

    def _skew_factor(self, n_packed: int) -> float:
        """Max of ``n_packed`` unit-mean lognormal work draws (input skew)."""
        cv = self._spec.skew_cv
        if cv <= 0.0:
            return 1.0
        sigma = float(np.sqrt(np.log1p(cv * cv)))
        draws = self.rng.stream("skew").lognormal(-0.5 * sigma * sigma, sigma, n_packed)
        return float(draws.max())

    def record_chain_ids(self) -> list[int]:
        """The id of the chain each attempt record ran, in record order.

        Chains get ids in the order :meth:`begin` creates them, so a burst
        begun with one :class:`ChainWork` per plan group reads each
        record's group here; a retry or hedge runs its chain again.
        """
        return [chain.chain_id for chain in self._chains]

    def _release(self, server: Server) -> None:
        """Free an attempt's server slot. Every instance of a burst has one
        shape: the profile's cores per instance and the provisioned MB."""
        server.release(self.profile.cores_per_instance, self._provisioned)

    def _start_execution(self, server: Server, rid: int) -> None:
        chain = self._chains[rid]
        now = self.sim.now
        if chain.satisfied:
            # A hedge twin already delivered this group's result while this
            # copy was still in the cold pipeline; abandon before executing.
            self._cancelled.append(rid)
            self._exec_start[rid] = self._exec_end[rid] = now
            chain.untrack(rid)
            self._release(server)
            return
        self._exec_start[rid] = now
        duration = (
            chain.payload.exec_seconds
            * self.exec_noise_factor(self.profile.exec_noise_sigma)
            * self._spec.exec_overhead
            * self._skew_factor(chain.n_packed)
            * self._cost[rid][_PENALTY]
        )
        duration *= self.straggler_factor()
        if self.enforce_timeout and duration > self.profile.max_execution_seconds:
            if self.scenario is not None:
                self._schedule_timeout(server, rid)
                return
            # The abort's one row, built once per burst at most.
            record = self._record_table().to_records()[rid]
            error = self._timeout_error(record, duration)
            self._exec_end[rid] = error.record.exec_end
            self._timed_out.append(rid)
            self._release(server)
            raise error
        if self.crash_rate > 0.0:  # else no attempt crashes, so none is poisoned
            decision = self.chain_crash_decision(chain)
            if decision is not None:
                if chain.poisoned:
                    self._persistent.append(rid)
                # Crash at a uniform point of the execution; the partial run
                # is billed (providers charge failed attempts), then retried.
                crash_after = duration * decision.at_fraction
                event = self.sim.schedule(crash_after, self._exec_failed, server, rid)
                self._inflight[rid] = (event, server)
                return
        event = self.sim.schedule(duration, self._exec_done, server, rid)
        self._inflight[rid] = (event, server)
        self._maybe_schedule_hedge(chain, rid, duration)

    def _timeout_error(
        self, record: InstanceRecord, duration: float
    ) -> FunctionTimeoutError:
        """The abort of an attempt whose ``duration`` exceeds the cap.

        Lambda bills a timed-out attempt for the full execution cap: the
        record is marked timed out, ending one cap after its start, and
        the error carries that charge. The event loop and the fluid replay
        both raise it.
        """
        cap = self.profile.max_execution_seconds
        record.exec_end = record.exec_start + cap
        record.timed_out = True
        billed = (
            BillingModel(self.profile).instance_compute_usd(record)
            + self.profile.per_request_usd
        )
        return FunctionTimeoutError(
            f"{self._spec.app.name}: instance {record.instance_id} would run "
            f"{duration:.0f}s > platform cap {cap:.0f}s "
            f"(packing degree {record.n_packed})",
            record=record,
            billed_usd=billed,
        )

    def _maybe_schedule_hedge(self, chain: AttemptChain, rid: int, duration: float) -> None:
        hedge = self._spec.hedge
        if (
            hedge is None
            or self._hedged[rid]
            or self._warm[rid]
            or chain.hedges_launched >= hedge.max_hedges_per_group
        ):
            return
        threshold = self._cost[rid][_HEDGE_AT]
        if duration <= threshold:
            return
        chain.hedges_launched += 1
        self._moments.append((self.sim.now, "hedge", chain.chain_id))
        self.sim.schedule(threshold, self._launch_hedge, chain, rid)

    def _launch_hedge(self, chain: AttemptChain, primary: int) -> None:
        if primary not in self._inflight:
            return  # the primary already crashed; the retry path owns recovery
        self._admit(chain, attempt=self._attempt[primary], retry_delay=0.0, hedged=True)

    def _schedule_timeout(self, server: Server, rid: int) -> None:
        """The attempt runs to the cap, is billed in full, then handled."""
        cap = self.profile.max_execution_seconds
        event = self.sim.schedule(cap, self._exec_timed_out, server, rid)
        self._inflight[rid] = (event, server)

    def _exec_timed_out(self, server: Server, rid: int) -> None:
        self._inflight.pop(rid, None)
        self._exec_end[rid] = self.sim.now
        self._timed_out.append(rid)
        self._release(server)
        chain = self._chains[rid]
        chain.untrack(rid)
        self._refetched_inputs(chain)
        if self._spec.scenario is not None and not self._spec.scenario.retry_timeouts:
            if not chain.active and not chain.satisfied and not chain.lost:
                self._lose(chain)
            return
        self._retry_or_lose(chain)

    def _correlated_event(self) -> None:
        """One correlated infrastructure event: a slice of in-flight
        instances crash together (rack/AZ blast radius). An attempt in
        flight has neither crashed nor timed out: both leave the set."""
        victims = sorted(self._inflight)
        if not victims:
            return
        kills = self.correlated_kills(len(victims))
        for rid, kill in zip(victims, kills):
            if not kill:
                continue
            entry = self._inflight.get(rid)
            if entry is None:
                continue
            event, server = entry
            event.cancel()
            self._correlated.append(rid)
            self._exec_failed(server, rid)

    def _exec_failed(self, server: Server, rid: int) -> None:
        self._inflight.pop(rid, None)
        self._exec_end[rid] = self.sim.now
        self._failed.append(rid)
        self._release(server)  # the crash destroys the container
        chain = self._chains[rid]
        self._refetched_inputs(chain)
        chain.untrack(rid)
        self._retry_or_lose(chain)

    def _refetched_inputs(self, chain: AttemptChain) -> None:
        """Charge a failed attempt's inputs, per member app of its chain.

        The attempt fetched its inputs before dying; a retry re-pays the
        transfer (and the egress fee, on providers that charge one). A mixed
        or fused chain fetched each member app's inputs, as its successful
        attempt would have stored each app's outputs.
        """
        for app, count in chain.payload.outputs:
            self.store.record_failed_attempt(app, count)

    def _lose(self, chain: AttemptChain, rejected: bool = False) -> None:
        """Give ``chain`` up, with its functions (``rejected``: by a final 429)."""
        chain.lost = True
        self._moments.append(
            (self.sim.now, "lost", chain.chain_id, chain.n_packed, rejected)
        )

    def _retry_or_lose(self, chain: AttemptChain) -> None:
        if chain.satisfied or chain.lost:
            return
        if chain.active:
            return  # a hedge twin of this group is still in flight
        delay = self.next_retry_delay(chain)
        if delay is None:
            self._lose(chain)
            return
        attempt = chain.attempt
        self._moments.append((self.sim.now, "retry", chain.chain_id, attempt, delay))
        # A retry is a fresh invocation: full placement + cold pipeline.
        if delay <= 0.0:
            self._admit(chain, attempt=attempt, retry_delay=0.0)
        else:
            self.sim.schedule(delay, self._admit, chain, attempt, delay)

    def _exec_done(self, server: Server, rid: int) -> None:
        self._inflight.pop(rid, None)
        self._exec_end[rid] = self.sim.now
        chain = self._chains[rid]
        chain.untrack(rid)
        if chain.satisfied:
            # Lost a hedge race after executing fully; billed, no result.
            self._cancelled.append(rid)
            self._release(server)
            return
        chain.satisfied = True
        self._cancel_twins(chain)
        for app, count in chain.payload.outputs:
            self.store.record_instance(app, count)
        io_mb = self._spec.extra_io_mb_per_function
        if io_mb > 0.0:
            self.store.usage.transferred_mb += io_mb * chain.n_packed
            self.store.usage.put_requests += chain.n_packed
        if self._pending_functions > 0:
            self._reuse_warm(server)
        else:
            self._release(server)

    def _cancel_twins(self, chain: AttemptChain) -> None:
        """Abandon the losing copies of a hedged group (billed for elapsed
        time; copies still in the cold pipeline cancel at execution start)."""
        for rid in sorted(chain.active or ()):
            entry = self._inflight.pop(rid, None)
            if entry is None:
                continue  # still in the pipeline; cancels in _start_execution
            event, server = entry
            event.cancel()
            self._cancelled.append(rid)
            self._exec_end[rid] = self.sim.now
            chain.untrack(rid)
            self._release(server)

    def _reuse_warm(self, server: Server) -> None:
        """Run the next functions on a finished instance's warm slot."""
        n_packed = min(self._spec.packing_degree, self._pending_functions)
        self._pending_functions -= n_packed
        now = self.sim.now
        chain = self.new_chain(n_packed=n_packed, payload=self._work_by_degree[n_packed])
        rid = self._row(chain, now, 1, False, True, 0, 0.0)
        self._sched[rid] = now
        self._build_done.append(_NAN)  # a warm start builds nothing
        self.sim.schedule(self._spec.warm_dispatch_s, self._warm_start, server, rid)

    def _warm_start(self, server: Server, rid: int) -> None:
        self._built[rid] = self._shipped[rid] = self.sim.now
        self._start_execution(server, rid)
