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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from repro.cluster.registry import FunctionImage
from repro.cluster.server import Server
from repro.engine.chain import AttemptChain
from repro.engine.kernel import DispatchKernel, resolve_retry_policy
from repro.faults.retry import HedgePolicy, ImmediateRetry, RetryPolicy
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
    for a mixed or fused group.
    """

    image: FunctionImage
    exec_seconds: float
    outputs: tuple[tuple[AppSpec, int], ...]

    @property
    def n_packed(self) -> int:
        return sum(count for _, count in self.outputs)


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
        self._records: list[InstanceRecord] = []
        self._pending_functions = 0
        # Chain moments, which no record holds, in the order they happen:
        # (time, "retry", chain, next attempt, delay s), (time, "throttled",
        # chain, consecutive 429s), (time, "hedge", chain) and (time, "lost",
        # chain, functions, by a final 429). collect derives the burst's
        # counts and its chain telemetry from them.
        self._moments: list[tuple] = []
        self._record_chain: dict[int, AttemptChain] = {}
        self._inflight: dict[int, tuple] = {}  # record id -> (event, server, record)

    def _configure(self, spec: BurstSpec, image: Optional[FunctionImage]) -> int:
        """Bind ``spec`` to this kernel and return its cold-chain count.

        Every burst is set up here — by :meth:`begin` and by the fluid
        replay: the retry policy, the fault scenario, the provisioned-memory
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

        self.retry_policy = resolve_retry_policy(
            spec.retry_policy,
            spec.scenario,
            platform_default=ImmediateRetry(self.profile.max_retries),
        ).fresh()
        self.configure_faults(spec.scenario, self.profile.failure_rate)

        provisioned = spec.provisioned_mb or self.profile.max_memory_mb
        if provisioned > self.profile.max_memory_mb:
            raise ValueError(
                f"provisioned memory {provisioned} MB exceeds the platform "
                f"maximum {self.profile.max_memory_mb} MB"
            )
        self._provisioned = provisioned
        self._servers: dict[int, Server] = {}  # record id -> placement, until it ships
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
        else:
            self._configure(spec, None)
        for chain_work in work:
            chain = self.new_chain(n_packed=chain_work.n_packed, payload=chain_work)
            self._admit(chain, attempt=1, retry_delay=0.0)

        for t in self.correlated_event_times():
            self.sim.schedule(t, self._correlated_event)

    def collect(self, table: Optional[RecordTable] = None) -> RunResult:
        """Bill the burst and assemble its result; every burst ends here.

        The fluid replay passes the record table it wrote (its burst starts
        at t=0). After the event loop, ``table`` is None: the kernel's
        records are normalized to the burst's own invocation instant, so a
        burst submitted mid-simulation reports the same metrics as one
        submitted at t=0, and converted to a table once. An observed
        burst is reported to its telemetry from that table and from its
        chain moments, which stay on the simulator clock.
        """
        invoked_at = self._invoked_at
        kernel_path = "event" if table is None else "fluid"
        if table is None:
            records = self._records
            if invoked_at:
                for record in records:
                    record.invoked_at -= invoked_at
                    for field_name in ("sched_done", "built_at", "shipped_at",
                                       "exec_start", "exec_end"):
                        value = getattr(record, field_name)
                        if value is not None:
                            setattr(record, field_name, value - invoked_at)
                self._invoked_at = 0.0
            table = RecordTable.from_records(records)
        billing = BillingModel(self.profile)
        expense = billing.burst_expense(table, self.store.usage)
        if self._tel is not None:
            self._tel.record_burst(
                table, invoked_at, kernel_path, self._fallback_reason,
                self._search_costs(), self.injector, self._moments,
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
                # Records still on the simulator clock: no offset to add.
                self._tel.record_burst(
                    RecordTable.from_records(self._records), 0.0, "event",
                    self._fallback_reason, self._search_costs(), self.injector,
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
        if self.bucket is not None:
            verdict = self.throttle_gate(chain, self.sim.now)
            if not verdict.admitted:
                self._moments.append(
                    (self.sim.now, "throttled", chain.chain_id, chain.throttle_tries)
                )
                if verdict.rejected:
                    if not hedged:
                        self._lose(chain, rejected=True)
                    return
                self.sim.schedule(
                    verdict.wait_s, self._admit, chain, attempt, retry_delay, hedged
                )
                return
        record = InstanceRecord(
            instance_id=len(self._records),
            n_packed=chain.n_packed,
            invoked_at=self.sim.now,
            provisioned_mb=self._provisioned,
            attempt=attempt,
            hedged=hedged,
            throttled_attempts=chain.throttle_tries,
            retry_delay_s=retry_delay,
        )
        chain.throttle_tries = 0
        chain.track(record.instance_id)
        self._record_chain[record.instance_id] = chain
        self._records.append(record)
        # Placement search and container build proceed in parallel: the
        # image server does not need the placement target to build.
        self.scheduler.request_placement(
            self.profile.cores_per_instance, self._provisioned, self._placed, record
        )
        self.pipeline.build(
            chain.payload.image, self._built, record,
            build_factor=self._spec.build_factor,
        )

    def _placed(self, server: Server, record: InstanceRecord) -> None:
        record.sched_done = self.sim.now
        self._servers[record.instance_id] = server
        self._maybe_ship(record)

    def _built(self, record: InstanceRecord) -> None:
        record.built_at = self.sim.now
        self._maybe_ship(record)

    def _maybe_ship(self, record: InstanceRecord) -> None:
        # A container ships once it is both built and placed.
        if record.sched_done is None or record.built_at is None:
            return
        self.pipeline.ship(
            self._chain_for(record).payload.image, self._shipped, record,
            ship_factor=self._spec.ship_factor,
        )

    def _shipped(self, record: InstanceRecord) -> None:
        record.shipped_at = self.sim.now
        self._start_execution(self._servers.pop(record.instance_id), record)

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

    def _chain_for(self, record: InstanceRecord) -> AttemptChain:
        return self._record_chain[record.instance_id]

    def record_chain_ids(self) -> list[int]:
        """The id of the chain each attempt record ran, in record order.

        Chains get ids in the order :meth:`begin` creates them, so a burst
        begun with one :class:`ChainWork` per plan group reads each
        record's group here; a retry or hedge runs its chain again.
        """
        return [self._record_chain[i].chain_id for i in range(len(self._records))]

    def _release(self, server: Server) -> None:
        """Free an attempt's server slot. Every instance of a burst has one
        shape: the profile's cores per instance and the provisioned MB."""
        server.release(self.profile.cores_per_instance, self._provisioned)

    def _start_execution(self, server: Server, record: InstanceRecord) -> None:
        chain = self._chain_for(record)
        if chain.satisfied:
            # A hedge twin already delivered this group's result while this
            # copy was still in the cold pipeline; abandon before executing.
            record.cancelled = True
            record.exec_start = record.exec_end = self.sim.now
            chain.untrack(record.instance_id)
            self._release(server)
            return
        record.exec_start = self.sim.now
        duration = (
            chain.payload.exec_seconds
            * self.exec_noise_factor(self.profile.exec_noise_sigma)
            * self._spec.exec_overhead
            * self._skew_factor(record.n_packed)
            * self._cpu_share_penalty(record.n_packed, record.provisioned_mb)
        )
        duration *= self.straggler_factor()
        cap = self.profile.max_execution_seconds
        if self.enforce_timeout and duration > cap:
            if self.injector is not None:
                self._schedule_timeout(server, record)
                return
            error = self._timeout_error(record, duration)
            self._release(server)
            raise error
        if self.injector is not None:
            decision = self.chain_crash_decision(chain)
            if decision is not None:
                record.persistent_fault = chain.poisoned
                crash_after = duration * decision.at_fraction
                event = self.sim.schedule(crash_after, self._exec_failed, server, record)
                self._inflight[record.instance_id] = (event, server, record)
                return
        elif self.profile.failure_rate > 0.0:
            fail_stream = self.rng.stream("failure")
            if fail_stream.random() < self.profile.failure_rate:
                # Crash at a uniform point of the execution; the partial run
                # is billed (providers charge failed attempts), then retried.
                crash_after = duration * float(fail_stream.random())
                event = self.sim.schedule(crash_after, self._exec_failed, server, record)
                self._inflight[record.instance_id] = (event, server, record)
                return
        event = self.sim.schedule(duration, self._exec_done, server, record)
        self._inflight[record.instance_id] = (event, server, record)
        self._maybe_schedule_hedge(chain, record, duration)

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

    def _maybe_schedule_hedge(
        self, chain: AttemptChain, record: InstanceRecord, duration: float
    ) -> None:
        hedge = self._spec.hedge
        if (
            hedge is None
            or record.hedged
            or record.warm_start
            or chain.hedges_launched >= hedge.max_hedges_per_group
        ):
            return
        # The hedge trigger compares against the *modeled* (noise-free)
        # execution time, the quantity a real controller would know.
        reference = (
            chain.payload.exec_seconds
            * self._spec.exec_overhead
            * self._cpu_share_penalty(record.n_packed, record.provisioned_mb)
        )
        threshold = hedge.trigger_seconds(reference)
        if duration <= threshold:
            return
        chain.hedges_launched += 1
        self._moments.append((self.sim.now, "hedge", chain.chain_id))
        self.sim.schedule(threshold, self._launch_hedge, chain, record)

    def _launch_hedge(self, chain: AttemptChain, primary: InstanceRecord) -> None:
        if primary.instance_id not in self._inflight:
            return  # the primary already crashed; the retry path owns recovery
        self._admit(chain, attempt=primary.attempt, retry_delay=0.0, hedged=True)

    def _schedule_timeout(self, server: Server, record: InstanceRecord) -> None:
        """The attempt runs to the cap, is billed in full, then handled."""
        cap = self.profile.max_execution_seconds
        event = self.sim.schedule(cap, self._exec_timed_out, server, record)
        self._inflight[record.instance_id] = (event, server, record)

    def _exec_timed_out(self, server: Server, record: InstanceRecord) -> None:
        self._inflight.pop(record.instance_id, None)
        record.exec_end = self.sim.now
        record.timed_out = True
        self._release(server)
        chain = self._chain_for(record)
        chain.untrack(record.instance_id)
        self._refetched_inputs(chain)
        if self._spec.scenario is not None and not self._spec.scenario.retry_timeouts:
            if not chain.active and not chain.satisfied and not chain.lost:
                self._lose(chain)
            return
        self._retry_or_lose(chain)

    def _correlated_event(self) -> None:
        """One correlated infrastructure event: a slice of in-flight
        instances crash together (rack/AZ blast radius)."""
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
            event, server, record = entry
            if record.timed_out or record.failed:
                continue
            event.cancel()
            record.correlated = True
            self._exec_failed(server, record)

    def _exec_failed(self, server: Server, record: InstanceRecord) -> None:
        self._inflight.pop(record.instance_id, None)
        record.exec_end = self.sim.now
        record.failed = True
        self._release(server)  # the crash destroys the container
        chain = self._chain_for(record)
        self._refetched_inputs(chain)
        chain.untrack(record.instance_id)
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

    def _exec_done(self, server: Server, record: InstanceRecord) -> None:
        self._inflight.pop(record.instance_id, None)
        record.exec_end = self.sim.now
        chain = self._chain_for(record)
        chain.untrack(record.instance_id)
        if chain.satisfied:
            # Lost a hedge race after executing fully; billed, no result.
            record.cancelled = True
            self._release(server)
            return
        chain.satisfied = True
        self._cancel_twins(chain, record)
        for app, count in chain.payload.outputs:
            self.store.record_instance(app, count)
        io_mb = self._spec.extra_io_mb_per_function
        if io_mb > 0.0:
            self.store.usage.transferred_mb += io_mb * record.n_packed
            self.store.usage.put_requests += record.n_packed
        if self._pending_functions > 0:
            self._reuse_warm(server)
        else:
            self._release(server)

    def _cancel_twins(self, chain: AttemptChain, winner: InstanceRecord) -> None:
        """Abandon the losing copies of a hedged group (billed for elapsed
        time; copies still in the cold pipeline cancel at execution start)."""
        for rid in sorted(chain.active or ()):
            entry = self._inflight.pop(rid, None)
            if entry is None:
                continue  # still in the pipeline; cancels in _start_execution
            event, server, record = entry
            event.cancel()
            record.cancelled = True
            record.exec_end = self.sim.now
            chain.untrack(rid)
            self._release(server)

    def _reuse_warm(self, server: Server) -> None:
        """Run the next functions on a finished instance's warm slot."""
        n_packed = min(self._spec.packing_degree, self._pending_functions)
        self._pending_functions -= n_packed
        record = InstanceRecord(
            instance_id=len(self._records),
            n_packed=n_packed,
            invoked_at=self.sim.now,
            provisioned_mb=self._provisioned,
            warm_start=True,
        )
        record.sched_done = self.sim.now
        chain = self.new_chain(n_packed=n_packed, payload=self._work_by_degree[n_packed])
        chain.track(record.instance_id)
        self._record_chain[record.instance_id] = chain
        self._records.append(record)
        self.sim.schedule(self._spec.warm_dispatch_s, self._warm_start, server, record)

    def _warm_start(self, server: Server, record: InstanceRecord) -> None:
        record.built_at = self.sim.now
        record.shipped_at = self.sim.now
        self._start_execution(server, record)
