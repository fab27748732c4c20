"""The fluid burst fast path: closed-form pipeline replay, no event loop.

An eligible burst (no fault scenario, hedging or telemetry, on a fresh
datacenter) is a *deterministic* pipeline given its RNG draws: placement
times are a cumulative sum, container builds are a k-slot FIFO
recursion (the arithmetic of ``ContainerPipeline.build``, which the event
loop calls once per attempt, here in bulk), and shipping is processor
sharing of equal-sized transfers (which completes in FIFO order). This
module replays that arithmetic directly — float-op for float-op, draw for
draw, in the same order as the discrete-event path — so the result is
**byte-identical** to the event-driven kernel while doing O(instances)
array/loop work instead of several heap events per instance.

The execution phase takes one of two shapes, picked by the burst itself:

* **Cold** (every instance provisioned cold — no ``wave_size``, or one of
  at least the instance count): nothing but the ship completions starts
  an execution, so the k-th start is the k-th ship completion. Durations,
  completions, store I/O, the fleet-occupancy check and the timeout abort
  are array arithmetic (:func:`_execute_cold`), with no event merge.
* **Waved**: finished instances are reused warm, and a warm start takes
  its exec-noise draw between cold starts, so the replay merges
  placements, ship completions, execution completions and warm starts
  through one heap (:func:`_merge_waved`).

The build recursion and the shipping loop stay Python loops on both: each
is a sequential float recurrence that numpy cannot replay bit for bit.

Eligibility rules and the draw-order contract are documented in
``docs/PERFORMANCE.md``; ``tests/test_kernel_modes.py`` pins the replay
equal to the event loop, on buffered and on unbuffered draws.

:func:`try_run_fluid` is the one entry point. ``BurstDispatchKernel.run``
calls it for every burst and gets back a byte-identical
:class:`RunResult`, or ``None`` when the burst is ineligible and must run
on the event loop. The replay writes the burst's records straight into a
:class:`~repro.platform.metrics.RecordTable` and hands it to
``BurstDispatchKernel.collect``, which bills the burst on both paths.
That table is all the replay leaves: it reads the substrate's parameters
(scheduler costs, the build slot count, uplink capacity) but writes nothing
back into the scheduler, the pipeline's slot heap, the uplink or the
simulator clock.

The replay shares the kernel's set-up (``_configure``, which derives the
burst's chain records: one per packing degree, with its modeled execution
seconds), its CPU-share penalty (``_cpu_share_penalty``) and its
billed-timeout abort (``_timeout_error``) with the event loop. On abort
paths (billed timeout, fleet exhaustion) it raises the same exception as
the event-driven kernel — a timeout with the same message, bill and
record — but may have consumed more prefetched RNG draws than the event
loop had at the abort point; a burst runs on a per-run RNG family, so
this is unobservable outside the aborted run.

The replay takes homogeneous bursts only. Mixed and fused bursts enter
the event loop through ``BurstDispatchKernel.begin`` with one chain
record per group: their union images differ in size, and the shipping
stage's recurrence assumes equal transfers.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.platform.metrics import (
    InstanceRecord,
    RecordTable,
    RunResult,
    sequential_sum,
)
from repro.platform.scheduler import PlacementScheduler

if TYPE_CHECKING:  # annotation-only: avoid a cycle with engine.burst
    from repro.cluster.registry import FunctionImage
    from repro.engine.burst import BurstDispatchKernel, BurstSpec

def fluid_ineligibility(kernel: "BurstDispatchKernel", spec: "BurstSpec") -> Optional[str]:
    """Why this burst cannot take the fluid path (``None`` = eligible).

    The rules are conservative: anything that injects extra draws or extra
    events into the lifecycle, or a datacenter another burst has touched,
    falls back to the event-driven path, which is always correct.
    """
    from repro.platform.container import ContainerPipeline

    if spec.scenario is not None:
        return "fault scenario active"
    if spec.hedge is not None:
        return "hedging active"
    if kernel.profile.failure_rate > 0.0:
        return "profile failure rate > 0"
    if kernel._tel is not None:
        return "telemetry instrumentation attached"
    if type(kernel.scheduler) is not PlacementScheduler:
        return "non-serial placement scheduler"
    if kernel.scheduler._queue or kernel.scheduler._busy:
        return "scheduler busy"
    if type(kernel.pipeline) is not ContainerPipeline:
        return "custom container pipeline"
    if kernel.pipeline.busy_at(kernel.sim.now):
        return "builder busy"
    if kernel.pipeline.network.in_flight:
        return "uplink busy"
    if kernel.sim._now != 0.0 or kernel.sim._heap or kernel.sim._stream is not None:
        return "simulator not fresh"
    pool = kernel.scheduler.pool
    if pool.total_instances != 0:
        return "server pool not empty"
    return None


def try_run_fluid(
    kernel: "BurstDispatchKernel", spec: "BurstSpec", image: "FunctionImage"
) -> Optional[RunResult]:
    """Run ``spec`` through the fluid replay, or ``None`` if ineligible.

    A declined burst keeps the reason on the kernel, which reports it as
    ``RunResult.fallback_reason``.
    """
    reason = fluid_ineligibility(kernel, spec)
    if reason is not None:
        kernel._fallback_reason = reason
        return None
    return _run_fluid(kernel, spec, image)


def _run_fluid(
    kernel: "BurstDispatchKernel", spec: "BurstSpec", image: "FunctionImage"
) -> RunResult:
    cold = kernel._configure(spec, image)  # the set-up begin() runs
    pipeline = _replay_pipeline(kernel, spec, image, cold)
    # Only a waved burst reuses instances warm, which takes an event merge.
    if cold < spec.n_instances:
        return kernel.collect(_merge_waved(kernel, spec, *pipeline))
    return kernel.collect(_execute_cold(kernel, spec, *pipeline))


def _replay_pipeline(
    kernel: "BurstDispatchKernel",
    spec: "BurstSpec",
    image: "FunctionImage",
    cold: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[float]]:
    """Placement ∥ build → ship for the ``cold`` chains.

    Returns each chain's placement and build completion times, and the
    ship completions in the order they happen: chain ``order[k]``'s
    container arrives k-th, at ``ship_t[k]``.
    """
    pipeline = kernel.pipeline
    scheduler = kernel.scheduler

    # ------------------------------------------------------------------ #
    # Draw order contract, step 1: one "build" noise draw per cold chain,
    # in chain order (the event path draws all of them at t=0 in _admit).
    # ------------------------------------------------------------------ #
    base_build = pipeline.build_seconds(image, spec.build_factor)
    bsig = pipeline.build_noise_sigma
    if bsig > 0.0:
        bnoise = np.exp(kernel.rng.stream("build").normal(0.0, bsig, cold))
        works = (base_build * bnoise).tolist()
    else:
        works = [base_build] * cold

    # Placement completions: request k costs base + search * k, serially.
    sched = np.cumsum(
        scheduler.base_cost_s + scheduler.search_cost_s * np.arange(cold, dtype=np.float64)
    )

    # Build completions: ContainerPipeline.build's k-slot FIFO arithmetic in
    # bulk (a method call per chain would cost more than the loop): the
    # first ``slots`` builds start at t=0, each later one when the earliest
    # busy slot frees.
    slots = pipeline.build_slots
    built_t = works[:]
    if cold > slots:
        finish = works[:slots]
        heapq.heapify(finish)
        for i in range(slots, cold):
            b = finish[0] + works[i]
            built_t[i] = b
            heapq.heapreplace(finish, b)
    built = np.array(built_t)

    # Ship-ready instants in FIFO order; the stable sort keeps chain order
    # on ties, as the sim's event sequence numbers do.
    ready_at = np.maximum(sched, built)
    order = np.argsort(ready_at, kind="stable")
    ready_t = ready_at[order].tolist()

    # Shipping: processor-sharing replay (exact virtual-time arithmetic of
    # ProcessorSharingResource). Equal transfer sizes => FIFO completions,
    # so the k-th container to arrive is the k-th to become ready.
    w_ship = pipeline.ship_size_mb(image, spec.ship_factor)
    cap_ps = pipeline.network._uplink.capacity
    ship_t: list[float] = [0.0] * cold   # completion times, in FIFO order
    fv: list[float] = [0.0] * cold       # finish virtual times (FIFO ring)
    head = 0
    tail = 0
    vtime = 0.0
    vupd = 0.0
    active = 0
    next_comp = math.inf
    ai = 0
    done = 0
    inf = math.inf
    while done < cold:
        t_arr = ready_t[ai] if ai < cold else inf
        if t_arr < next_comp:
            # submit: advance vtime, admit, reschedule
            if active > 0:
                vtime += (t_arr - vupd) * (cap_ps / active)
            vupd = t_arr
            active += 1
            fv[tail] = vtime + w_ship
            tail += 1
            ai += 1
            remaining_v = fv[head] - vtime
            if remaining_v < 0.0:
                remaining_v = 0.0
            next_comp = t_arr + remaining_v * active / cap_ps
        else:
            t = next_comp
            if active > 0:
                vtime += (t - vupd) * (cap_ps / active)
            vupd = t
            ship_t[done] = t
            head += 1
            done += 1
            active -= 1
            if head < tail:
                remaining_v = fv[head] - vtime
                if remaining_v < 0.0:
                    remaining_v = 0.0
                next_comp = t + remaining_v * active / cap_ps
            else:
                next_comp = inf
    return sched, built, order, ship_t


def _execute_cold(
    kernel: "BurstDispatchKernel",
    spec: "BurstSpec",
    sched: np.ndarray,
    built: np.ndarray,
    order: np.ndarray,
    ship_t: list[float],
) -> RecordTable:
    """The execution phase of a burst with no warm reuse, as array arithmetic.

    Every instance runs cold, so an execution starts at each ship completion
    and nothing else is scheduled: the k-th start is chain ``order[k]``'s,
    at ``ship_t[k]``, and the completions come in end-time order, ties going
    to the earlier start (the heap's sequence number). Each step below is
    the event loop's, float op for float op.
    """
    cold = len(order)
    packing = spec.packing_degree
    last_packed = spec.concurrency - packing * (cold - 1)
    modeled, penalty = _exec_model(kernel)
    enoise, skew_draws = _exec_draws(kernel, spec)
    started = np.array(ship_t)
    # The last chain may pack fewer functions; ``odd`` is its start index.
    odd = None
    if last_packed != packing:
        odd = int(np.flatnonzero(order == cold - 1)[0])

    # Durations, multiplied left to right as in _start_execution. A factor
    # that is exactly 1.0 (no noise, no overhead, no skew, a full CPU share)
    # changes no bit and is skipped.
    if enoise is None:
        duration = np.full(cold, modeled[packing])
    else:
        duration = modeled[packing] * enoise
    if spec.exec_overhead != 1.0:
        duration = duration * spec.exec_overhead
    skew = None
    if skew_draws is not None:
        # Each start's skew is the max of its own block of n_packed draws.
        offsets = np.arange(0, packing * cold, packing)
        if odd is not None:
            offsets[odd + 1:] += last_packed - packing
        skew = np.maximum.reduceat(skew_draws, offsets)
        duration = duration * skew
    if penalty[packing] != 1.0:
        duration = duration * penalty[packing]
    if odd is not None:
        duration[odd] = (
            modeled[last_packed]
            * (1.0 if enoise is None else float(enoise[odd]))
            * spec.exec_overhead
            * (1.0 if skew is None else float(skew[odd]))
            * penalty[last_packed]
        )
    ends = started + duration

    # Aborts, in event order: the first start that outruns the cap, and
    # the first placement that finds the fleet full. A placement completes
    # before a start or a completion at the same instant.
    timeout = None
    if kernel.enforce_timeout:
        over = duration > kernel.profile.max_execution_seconds
        if np.count_nonzero(over):
            timeout = int(over.argmax())
    fleet_cap = _fleet_capacity(kernel)
    if cold > fleet_cap:
        # Occupancy at placement k: k placed, less the executions that
        # ended strictly before it.
        live = np.arange(cold) - np.searchsorted(np.sort(ends), sched, "left")
        full = live >= fleet_cap
        if full.any():
            k = int(full.argmax())
            if timeout is None or sched[k] <= started[timeout]:
                raise _fleet_exhausted(kernel, int(live[k]))
    if timeout is not None:
        rid = int(order[timeout])
        t = ship_t[timeout]
        raise kernel._timeout_error(
            InstanceRecord(
                instance_id=rid,
                n_packed=last_packed if rid == cold - 1 else packing,
                invoked_at=0.0,
                sched_done=float(sched[rid]),
                built_at=float(built[rid]),
                shipped_at=t,
                exec_start=t,
                provisioned_mb=kernel._provisioned,
                warm_start=False,
            ),
            float(duration[timeout]),
        )

    # Object-store accounting: each completion adds its instance's transfer
    # (and then its extra I/O), in completion order. Only the last chain's
    # terms can differ, so only its rank among the completions matters: the
    # instances that end before it, and those that end with it but started
    # earlier.
    app = spec.app
    shared_mb = app.io_mb * app.io_shared_fraction
    private_mb = app.io_mb * (1.0 - app.io_shared_fraction)
    io_mb = spec.extra_io_mb_per_function
    if io_mb > 0.0:
        terms = np.full((cold, 2), (shared_mb + private_mb * packing, io_mb * packing))
    else:
        terms = np.full((cold, 1), shared_mb + private_mb * packing)
    if odd is not None:
        end = ends[odd]
        rank = int(np.count_nonzero(ends < end) + np.count_nonzero(ends[:odd] == end))
        terms[rank, 0] = shared_mb + private_mb * last_packed
        if io_mb > 0.0:
            terms[rank, 1] = io_mb * last_packed
    usage = kernel.store.usage
    usage.transferred_mb = sequential_sum(terms.ravel(), usage.transferred_mb)
    usage.get_requests += spec.concurrency
    usage.put_requests += spec.concurrency * (2 if io_mb > 0.0 else 1)

    n_packed = np.full(cold, packing, dtype=np.int64)
    if odd is not None:
        n_packed[-1] = last_packed
    shipped_at = np.empty(cold)
    shipped_at[order] = started
    exec_end = np.empty(cold)
    exec_end[order] = ends
    return _record_table(
        kernel._provisioned,
        n_packed=n_packed,
        sched_done=sched,
        built_at=built,
        shipped_at=shipped_at,
        exec_end=exec_end,
    )


def _merge_waved(
    kernel: "BurstDispatchKernel",
    spec: "BurstSpec",
    sched_arr: np.ndarray,
    built: np.ndarray,
    order: np.ndarray,
    ship_t: list[float],
) -> RecordTable:
    """The execution phase of a waved burst: an event merge.

    Finished instances are reused warm for the functions the cold chains
    leave. A warm start takes the next exec-noise draw when its dispatch
    delay ends, interleaved with the cold starts, so the starts come from
    merging placements (+occupancy), ship completions (cold starts),
    execution completions and warm starts in event order.
    """
    cold = len(order)
    packing = spec.packing_degree
    pending = spec.concurrency - packing * cold
    provisioned = kernel._provisioned
    modeled, penalty = _exec_model(kernel)
    enoise, skew_draws = _exec_draws(kernel, spec)
    noise_draws = enoise.tolist() if enoise is not None else [1.0] * spec.n_instances
    skew_cursor = 0
    overhead = spec.exec_overhead
    cap_exec = kernel.profile.max_execution_seconds
    enforce = kernel.enforce_timeout
    fleet_cap = _fleet_capacity(kernel)
    sched = sched_arr.tolist()
    ready_i = order.tolist()

    # Object-store accounting, accumulated in completion order.
    app = spec.app
    shared_mb = app.io_mb * app.io_shared_fraction
    private_mb = app.io_mb * (1.0 - app.io_shared_fraction)
    io_mb = spec.extra_io_mb_per_function
    usage = kernel.store.usage
    transferred = usage.transferred_mb
    puts = usage.put_requests
    gets = usage.get_requests

    # Per-record output columns, indexed by record id: the cold chains,
    # then each warm reuse as it is dispatched. An attempt starts executing
    # the instant it arrives (a warm one when its dispatch delay ends), so
    # its exec_start is its shipped_at; a warm one is invoked and placed
    # at its dispatch, and built when it arrives.
    sched_done = sched[:]
    built_at = built.tolist()
    shipped_at: list[float] = [0.0] * cold
    exec_end: list[float] = [0.0] * cold
    npacked = [packing] * cold

    occupancy = 0
    exec_idx = 0            # cursor into the prefetched exec-noise draws
    # Exhausting the fleet takes more than fleet_cap placements: with no
    # more cold chains than that, the placement events change nothing.
    pi = 0 if cold > fleet_cap else cold   # next placement
    si = 0                  # next ship completion
    dyn: list[tuple[float, int, int, int]] = []  # (t, seq, kind, record id)
    dseq = 0
    DONE, WARM = 0, 1
    inf = math.inf

    while pi < cold or si < cold or dyn:
        tp = sched[pi] if pi < cold else inf
        ts = ship_t[si] if si < cold else inf
        td = dyn[0][0] if dyn else inf
        if tp <= ts and tp <= td:
            # Placement completes: the pool allocates one more slot.
            if occupancy >= fleet_cap:
                raise _fleet_exhausted(kernel, occupancy)
            occupancy += 1
            pi += 1
            continue
        if ts <= td:
            # A cold container arrives and starts executing.
            rid = ready_i[si]
            t = ts
            si += 1
        else:
            t, _s, kind, rid = heapq.heappop(dyn)
            if kind == WARM:
                # A warm reuse's dispatch delay ends; it starts executing.
                built_at[rid] = t
            else:
                # Execution done: account I/O, then reuse warm or release.
                exec_end[rid] = t
                n = npacked[rid]
                puts += n
                gets += n
                transferred += shared_mb + private_mb * n
                if io_mb > 0.0:
                    transferred += io_mb * n
                    puts += n
                if pending > 0:
                    n_w = packing if pending >= packing else pending
                    pending -= n_w
                    wid = len(npacked)
                    npacked.append(n_w)
                    sched_done.append(t)
                    built_at.append(0.0)
                    shipped_at.append(0.0)
                    exec_end.append(0.0)
                    heapq.heappush(dyn, (t + spec.warm_dispatch_s, dseq, WARM, wid))
                    dseq += 1
                else:
                    occupancy -= 1
                continue
        shipped_at[rid] = t

        # Execution start (identical op order to _start_execution).
        n = npacked[rid]
        noise = noise_draws[exec_idx]
        exec_idx += 1
        if skew_draws is not None:
            skew = float(skew_draws[skew_cursor:skew_cursor + n].max())
            skew_cursor += n
        else:
            skew = 1.0
        duration = modeled[n] * noise * overhead * skew * penalty[n]
        if enforce and duration > cap_exec:
            warm = rid >= cold
            raise kernel._timeout_error(
                InstanceRecord(
                    instance_id=rid,
                    n_packed=n,
                    invoked_at=sched_done[rid] if warm else 0.0,
                    sched_done=sched_done[rid],
                    built_at=built_at[rid],
                    shipped_at=t,
                    exec_start=t,
                    provisioned_mb=provisioned,
                    warm_start=warm,
                ),
                duration,
            )
        heapq.heappush(dyn, (t + duration, dseq, DONE, rid))
        dseq += 1

    usage.put_requests = puts
    usage.get_requests = gets
    usage.transferred_mb = transferred

    ids = np.arange(len(npacked))
    placed = np.array(sched_done)
    return _record_table(
        provisioned,
        n_packed=npacked,
        invoked_at=np.where(ids < cold, 0.0, placed),
        sched_done=placed,
        built_at=built_at,
        shipped_at=np.array(shipped_at),
        exec_end=exec_end,
        warm_start=ids >= cold,
    )


def _exec_model(
    kernel: "BurstDispatchKernel",
) -> tuple[dict[int, float], dict[int, float]]:
    """Modeled execution seconds and CPU-share penalty per packing degree.

    The seconds are those of the chain records ``_configure`` derived, the
    ones the event loop's chains carry.
    """
    modeled = {n: work.exec_seconds for n, work in kernel._work_by_degree.items()}
    penalty = {n: kernel._cpu_share_penalty(n, kernel._provisioned) for n in modeled}
    return modeled, penalty


def _exec_draws(
    kernel: "BurstDispatchKernel", spec: "BurstSpec"
) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """The execution phase's draws, prefetched (``None``: factor 1.0).

    Draw order contract, step 2: "exec" noise, one draw per execution
    start, in execution-start event order (i.i.d. draws, so the k-th
    stream value goes to the k-th start). Step 3: "skew" lognormal blocks,
    n_packed draws per execution start, in execution-start event order.
    """
    enoise = None
    esig = kernel.profile.exec_noise_sigma
    if esig > 0.0:
        enoise = np.exp(kernel.rng.stream("exec").normal(0.0, esig, spec.n_instances))
    skew_draws = None
    if spec.skew_cv > 0.0:
        ssig = float(np.sqrt(np.log1p(spec.skew_cv * spec.skew_cv)))
        skew_draws = kernel.rng.stream("skew").lognormal(
            -0.5 * ssig * ssig, ssig, spec.concurrency
        )
    return enoise, skew_draws


def _fleet_capacity(kernel: "BurstDispatchKernel") -> int:
    """Instances the fleet holds at once.

    Uniform instance shapes + first-fit over uniform servers means
    exhaustion occurs exactly when occupancy hits the fleet-wide slot count.
    """
    pool = kernel.scheduler.pool
    return len(pool) * min(
        pool.cores_per_server // kernel.profile.cores_per_instance,
        pool.memory_mb_per_server // kernel._provisioned,
    )


def _fleet_exhausted(kernel: "BurstDispatchKernel", occupancy: int) -> RuntimeError:
    """The abort of a placement that finds every server full."""
    return RuntimeError(
        f"fleet exhausted: {len(kernel.scheduler.pool)} servers, "
        f"{occupancy} instances placed"
    )


def _record_table(provisioned: int, **columns) -> RecordTable:
    """A replayed burst's records from its per-record columns.

    Every record is a fault-free first attempt that starts executing the
    instant its container arrives, so ``exec_start`` is ``shipped_at``. A
    record is cold, invoked at t=0, unless ``warm_start`` and
    ``invoked_at`` say otherwise.
    """
    n_rec = len(columns["n_packed"])
    no = np.zeros(n_rec, dtype=bool)
    zero = np.zeros(n_rec)
    columns.setdefault("invoked_at", zero)
    columns.setdefault("warm_start", no)
    return RecordTable(
        instance_id=np.arange(n_rec),
        exec_start=columns["shipped_at"],
        provisioned_mb=np.full(n_rec, provisioned),
        attempt=np.ones(n_rec, dtype=np.int64),
        failed=no,
        timed_out=no,
        correlated=no,
        persistent_fault=no,
        hedged=no,
        cancelled=no,
        throttled_attempts=np.zeros(n_rec, dtype=np.int64),
        retry_delay_s=zero,
        **columns,
    )
