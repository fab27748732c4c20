"""The fluid burst fast path: closed-form pipeline replay, no event loop.

An eligible burst (no fault scenario, hedging, telemetry, or subclass
hooks) is a *deterministic* pipeline given its RNG draws: placement times
are a cumulative sum, container builds are a k-slot FIFO recursion,
shipping is processor sharing of equal-sized transfers (which completes in
FIFO order), and execution/warm-wave reuse is a small event-merge. This
module replays that arithmetic directly — float-op for float-op, draw for
draw, in the same order as the discrete-event path — so the result is
**byte-identical** to the event-driven kernel while doing O(instances)
array/loop work instead of O(instances · ~10) heap events.

Eligibility rules and the draw-order contract are documented in
``docs/PERFORMANCE.md``; ``tests/test_kernel_modes.py`` pins the replay
equal to the event loop, on buffered and on unbuffered draws.

:func:`try_run_fluid` is the one entry point. ``BurstDispatchKernel.run``
calls it for every burst and gets back a byte-identical
:class:`RunResult`, or ``None`` when the burst is ineligible and must run
on the event loop. The replay writes the burst's records straight into a
:class:`~repro.platform.metrics.RecordTable` and hands it to
``BurstDispatchKernel.collect``, which bills the burst on both paths.

The replay shares the kernel's set-up (``_configure``), its CPU-share
penalty (``_cpu_share_penalty``) and its billed-timeout abort
(``_timeout_error``) with the event loop. On abort paths (billed timeout,
fleet exhaustion) it raises the same exception as the event-driven kernel
— a timeout with the same message, bill and record — but may have
consumed more prefetched RNG draws than the event loop had at the abort
point; a burst runs on a per-run RNG family, so this is unobservable
outside the aborted run.
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

#: Template hooks and lifecycle methods that must be un-overridden for the
#: closed-form replay to be faithful to what the event loop would do.
_REQUIRED_BASE_METHODS = (
    "_image_for",
    "_modeled_exec_seconds",
    "_make_instance",
    "_release_instance",
    "_record_completion",
    "_admit",
    "_placed",
    "_built",
    "_maybe_ship",
    "_shipped",
    "_start_execution",
    "_exec_done",
    "_reuse_warm",
    "_warm_start",
    "begin",
    "collect",
)


def fluid_ineligibility(kernel: "BurstDispatchKernel", spec: "BurstSpec") -> Optional[str]:
    """Why this burst cannot take the fluid path (``None`` = eligible).

    The rules are conservative: anything that injects extra draws, extra
    events, or consumer-specific behaviour into the lifecycle falls back
    to the event-driven path, which is always correct.
    """
    from repro.engine.burst import BurstDispatchKernel
    from repro.platform.container import ContainerPipeline

    if spec.scenario is not None:
        return "fault scenario active"
    if spec.hedge is not None:
        return "hedging active"
    if kernel.profile.failure_rate > 0.0:
        return "profile failure rate > 0"
    if kernel._tel is not None:
        return "telemetry instrumentation attached"
    for name in _REQUIRED_BASE_METHODS:
        if getattr(type(kernel), name) is not getattr(BurstDispatchKernel, name):
            return f"subclass overrides {name}"
    if type(kernel.scheduler) is not PlacementScheduler:
        return "non-serial placement scheduler"
    if kernel.scheduler._search_hist is not None:
        return "scheduler metrics attached"
    if kernel.scheduler._queue or kernel.scheduler._busy:
        return "scheduler busy"
    if type(kernel.pipeline) is not ContainerPipeline:
        return "custom container pipeline"
    if kernel.pipeline.builder.busy_servers or kernel.pipeline.builder.queued_jobs:
        return "builder busy"
    if kernel.pipeline.network.in_flight:
        return "uplink busy"
    if kernel.sim._now != 0.0 or kernel.sim._heap:
        return "simulator not fresh"
    pool = kernel.scheduler.pool
    if pool.total_instances != 0:
        return "server pool not empty"
    return None


def try_run_fluid(
    kernel: "BurstDispatchKernel", spec: "BurstSpec", image: "FunctionImage"
) -> Optional[RunResult]:
    """Run ``spec`` through the fluid replay, or ``None`` if ineligible."""
    if fluid_ineligibility(kernel, spec) is not None:
        return None
    return _run_fluid(kernel, spec, image)


def _run_fluid(
    kernel: "BurstDispatchKernel", spec: "BurstSpec", image: "FunctionImage"
) -> RunResult:
    profile = kernel.profile
    pipeline = kernel.pipeline
    scheduler = kernel.scheduler
    rng = kernel.rng
    cold = kernel._configure(spec, image)  # the set-up begin() runs
    n_inst = spec.n_instances
    provisioned = kernel._provisioned

    # Per-chain packing: every cold chain gets the full packing degree
    # except possibly the last (when cold == n_inst takes the remainder).
    packing = spec.packing_degree
    npacked_cold = [packing] * cold
    if cold == n_inst:
        npacked_cold[-1] = spec.concurrency - packing * (cold - 1)
    pending = spec.concurrency - sum(npacked_cold)

    # ------------------------------------------------------------------ #
    # Draw order contract, step 1: one "build" noise draw per cold chain,
    # in chain order (the event path draws all of them at t=0 in _admit).
    # ------------------------------------------------------------------ #
    base_build = pipeline.build_seconds(image, spec.build_factor)
    bsig = pipeline.build_noise_sigma
    if bsig > 0.0:
        bnoise = np.exp(rng.stream("build").normal(0.0, bsig, cold)).tolist()
    else:
        bnoise = [1.0] * cold
    works = [base_build * z for z in bnoise]

    # Placement completions: request k costs base + search * k, serially.
    sched_arr = np.cumsum(
        scheduler.base_cost_s + scheduler.search_cost_s * np.arange(cold, dtype=np.float64)
    )
    sched = sched_arr.tolist()

    # Build completions: k-slot FIFO recursion over a finish-time heap.
    slots = pipeline.builder.servers
    built: list[float] = [0.0] * cold
    if cold <= slots:
        for i in range(cold):
            built[i] = works[i]
    else:
        finish = works[:slots]
        for i in range(slots):
            built[i] = works[i]
        heapq.heapify(finish)
        for i in range(slots, cold):
            b = finish[0] + works[i]
            built[i] = b
            heapq.heapreplace(finish, b)

    # Ship-ready instants in FIFO order; the stable sort keeps chain order
    # on ties, as the sim's event sequence numbers do.
    ready_at = np.maximum(sched_arr, built)
    order = np.argsort(ready_at, kind="stable")
    ready_t = ready_at[order].tolist()
    ready_i = order.tolist()

    # Shipping: processor-sharing replay (exact virtual-time arithmetic of
    # ProcessorSharingResource). Equal transfer sizes => FIFO completions.
    w_ship = pipeline.ship_size_mb(image, spec.ship_factor)
    cap_ps = pipeline.network._uplink.capacity
    ship_t: list[float] = [0.0] * cold   # completion time, in pop order
    ship_i: list[int] = [0] * cold       # chain index, in pop order
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
            ship_i[done] = ready_i[head]
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
    pipeline.network.bytes_shipped_mb = sequential_sum(
        np.full(cold, w_ship), pipeline.network.bytes_shipped_mb
    )
    pipeline.network._uplink.total_jobs += cold
    pipeline.builder.total_jobs += cold
    pipeline.containers_built += cold
    scheduler.placements_made += cold

    # ------------------------------------------------------------------ #
    # Execution model constants (identical op order to _start_execution).
    # ------------------------------------------------------------------ #
    def modeled_for(n: int) -> float:
        return kernel.interference.execution_seconds(spec.app, n, cold)

    modeled_cache = {n: modeled_for(n) for n in set(npacked_cold) | {packing}}
    penalty_cache = {
        n: kernel._cpu_share_penalty(n, provisioned) for n in modeled_cache
    }
    overhead = spec.exec_overhead
    cap_exec = profile.max_execution_seconds
    enforce = kernel.enforce_timeout

    # Draw order contract, step 2: "exec" noise, one draw per execution
    # start, in execution-start event order (prefetched — i.i.d. draws, so
    # the k-th stream value goes to the k-th execution start).
    esig = profile.exec_noise_sigma
    if esig > 0.0:
        enoise = np.exp(rng.stream("exec").normal(0.0, esig, n_inst)).tolist()
    else:
        enoise = [1.0] * n_inst

    # Draw order contract, step 3: "skew" lognormal blocks, n_packed draws
    # per execution start, in execution-start event order.
    skew_cv = spec.skew_cv
    if skew_cv > 0.0:
        ssig = float(np.sqrt(np.log1p(skew_cv * skew_cv)))
        skew_draws = rng.stream("skew").lognormal(
            -0.5 * ssig * ssig, ssig, spec.concurrency
        )
    else:
        skew_draws = None
    skew_cursor = 0

    # Object-store accounting, accumulated in completion order.
    app = spec.app
    shared_mb = app.io_mb * app.io_shared_fraction
    private_mb = app.io_mb * (1.0 - app.io_shared_fraction)
    io_mb = spec.extra_io_mb_per_function
    usage = kernel.store.usage
    transferred = usage.transferred_mb
    puts = usage.put_requests
    gets = usage.get_requests

    # Fleet capacity: uniform instance shapes + first-fit over uniform
    # servers means exhaustion occurs exactly when occupancy hits the
    # fleet-wide slot count.
    pool = scheduler.pool
    srv = pool.servers[0]
    per_server = min(
        srv.cores // profile.cores_per_instance, srv.memory_mb // provisioned
    )
    fleet_cap = len(pool.servers) * per_server

    # Per-record output columns, indexed by record id: the cold chains,
    # then each warm reuse as it is dispatched. An attempt starts executing
    # the instant it arrives (a warm one when its dispatch delay ends), so
    # its exec_start is its shipped_at; a warm one is invoked and placed
    # at its dispatch, and built when it arrives.
    sched_done = sched[:]
    built_at = built[:]
    shipped_at: list[float] = [0.0] * cold
    exec_end: list[float] = [0.0] * cold
    npacked = npacked_cold[:]

    # ------------------------------------------------------------------ #
    # Master replay: merge placements (+occupancy), ship completions
    # (cold execution starts), execution completions, and warm starts.
    # ------------------------------------------------------------------ #
    occupancy = 0
    exec_idx = 0            # cursor into the prefetched exec-noise draws
    # Exhausting the fleet takes more than fleet_cap placements: with no
    # more cold chains than that, the placement events change nothing.
    pi = 0 if cold > fleet_cap else cold   # next placement
    si = 0                  # next ship completion
    dyn: list[tuple[float, int, int, int]] = []  # (t, seq, kind, record id)
    dseq = 0
    DONE, WARM = 0, 1
    makespan = 0.0

    while pi < cold or si < cold or dyn:
        tp = sched[pi] if pi < cold else inf
        ts = ship_t[si] if si < cold else inf
        td = dyn[0][0] if dyn else inf
        if tp <= ts and tp <= td:
            # Placement completes: the pool allocates one more slot.
            if occupancy >= fleet_cap:
                raise RuntimeError(
                    f"fleet exhausted: {len(pool.servers)} servers, "
                    f"{occupancy} instances placed"
                )
            occupancy += 1
            pi += 1
            continue
        if ts <= td:
            # A cold container arrives and starts executing.
            rid = ship_i[si]
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
                    if n_w not in modeled_cache:
                        modeled_cache[n_w] = modeled_for(n_w)
                        penalty_cache[n_w] = kernel._cpu_share_penalty(
                            n_w, provisioned
                        )
                    heapq.heappush(dyn, (t + spec.warm_dispatch_s, dseq, WARM, wid))
                    dseq += 1
                else:
                    occupancy -= 1
                continue
        shipped_at[rid] = t

        # Execution start (identical op order to _start_execution).
        n = npacked[rid]
        noise = enoise[exec_idx]
        exec_idx += 1
        if skew_draws is not None:
            skew = float(skew_draws[skew_cursor:skew_cursor + n].max())
            skew_cursor += n
        else:
            skew = 1.0
        duration = (
            modeled_cache[n] * noise * overhead * skew * penalty_cache[n]
        )
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
        end = t + duration
        if end > makespan:
            makespan = end
        heapq.heappush(dyn, (end, dseq, DONE, rid))
        dseq += 1

    usage.put_requests = puts
    usage.get_requests = gets
    usage.transferred_mb = transferred
    kernel._pending_functions = 0
    kernel.sim._now = makespan  # observational parity with the event path

    n_rec = len(npacked)
    ids = np.arange(n_rec)
    placed = np.array(sched_done)
    started = np.array(shipped_at)
    no = np.zeros(n_rec, dtype=bool)
    return kernel.collect(
        RecordTable(
            instance_id=ids,
            n_packed=npacked,
            invoked_at=np.where(ids < cold, 0.0, placed),
            sched_done=placed,
            built_at=built_at,
            shipped_at=started,
            exec_start=started,
            exec_end=exec_end,
            provisioned_mb=np.full(n_rec, provisioned),
            warm_start=ids >= cold,
            attempt=np.ones(n_rec, dtype=np.int64),
            failed=no,
            timed_out=no,
            correlated=no,
            persistent_fault=no,
            hedged=no,
            cancelled=no,
            throttled_attempts=np.zeros(n_rec, dtype=np.int64),
            retry_delay_s=np.zeros(n_rec),
        )
    )
