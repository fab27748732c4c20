"""The five benchmark workloads, each a fixed seeded input.

A workload has three phases, all through the program's public API:

* ``setup(seed)`` — ProPack profiling and planning plus building the burst
  specs or arrival processes. Timed as ``setup_s``.
* ``iterate(state)`` — one timed iteration. Every iteration replays the
  same input (fixed ``repetition``), so the spread between iterations is
  host noise only.
* ``outcome(raw)`` — the numbers a user reads off the result, also inside
  the timed region: the simulated signature and the ``sim_*`` metrics.

``check`` (every iteration) and ``check_once`` (once per run) validate the
outputs outside the timed region; ``layer_counts`` reads the per-layer
counters the traced run reports from public result fields.

Why each workload exists is recorded in ``BENCHMARK.json`` and
``bench/README.md``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Any, Optional

import numpy as np

from repro import (
    AWS_LAMBDA,
    GOOGLE_CLOUD_FUNCTIONS,
    SORT,
    XAPIAN,
    BurstSpec,
    ExponentialBackoffRetry,
    FailurePenalty,
    FaultScenario,
    HedgePolicy,
    ProPack,
    RunResult,
    ServerlessPlatform,
)
from repro.chaos import InvariantAuditor
from repro.chaos.invariants import (
    check_billed_vs_executed,
    check_expense_breakdown,
    check_span_nesting,
    serving_violations,
)
from repro.extensions.streaming import StreamingPlanner
from repro.resilience import (
    BrownoutController,
    CircuitBreakerBank,
    ConcurrencyLimitAdmission,
    ResiliencePolicy,
)
from repro.serving import (
    DiurnalProcess,
    FixedTTL,
    HybridHistogram,
    InhomogeneousPoissonProcess,
    OnlineReplanner,
    ServingConfig,
    ServingResult,
    ServingSimulator,
    SuperposedProcess,
    WarmPool,
)
from repro.telemetry import TelemetryConfig, TelemetrySession

#: Simulated outcome metrics (deterministic per seed), with their units.
SIM_UNITS = {
    "sim_service_s": "sim_s",
    "sim_usd_per_1k": "USD",
    "sim_done_frac": "fraction",
}


@dataclass
class Outcome:
    """What one iteration produced, as the benchmark reports it."""

    signature: tuple          # every simulated number, exact
    requests: int             # simulated functions (bursts) or arrivals (serving)
    sim: dict[str, float]     # the SIM_UNITS metrics


class Workload:
    """A named, seeded input driven through the public API."""

    name = ""
    #: Every burst must take the fluid path (checked in traced runs).
    all_fluid = False

    def setup(self, seed: int) -> dict:
        raise NotImplementedError

    def iterate(self, state: dict) -> Any:
        raise NotImplementedError

    def outcome(self, raw: Any) -> Outcome:
        raise NotImplementedError

    def layer_counts(self, raw: Any) -> dict[str, float]:
        raise NotImplementedError

    def check(self, state: dict, raw: Any) -> list[str]:
        raise NotImplementedError

    def check_once(self, state: dict, raw: Any) -> list[str]:
        return []


# ---------------------------------------------------------------------- #
# bursts
# ---------------------------------------------------------------------- #
#: burst-fluid and burst-observed share C, so that burst-observed runs
#: burst-fluid's packed burst. It is below the ROADMAP's 1e5 scale point:
#: there burst-fluid's unpacked baseline alone took ~0.55 s per iteration,
#: and with 40 timed iterations a run lasted 30–45 s, which brought a
#: comparison of 11 pairs of runs per workload close to an hour.
FLUID_C = 60_000
#: burst-faulted's failure-aware plan runs C=1e5 in ~0.28 s per iteration.
FAULTED_C = 100_000
#: The bill and the executed total sum the same ~10^5 terms in different
#: orders; where billing is exact they may differ in the last digits.
BILL_REL_TOL = 1e-9


@dataclass
class BurstRuns:
    """The bursts one iteration ran; ``runs[0]`` is the burst under test."""

    runs: list[tuple[BurstSpec, RunResult]]
    session: Optional[TelemetrySession] = None


def _burst_signature(result: RunResult) -> tuple:
    e = result.expense
    return (
        result.n_instances,
        result.lost_functions,
        result.service_time(),
        result.scaling_time,
        (e.compute_usd, e.requests_usd, e.storage_usd, e.egress_usd, e.keepalive_usd),
        result.fault_stats.signature(),
    )


class BurstWorkload(Workload):
    """SORT bursts on AWS Lambda; the first burst is under test."""

    def outcome(self, raw: BurstRuns) -> Outcome:
        spec, result = raw.runs[0]
        c = spec.concurrency
        return Outcome(
            signature=tuple(_burst_signature(r) for _, r in raw.runs),
            requests=sum(s.concurrency for s, _ in raw.runs),
            sim={
                "sim_service_s": result.service_time(),
                "sim_usd_per_1k": 1000.0 * result.expense.total_usd / c,
                "sim_done_frac": (c - result.lost_functions) / c,
            },
        )

    def check(self, state: dict, raw: BurstRuns) -> list[str]:
        failures: list[str] = []
        for spec, result in raw.runs:
            label = f"C={spec.concurrency} P={spec.packing_degree}"
            failures += [
                f"{label}: {v}"
                for v in check_expense_breakdown(
                    result.expense, reported_total=result.expense.total_usd
                )
            ]
            # The result's own compute bill, in GB-seconds, against the
            # GB-seconds its records executed (at provisioned memory, which
            # the provider may only round up).
            billed_gbs = result.expense.compute_usd / AWS_LAMBDA.gb_second_usd
            executed_gbs = sum(
                r.exec_seconds * r.provisioned_mb
                for r in result.records
                if r.exec_start is not None and r.exec_end is not None
            ) / 1024.0
            failures += [
                f"{label}: compute bill in GB-seconds: {v}"
                for v in check_billed_vs_executed(
                    billed_gbs * (1.0 + BILL_REL_TOL), executed_gbs
                )
            ]
            # Retries and hedges add records; each function group has
            # exactly one first attempt.
            first = sum(1 for r in result.records if r.attempt == 1 and not r.hedged)
            if first != math.ceil(spec.concurrency / spec.packing_degree):
                failures.append(f"{label}: {first} first attempts != ceil(C/P)")
            done = sum(r.n_packed for r in result.successful_records)
            if done + result.lost_functions != spec.concurrency:
                failures.append(
                    f"{label}: completed {done} + lost {result.lost_functions} != C"
                )
        return failures

    def layer_counts(self, raw: BurstRuns) -> dict[str, float]:
        _, result = raw.runs[0]
        stats = [r.fault_stats for _, r in raw.runs]
        total_gbs = sum(s.total_billed_gb_seconds for s in stats)
        breakdown = result.breakdown()
        return {
            "faults.failed_attempts": sum(s.failed_attempts for s in stats),
            "faults.retries": sum(s.retries_scheduled for s in stats),
            "faults.hedged_attempts": sum(s.hedged_attempts for s in stats),
            "faults.work_loss_ratio": (
                sum(s.wasted_billed_gb_seconds for s in stats) / total_gbs
                if total_gbs > 0 else 0.0
            ),
            "model.sched_s": breakdown["scheduling"],
            "model.build_s": breakdown["startup"],
            "model.ship_s": breakdown["shipping"],
            "model.scaling_frac": result.scaling_time / result.service_time(),
            "model.cold_frac": (
                sum(1 for r in result.records if not r.warm_start) / result.n_instances
            ),
            "telemetry.spans": (
                len(raw.session.tracer.spans) if raw.session is not None else 0
            ),
        }


class BurstFluid(BurstWorkload):
    """ProPack's plan against the unpacked baseline, both on the fluid path."""

    name = "burst-fluid"
    all_fluid = True

    def setup(self, seed: int) -> dict:
        platform = ServerlessPlatform(AWS_LAMBDA, seed=seed)
        propack = ProPack(platform)
        propack.interference_profile(SORT)
        propack.scaling_profile()
        propack.plan(SORT, FLUID_C)
        return {
            "platform": platform,
            "propack": propack,
            "unpacked": BurstSpec(app=SORT, concurrency=FLUID_C),
        }

    def iterate(self, state: dict) -> BurstRuns:
        plan, _ = state["propack"].plan(SORT, FLUID_C)
        packed = plan.burst_spec()
        platform = state["platform"]
        return BurstRuns([
            (packed, platform.run_burst(packed, repetition=0)),
            (state["unpacked"], platform.run_burst(state["unpacked"], repetition=0)),
        ])

    def check(self, state: dict, raw: BurstRuns) -> list[str]:
        failures = super().check(state, raw)
        packed, unpacked = (r.service_time() for _, r in raw.runs)
        if not packed < unpacked:
            failures.append(
                f"ProPack service time {packed:g}s is not below unpacked {unpacked:g}s"
            )
        return failures


#: The fault environment of ``burst-faulted``: independent crashes with a
#: persistent tail, stragglers (which trigger hedges) and one correlated burst.
FAULTED_SCENARIO = FaultScenario(
    name="bench-faulted",
    crash_rate=0.1,
    persistent_fraction=0.02,
    straggler_rate=0.03,
    correlated_bursts=1,
    correlated_fraction=0.1,
)
FAULTED_RETRIES = 3


class BurstFaulted(BurstWorkload):
    """A failure-aware ProPack plan run under faults, retries and hedging."""

    name = "burst-faulted"

    def setup(self, seed: int) -> dict:
        platform = ServerlessPlatform(AWS_LAMBDA, seed=seed)
        plan, _ = ProPack(platform).plan(
            SORT,
            FAULTED_C,
            failure=FailurePenalty(
                failure_rate=FAULTED_SCENARIO.crash_rate, max_retries=FAULTED_RETRIES
            ),
        )
        spec = replace(
            plan.burst_spec(),
            scenario=FAULTED_SCENARIO,
            retry_policy=ExponentialBackoffRetry(max_retries=FAULTED_RETRIES),
            hedge=HedgePolicy(),
        )
        return {"platform": platform, "spec": spec}

    def iterate(self, state: dict) -> BurstRuns:
        spec = state["spec"]
        return BurstRuns([(spec, state["platform"].run_burst(spec, repetition=0))])


class BurstObserved(BurstWorkload):
    """burst-fluid's packed burst with full telemetry and every export."""

    name = "burst-observed"

    def setup(self, seed: int) -> dict:
        propack = ProPack(ServerlessPlatform(AWS_LAMBDA, seed=seed))
        propack.interference_profile(SORT)
        propack.scaling_profile()
        plan, _ = propack.plan(SORT, FLUID_C)
        return {"seed": seed, "spec": plan.burst_spec()}

    def iterate(self, state: dict) -> BurstRuns:
        platform = ServerlessPlatform(
            AWS_LAMBDA, seed=state["seed"], telemetry=TelemetryConfig()
        )
        result = platform.run_burst(state["spec"], repetition=0)
        session = platform.telemetry
        json.dumps(session.chrome_trace())
        session.prometheus_text()
        session.events_jsonl()
        return BurstRuns([(state["spec"], result)], session=session)

    def check(self, state: dict, raw: BurstRuns) -> list[str]:
        return super().check(state, raw) + [
            str(v) for v in check_span_nesting(raw.session.tracer)
        ]

    def check_once(self, state: dict, raw: BurstRuns) -> list[str]:
        """Observing a burst must not change it: compare with an unobserved run."""
        platform = ServerlessPlatform(AWS_LAMBDA, seed=state["seed"])
        plain = platform.run_burst(state["spec"], repetition=0)
        if _burst_signature(plain) != _burst_signature(raw.runs[0][1]):
            return ["observed burst differs from the unobserved run of the same seed"]
        return []


# ---------------------------------------------------------------------- #
# serving
# ---------------------------------------------------------------------- #
@dataclass
class ServingRun:
    result: ServingResult
    breakers: Any = None
    audit: Any = None


class ServingWorkload(Workload):
    """Sustained Xapian traffic through ServingSimulator."""

    #: Charge per 1k completed requests instead of per 1k arrivals.
    usd_per_completed = False

    def outcome(self, raw: ServingRun) -> Outcome:
        r = raw.result
        usd = (
            r.cost_per_completed_request_usd() if self.usd_per_completed
            else r.cost_per_request_usd()
        )
        series = r.slo.bucket_series()
        sojourn_sum = sum(count * mean for _, count, _, mean in series)
        return Outcome(
            signature=r.signature(),
            requests=r.n_requests,
            sim={
                "sim_service_s": sojourn_sum / sum(c for _, c, _, _ in series),
                "sim_usd_per_1k": 1000.0 * usd,
                "sim_done_frac": r.n_completed / r.n_requests,
            },
        )

    def check(self, state: dict, raw: ServingRun) -> list[str]:
        failures = [str(v) for v in serving_violations(raw.result, breakers=raw.breakers)]
        if raw.audit is not None and not raw.audit.ok:
            failures.append(raw.audit.summary())
        return failures

    def layer_counts(self, raw: ServingRun) -> dict[str, float]:
        r = raw.result
        rep = r.resilience
        return {
            "faults.failed_attempts": rep.crashes + rep.correlated_kills,
            "faults.retries": rep.retries,
            "faults.work_loss_ratio": (
                rep.wasted_gb_seconds / r.exec_gb_seconds if r.exec_gb_seconds > 0 else 0.0
            ),
            "model.cold_frac": r.cold_start_fraction,
            "model.p99_s": r.p99_sojourn_s,
            "model.attainment": r.windowed_p99_attainment(),
            "serving.warm_hit_ratio": r.warm_dispatches / r.n_dispatches,
            "resilience.admit_ratio": rep.admitted / rep.arrivals,
            "chaos.audit.events": raw.audit.events_seen if raw.audit is not None else 0,
        }


DAY_QOS_S = 30.0
DAY_RATE = 10.0
DAY_HORIZON_S = 3000.0


class ServingDay(ServingWorkload):
    """A fault-free diurnal day behind a hybrid-histogram pool and replanner."""

    name = "serving-day"

    def setup(self, seed: int) -> dict:
        exec_model = ProPack(ServerlessPlatform(AWS_LAMBDA, seed=seed)).exec_model(XAPIAN)
        policy = StreamingPlanner(AWS_LAMBDA, XAPIAN, exec_model).plan(
            arrival_rate_per_s=DAY_RATE, qos_sojourn_s=DAY_QOS_S
        )
        process = DiurnalProcess(DAY_RATE, amplitude=0.7, period_s=DAY_HORIZON_S)
        return {"seed": seed, "exec_model": exec_model, "policy": policy,
                "process": process}

    def iterate(self, state: dict) -> ServingRun:
        em = state["exec_model"]
        simulator = ServingSimulator(
            AWS_LAMBDA, XAPIAN, em,
            pool=WarmPool(HybridHistogram()),
            config=ServingConfig(qos_sojourn_s=DAY_QOS_S),
            controller=OnlineReplanner(AWS_LAMBDA, XAPIAN, em, DAY_QOS_S),
            seed=state["seed"],
        )
        return ServingRun(simulator.run(state["process"], state["policy"], DAY_HORIZON_S))


STORM_QOS_S = 90.0
STORM_BASE_RATE = 4.0
STORM_HORIZON_S = 3600.0
#: Flash crowds: one FLASH_S-long flash at FLASH_RATE in every FLASH_SLOT_S,
#: starting at a seeded offset within the slot.
STORM_FLASH_RATE = 12.0
STORM_FLASH_S = 30.0
STORM_FLASH_SLOT_S = 120.0
#: The OV1 flash-crowd fault environment (repro.experiments.figures).
STORM_SCENARIO = FaultScenario(
    name="flash-crowd",
    crash_rate=0.08,
    persistent_fraction=0.05,
    poison_heal_s=900.0,
    throttle_capacity=30,
    throttle_refill_per_s=1.0,
    straggler_rate=0.005,
)


def flash_crowds(seed: int) -> InhomogeneousPoissonProcess:
    """Fixed-length flashes at seeded times.

    An MMPP's exponential on/off periods made the arrival count differ by
    ~13% between seeds at this horizon, and every storm metric with it;
    fixing each flash's length keeps the load per seed within ~1% while
    the seed still moves every flash and every arrival.
    """
    n_slots = int(STORM_HORIZON_S // STORM_FLASH_SLOT_S)
    starts = (np.arange(n_slots) * STORM_FLASH_SLOT_S
              + np.random.default_rng(seed).uniform(
                  0.0, STORM_FLASH_SLOT_S - STORM_FLASH_S, n_slots))

    def rate(times: np.ndarray) -> np.ndarray:
        t = np.asarray(times, dtype=float)
        slot = np.minimum((t // STORM_FLASH_SLOT_S).astype(int), n_slots - 1)
        begin = starts[slot]
        return np.where((t >= begin) & (t < begin + STORM_FLASH_S), STORM_FLASH_RATE, 0.0)

    return InhomogeneousPoissonProcess(rate, STORM_FLASH_RATE)


class ServingStorm(ServingWorkload):
    """The OV1 flash-crowd storm behind full protection, audited."""

    name = "serving-storm"
    usd_per_completed = True

    def setup(self, seed: int) -> dict:
        # Three profiling repetitions: with one, the fitted model sometimes
        # tips the planner from degree ~58 to ~33, which moves every
        # simulated number of the storm by a third between seeds.
        exec_model = ProPack(
            ServerlessPlatform(GOOGLE_CLOUD_FUNCTIONS, seed=seed), profiler_repetitions=3
        ).exec_model(XAPIAN)
        policy = StreamingPlanner(GOOGLE_CLOUD_FUNCTIONS, XAPIAN, exec_model).plan(
            arrival_rate_per_s=STORM_BASE_RATE, qos_sojourn_s=STORM_QOS_S
        )
        process = SuperposedProcess([
            DiurnalProcess(STORM_BASE_RATE, amplitude=0.7, period_s=STORM_HORIZON_S),
            flash_crowds(seed),
        ])
        return {"seed": seed, "exec_model": exec_model, "policy": policy,
                "process": process, "config": ServingConfig(qos_sojourn_s=STORM_QOS_S)}

    def iterate(self, state: dict) -> ServingRun:
        cfg = state["config"]
        policy = state["policy"]
        protection = ResiliencePolicy(
            admission=ConcurrencyLimitAdmission(limit=8 * policy.degree),
            breakers=CircuitBreakerBank(
                n_domains=cfg.fault_domains,
                rng=np.random.default_rng(state["seed"]),
                failure_threshold=3,
                recovery_s=60.0,
            ),
            brownout=BrownoutController(
                violation_threshold=0.02,
                backlog_threshold=cfg.backlog_threshold,
                degree_boost=1.25,
            ),
        )
        session = TelemetrySession(
            TelemetryConfig(tracing=False, metrics=False, events=False)
        )
        auditor = InvariantAuditor().attach(session.bus)
        simulator = ServingSimulator(
            GOOGLE_CLOUD_FUNCTIONS, XAPIAN, state["exec_model"],
            pool=WarmPool(FixedTTL(60.0)),
            config=cfg,
            resilience=protection,
            scenario=STORM_SCENARIO,
            retry_policy=ExponentialBackoffRetry(max_retries=3),
            seed=state["seed"],
            telemetry=session,
        )
        result = simulator.run(state["process"], policy, STORM_HORIZON_S, repetition=0)
        audit = auditor.finalize(result, breakers=protection.breakers)
        return ServingRun(result, breakers=protection.breakers, audit=audit)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    BurstFluid(), BurstFaulted(), BurstObserved(), ServingDay(), ServingStorm()
)}
