"""Instrumentation wiring: bursts, serving, faults, and phase breakdowns.

The acceptance test of the telemetry subsystem lives here: the Chrome
trace of a C=1000 burst must reproduce the paper's scaling time (start of
the last instance's execution) exactly from the exported spans.
"""

import hashlib
import json
from collections import Counter

import numpy as np
import pytest

from repro.chaos.invariants import check_span_nesting
from repro.core.models import ExecutionTimeModel
from repro.engine import fluid
from repro.extensions.streaming import StreamingPolicy
from repro.faults.retry import ExponentialBackoffRetry, HedgePolicy
from repro.faults.scenario import FaultScenario
from repro.platform.base import ServerlessPlatform
from repro.platform.invoker import BurstSpec, FunctionTimeoutError
from repro.platform.metrics import InstanceRecord, sequential_sum
from repro.platform.providers import AWS_LAMBDA, GOOGLE_CLOUD_FUNCTIONS
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    LOW,
    OPEN,
    PRIORITY_NAMES,
    BrownoutController,
    CircuitBreakerBank,
    ConcurrencyLimitAdmission,
    ResiliencePolicy,
)
from repro.serving import (
    FixedTTL,
    PoissonProcess,
    ServingConfig,
    ServingSimulator,
    WarmPool,
)
from repro.telemetry import (
    TelemetryConfig,
    TelemetrySession,
    parse_prometheus_text,
)
from repro.telemetry.instruments import (
    BREAKER_STATES,
    PRIORITY_LABELS,
    SEARCH_BUCKETS,
    SOJOURN_BUCKETS,
)
from repro.telemetry.metrics import Histogram
from repro.workloads import SORT, XAPIAN

SEED = 2023


# --------------------------------------------------------------------- #
# The acceptance criterion: the trace reproduces the headline metric
# --------------------------------------------------------------------- #
def test_c1000_trace_reproduces_scaling_time():
    platform = ServerlessPlatform(
        AWS_LAMBDA, seed=SEED, telemetry=TelemetryConfig()
    )
    result = platform.run_burst(BurstSpec(app=SORT, concurrency=1000))
    events = platform.telemetry.chrome_trace()["traceEvents"]
    exec_spans = [
        e for e in events if e.get("ph") == "X" and e["name"] == "exec"
    ]
    assert len(exec_spans) == len(result.records)
    first_invocation = min(e["ts"] for e in events if e.get("ph") == "X")
    last_exec_start = max(e["ts"] for e in exec_spans)
    assert first_invocation == 0.0
    assert (last_exec_start - first_invocation) / 1e6 == pytest.approx(
        result.scaling_time, abs=1e-9
    )


def test_burst_metrics_match_run_result():
    platform = ServerlessPlatform(
        AWS_LAMBDA, seed=7, telemetry=TelemetryConfig()
    )
    result = platform.run_burst(
        BurstSpec(app=SORT, concurrency=400, packing_degree=4)
    )
    samples = parse_prometheus_text(platform.telemetry.prometheus_text())
    assert samples['propack_burst_attempt_outcomes_total{outcome="ok"}'] == (
        len(result.successful_records)
    )
    exec_sum = samples['propack_instance_phase_seconds_sum{phase="exec"}']
    assert exec_sum == pytest.approx(
        sum(r.exec_seconds for r in result.records)
    )
    assert samples["propack_sched_placements_total"] == len(result.records)


def test_telemetry_does_not_perturb_results():
    """Observation must be pure: identical results with telemetry on/off."""
    bare = ServerlessPlatform(AWS_LAMBDA, seed=31).run_burst(
        BurstSpec(app=SORT, concurrency=300, packing_degree=2)
    )
    observed = ServerlessPlatform(
        AWS_LAMBDA, seed=31, telemetry=TelemetryConfig()
    ).run_burst(BurstSpec(app=SORT, concurrency=300, packing_degree=2))
    assert bare.scaling_time == observed.scaling_time
    assert bare.service_time() == observed.service_time()
    assert bare.expense.total_usd == observed.expense.total_usd


CHAOS = FaultScenario(
    name="chaos", crash_rate=0.3, persistent_fraction=0.2, straggler_rate=0.1,
)


def test_faulty_burst_traces_every_outcome():
    platform = ServerlessPlatform(
        AWS_LAMBDA, seed=SEED, telemetry=TelemetryConfig()
    )
    result = platform.run_burst(
        BurstSpec(
            app=SORT, concurrency=200, packing_degree=2, scenario=CHAOS,
            retry_policy=ExponentialBackoffRetry(max_retries=3),
        )
    )
    assert result.fault_stats.crashed_attempts > 0
    samples = parse_prometheus_text(platform.telemetry.prometheus_text())
    assert samples['propack_burst_attempt_outcomes_total{outcome="crash"}'] == (
        result.fault_stats.crashed_attempts
    )
    crash_draws = sum(
        v for k, v in samples.items()
        if k.startswith("propack_fault_crashes_total")
    )
    assert crash_draws == result.fault_stats.crashed_attempts
    # every record, including failed attempts, produced a closed root span
    roots = platform.telemetry.tracer.finished("instance")
    assert len(roots) == len(result.records)


def test_burst_bus_events_do_not_depend_on_tracing():
    """Crash, retry and lost-chain events reach the bus with tracing off."""
    spec = BurstSpec(app=SORT, concurrency=200, packing_degree=2, scenario=CHAOS)
    logs = []
    for tracing in (True, False):
        platform = ServerlessPlatform(
            AWS_LAMBDA, seed=SEED, telemetry=TelemetryConfig(tracing=tracing)
        )
        platform.run_burst(spec)
        logs.append(platform.telemetry.events_jsonl())
    assert logs[0] == logs[1]
    kinds = {json.loads(line)["kind"] for line in logs[0].splitlines()}
    assert kinds == {"instance.crash", "chain.retry", "chain.lost"}


# --------------------------------------------------------------------- #
# Attempts are reported from the finished record table
# --------------------------------------------------------------------- #
def _ignoring_telemetry(kernel, spec, _rules=fluid.fluid_ineligibility):
    """``fluid_ineligibility`` without its telemetry rule."""
    tel = kernel._tel
    kernel._tel = None
    try:
        return _rules(kernel, spec)
    finally:
        kernel._tel = tel


def _observed(spec, seed=SEED, profile=AWS_LAMBDA):
    platform = ServerlessPlatform(profile, seed=seed, telemetry=TelemetryConfig())
    return platform.run_burst(spec, repetition=0), platform.telemetry


def _samples(session, *prefixes):
    return {
        k: v for k, v in parse_prometheus_text(session.prometheus_text()).items()
        if k.startswith(prefixes)
    }


@pytest.mark.parametrize(
    "spec",
    [
        BurstSpec(app=SORT, concurrency=1000, packing_degree=4),
        BurstSpec(app=SORT, concurrency=300, packing_degree=2, wave_size=40),
    ],
    ids=["cold", "waved"],
)
def test_replayed_burst_exports_what_the_event_loop_does(spec):
    """Spans and burst metrics come from the finished table, so a burst
    the fluid replay runs (telemetry rule lifted) exports the same Chrome
    trace, byte for byte, and the same burst, phase and placement-search
    samples as the event loop."""
    looped, loop_session = _observed(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fluid, "fluid_ineligibility", _ignoring_telemetry)
        replayed, replay_session = _observed(spec)
    assert (looped.kernel_path, replayed.kernel_path) == ("event", "fluid")
    assert replayed == looped
    assert json.dumps(replay_session.chrome_trace(), sort_keys=True) == json.dumps(
        loop_session.chrome_trace(), sort_keys=True
    )
    families = ("propack_burst_", "propack_instance_phase_seconds", "propack_sched_")
    assert _samples(replay_session, *families) == _samples(loop_session, *families)
    assert _samples(replay_session, "propack_sched_placements_total") == {
        "propack_sched_placements_total": np.count_nonzero(~replayed.table.warm_start)
    }
    assert _samples(replay_session, "propack_kernel_runs_total") == {
        'propack_kernel_runs_total{path="fluid"}': 1.0
    }
    assert not _samples(replay_session, "propack_fluid_fallback_total")


def test_faulted_hedged_waved_burst_reports_every_attempt():
    spec = BurstSpec(
        app=SORT, concurrency=600, packing_degree=2, scenario=CHAOS,
        retry_policy=ExponentialBackoffRetry(max_retries=3),
        hedge=HedgePolicy(), wave_size=120,
    )
    result, session = _observed(spec)
    table = result.table
    outcomes = np.select(
        [table.timed_out, table.failed, table.cancelled],
        ["timeout", "crash", "cancelled"], "ok",
    )
    assert {"ok", "crash", "cancelled"} <= set(outcomes.tolist())
    assert table.warm_start.any() and table.hedged.any()
    # One closed root span per record, on its track, carrying its outcome.
    roots = session.tracer.finished("instance")
    assert len(roots) == len(table)
    assert [r.track for r in roots] == table.instance_id.tolist()
    assert [r.attrs["outcome"] for r in roots] == outcomes.tolist()
    assert [r.end for r in roots] == table.exec_end.tolist()
    samples = _samples(session, "propack_burst_attempt_outcomes_total")
    for outcome in ("ok", "crash", "timeout", "cancelled"):
        key = f'propack_burst_attempt_outcomes_total{{outcome="{outcome}"}}'
        assert samples[key] == np.count_nonzero(outcomes == outcome)
    # instance.crash events: the crashed records, by (exec_end, record id).
    crashed = np.flatnonzero(table.failed)
    crashed = crashed[np.lexsort((crashed, table.exec_end[crashed]))]
    events = [
        e for e in session.bus.events if e.kind == "instance.crash"
    ]
    assert [(e.time, e.get("instance"), e.get("attempt"), e.get("correlated"))
            for e in events] == list(zip(
                table.exec_end[crashed].tolist(), crashed.tolist(),
                table.attempt[crashed].tolist(), table.correlated[crashed].tolist(),
            ))
    assert check_span_nesting(session.tracer) == []
    assert result.kernel_path == "event"
    assert result.fallback_reason == "fault scenario active"
    # The kernel's fault draws, written when the burst ended. Every crash drawn
    # here ended its attempt, so the crashes are the failed rows.
    assert _samples(session, "propack_fault_") == {
        'propack_fault_crashes_total{persistent="false"}': 110,
        'propack_fault_crashes_total{persistent="true"}': 69,
        "propack_fault_stragglers_total": 41,
    }
    assert np.count_nonzero(table.failed) == 110 + 69
    assert np.count_nonzero(table.persistent_fault) == 69


def test_aborted_faulted_burst_reports_its_fault_draws():
    """A hedge finds a one-server fleet full and the burst aborts: the
    draws made until then are still written."""
    spec = BurstSpec(
        app=SORT, concurrency=16, hedge=HedgePolicy(trigger_factor=1.2),
        scenario=FaultScenario(name="full", crash_rate=0.1,
                               persistent_fraction=0.2, straggler_rate=0.9),
    )
    platform = ServerlessPlatform(
        AWS_LAMBDA.with_overrides(fleet_servers=1), seed=3,
        telemetry=TelemetryConfig(),
    )
    with pytest.raises(RuntimeError, match="fleet exhausted"):
        platform.run_burst(spec, repetition=0)
    assert _samples(platform.telemetry, "propack_fault_") == {
        'propack_fault_crashes_total{persistent="false"}': 3,
        'propack_fault_crashes_total{persistent="true"}': 2,
        "propack_fault_stragglers_total": 19,
    }


# --------------------------------------------------------------------- #
# Chain moments: logged by the kernel, reported when the burst ends
# --------------------------------------------------------------------- #
#: Crashes, stragglers, a correlated kill, 429 bounces, hedges, backoff
#: retries and warm reuse: every kind of chain moment but a lost chain.
THROTTLED = BurstSpec(
    app=SORT, concurrency=600, packing_degree=2,
    scenario=FaultScenario(
        crash_rate=0.15, straggler_rate=0.3, throttle_capacity=100,
        throttle_refill_per_s=20.0, throttle_max_retries=2,
        correlated_bursts=1, correlated_fraction=0.3,
    ),
    hedge=HedgePolicy(), wave_size=120,
    retry_policy=ExponentialBackoffRetry(max_retries=3),
)
#: A hard quota: chains lost to final 429 rejections.
HARD_QUOTA = BurstSpec(
    app=SORT, concurrency=200,
    scenario=FaultScenario(
        name="hard-quota", throttle_capacity=5, throttle_refill_per_s=0.5,
        throttle_max_retries=2, throttle_backoff_s=0.1,
    ),
)


class _ReportOnly:
    """Burst telemetry that has nothing but the end-of-burst report."""

    def __init__(self):
        self.moments = []

    def record_burst(self, table, invoked_at, kernel_path, fallback_reason,
                     search_costs=None, faults=None, moments=()):
        self.moments.append(list(moments))


def test_event_loop_makes_no_telemetry_call():
    """A faulted, throttled, hedged, waved burst runs with telemetry that
    only takes the final report, and returns what an unobserved burst
    does: every chain moment reaches telemetry through that report."""
    platform = ServerlessPlatform(AWS_LAMBDA, seed=7, telemetry=TelemetryConfig())
    report = _ReportOnly()
    platform.telemetry.burst_instrumentation = lambda name: report
    observed = platform.run_burst(THROTTLED, repetition=0)
    bare = ServerlessPlatform(AWS_LAMBDA, seed=7).run_burst(THROTTLED, repetition=0)
    assert observed.kernel_path == "event"
    assert observed == bare
    assert observed.fault_stats == bare.fault_stats
    assert observed.lost_functions == bare.lost_functions
    (moments,) = report.moments
    kinds = Counter(m[1] for m in moments)
    assert kinds == {"retry": 113, "throttled": 29, "hedge": 46}
    assert [m[0] for m in moments] == sorted(m[0] for m in moments)


@pytest.mark.parametrize(
    "spec, seed, retries, throttled, hedges, lost_chains",
    [(THROTTLED, 7, 113, 29, 46, 0), (HARD_QUOTA, 19, 0, 582, 0, 193)],
    ids=["throttled", "hard-quota"],
)
def test_chain_samples_instants_and_events_are_the_fault_stats(
    spec, seed, retries, throttled, hedges, lost_chains
):
    """The chain counters, the ``fault`` instants and the ``chain.*`` bus
    events of a burst count what its FaultStats and lost functions do.
    Hedges count as scheduled: more than the hedge attempts that ran."""
    result, session = _observed(spec, seed=seed)
    stats = result.fault_stats
    assert (stats.retries_scheduled, stats.throttled_attempts) == (retries, throttled)
    assert stats.throttle_rejections_final == lost_chains
    samples = _samples(session, "propack_burst_")
    assert samples["propack_burst_retries_total"] == stats.retries_scheduled
    assert samples["propack_burst_throttled_total"] == stats.throttled_attempts
    assert samples["propack_burst_hedges_total"] == hedges >= stats.hedged_attempts
    assert samples["propack_burst_lost_functions_total"] == result.lost_functions
    instants = session.tracer.instants
    assert Counter(i.name for i in instants) == Counter(
        retry=retries, throttled=throttled, hedge=hedges, lost=lost_chains
    )
    assert {(i.process, i.category) for i in instants} == {(1, "fault")}
    delays = [dict(i.attrs)["delay_s"] for i in instants if i.name == "retry"]
    assert sequential_sum(np.array(delays, dtype=float)) == stats.retry_delay_s_total
    events = session.bus.events
    assert Counter(e.kind for e in events if e.kind.startswith("chain.")) == Counter(
        {"chain.retry": retries, "chain.lost": lost_chains}
    )
    assert sum(e.get("n_packed") for e in events if e.kind == "chain.lost") == (
        result.lost_functions
    )


def test_aborted_burst_reports_its_chain_moments():
    """Fleet exhaustion ends a faulted, hedged, waved burst: the retries,
    hedges and lost chain it had are exported with its finished attempts,
    and their bus events come first."""
    spec = BurstSpec(
        app=SORT, concurrency=400, packing_degree=1,
        scenario=FaultScenario(crash_rate=0.3, straggler_rate=0.2),
        hedge=HedgePolicy(), wave_size=60,
        retry_policy=ExponentialBackoffRetry(max_retries=3),
    )
    platform = ServerlessPlatform(
        AWS_LAMBDA.with_overrides(fleet_servers=4), seed=5,
        telemetry=TelemetryConfig(),
    )
    with pytest.raises(RuntimeError, match="fleet exhausted"):
        platform.run_burst(spec, repetition=0)
    session = platform.telemetry
    assert _samples(session, "propack_burst_retries_total", "propack_burst_hedges",
                    "propack_burst_lost", "propack_burst_throttled") == {
        "propack_burst_retries_total": 34.0,
        "propack_burst_hedges_total": 11.0,
        "propack_burst_lost_functions_total": 1.0,
        "propack_burst_throttled_total": 0.0,
    }
    assert Counter(i.name for i in session.tracer.instants) == {
        "retry": 34, "hedge": 11, "lost": 1,
    }
    kinds = [e.kind for e in session.bus.events]
    assert Counter(kinds[:35]) == {"chain.retry": 34, "chain.lost": 1}
    assert kinds[35:] == ["instance.crash"] * 35


def test_attempt_cancelled_before_it_ran_has_no_phase_observations():
    """A hedge twin still in the cold pipeline when its group is served is
    cancelled before it executes: a zero-length exec span marked
    cancelled, counted as cancelled, and no phase observations."""
    spec = BurstSpec(
        app=SORT, concurrency=1000, packing_degree=2,
        scenario=FaultScenario(name="strag", straggler_rate=0.3),
        hedge=HedgePolicy(trigger_factor=2.0),
    )
    result, session = _observed(spec, seed=1)
    table = result.table
    skipped = table.cancelled & (table.exec_start == table.exec_end)
    assert skipped.any()
    execs = {s.track: s for s in session.tracer.finished() if s.name == "exec"}
    for rid in np.flatnonzero(skipped).tolist():
        assert execs[rid].duration == 0.0
        assert execs[rid].attrs == {"outcome": "cancelled"}
    assert all(execs[rid].attrs == {} for rid in np.flatnonzero(~skipped).tolist())
    samples = _samples(session, "propack_burst_attempt", "propack_instance_phase")
    assert samples['propack_burst_attempt_outcomes_total{outcome="cancelled"}'] == (
        np.count_nonzero(table.cancelled)
    )
    for phase in ("sched", "build", "ship", "exec"):
        key = f'propack_instance_phase_seconds_count{{phase="{phase}"}}'
        assert samples[key] == len(table) - np.count_nonzero(skipped)


def test_billed_timeout_abort_reports_the_attempts_that_finished():
    """A skewed warm reuse outruns the 150 s cap and aborts the burst: the
    attempts that finished before it, and the aborting one, are exported;
    the ones still in flight are counted as launched but have no root."""
    profile = AWS_LAMBDA.with_overrides(max_execution_seconds=150.0)
    spec = BurstSpec(app=SORT, concurrency=80, packing_degree=2, wave_size=4,
                     skew_cv=0.3)
    platform = ServerlessPlatform(profile, seed=5, telemetry=TelemetryConfig())
    with pytest.raises(FunctionTimeoutError) as excinfo:
        platform.run_burst(spec, repetition=0)
    aborting = excinfo.value.record
    # The same burst with the cap unenforced runs identically up to the abort.
    unbounded = ServerlessPlatform(profile, seed=5, enforce_timeout=False).run_burst(
        spec, repetition=0
    )
    finished = [r.instance_id for r in unbounded.records
                if r.exec_end is not None and r.exec_end < aborting.exec_start]
    assert finished
    session = platform.telemetry
    roots = {s.track: s for s in session.tracer.finished("instance")}
    assert sorted(roots) == sorted(finished + [aborting.instance_id])
    assert roots[aborting.instance_id].attrs["outcome"] == "timeout"
    # The aborting attempt's spans cover the billed cap, as its record does.
    assert roots[aborting.instance_id].end == aborting.exec_end
    assert aborting.exec_end == aborting.exec_start + 150.0
    trace = session.chrome_trace()["traceEvents"]
    exec_tids = sorted(e["tid"] for e in trace if e.get("name") == "exec")
    assert exec_tids == sorted(roots)
    samples = _samples(session, "propack_burst_", "propack_instance_phase")
    assert samples['propack_burst_attempt_outcomes_total{outcome="ok"}'] == len(finished)
    assert samples['propack_burst_attempt_outcomes_total{outcome="timeout"}'] == 1
    assert samples['propack_instance_phase_seconds_count{phase="exec"}'] == len(roots)
    launched = sum(v for k, v in samples.items()
                   if k.startswith("propack_burst_instances_total"))
    assert launched > len(roots)
    assert [(e.kind, e.time, e.get("instance")) for e in session.bus.events] == [
        ("instance.timeout", aborting.exec_end, aborting.instance_id)
    ]
    assert check_span_nesting(session.tracer) == []


#: sha256 of the Chrome trace (``json.dumps(..., sort_keys=True)``), the
#: Prometheus text and the JSONL of the aborted burst below, per seed.
ABORTED_EXPORTS = {
    1: ("64c9762db8996a3b8004b90e6ffa716686485a2fb8c85f0e39e595d1fe60c826",
        "47280f925c1f5c0767af14f53f0df7c5e96c36e91476edce8e78596cfb8179bd",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    2: ("29e4eb246cd8c4c90bd995bc6a1e632b94111ff95f9c1aaa612e78988857171a",
        "47280f925c1f5c0767af14f53f0df7c5e96c36e91476edce8e78596cfb8179bd",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("seed", sorted(ABORTED_EXPORTS))
def test_fleet_abort_exports_every_finished_build(seed):
    """One server runs out at the 17th placement, while the builds, which
    need no placement, have run ahead of the slow searches: every attempt
    whose build finished by the abort exports a ``build`` span, placed or
    not."""
    spec = BurstSpec(app=SORT, concurrency=400)
    profile = AWS_LAMBDA.with_overrides(sched_search_s=0.05)
    platform = ServerlessPlatform(
        profile.with_overrides(fleet_servers=1), seed=seed, telemetry=TelemetryConfig()
    )
    with pytest.raises(RuntimeError, match="fleet exhausted: 1 servers, 16 instances placed"):
        platform.run_burst(spec, repetition=0)
    # Builds do not depend on placement: on a fleet that does not run out,
    # the same seed builds every container at the same instant, and its
    # 17th placement is the abort.
    whole = ServerlessPlatform(profile, seed=seed).run_burst(spec, repetition=0).table
    abort_at = whole.sched_done[16]
    built = np.flatnonzero(whole.built_at <= abort_at).tolist()
    assert len(built) > 16
    session = platform.telemetry
    builds = sorted(s.track for s in session.tracer.finished("phase") if s.name == "build")
    assert builds == built
    exports = (json.dumps(session.chrome_trace(), sort_keys=True),
               session.prometheus_text(), session.events_jsonl())
    assert tuple(hashlib.sha256(e.encode()).hexdigest() for e in exports) == (
        ABORTED_EXPORTS[seed]
    )


# The serial scheduler's search families, derived from the table: the k-th
# cold attempt searched for base + search·k. The pinned values are the ones
# a live loop records, one observation per search it starts (seed 5,
# repetition 0).
@pytest.mark.parametrize(
    "overrides, spec, placed, searches, search_sum",
    [
        # A billed timeout with every placement done: no search in flight.
        ({"max_execution_seconds": 5.0},
         BurstSpec(app=SORT, concurrency=400, packing_degree=8), 50, 50, 0.296),
        # Fleet exhaustion: the 17th search found the fleet full.
        ({"fleet_servers": 1, "sched_search_s": 0.0},
         BurstSpec(app=SORT, concurrency=200), 16, 17, 0.034000000000000016),
    ],
    ids=["billed-timeout", "fleet-exhausted"],
)
def test_aborted_burst_counts_its_search_in_flight(
    overrides, spec, placed, searches, search_sum
):
    profile = AWS_LAMBDA.with_overrides(**overrides)
    platform = ServerlessPlatform(profile, seed=5, telemetry=TelemetryConfig())
    with pytest.raises(RuntimeError):
        platform.run_burst(spec, repetition=0)
    samples = _samples(platform.telemetry, "propack_sched_")
    assert samples["propack_sched_placements_total"] == placed
    assert samples["propack_sched_search_seconds_count"] == searches
    assert samples["propack_sched_search_seconds_sum"] == search_sum


def test_search_families_accumulate_over_a_session():
    """A cold, a packed and a waved burst on one platform: each burst's
    cold attempts search from k=0 on their own scheduler, into one
    histogram; warm reuses never search."""
    platform = ServerlessPlatform(AWS_LAMBDA, seed=2023, telemetry=TelemetryConfig())
    specs = [
        BurstSpec(app=SORT, concurrency=300),
        BurstSpec(app=SORT, concurrency=600, packing_degree=6),
        BurstSpec(app=SORT, concurrency=400, packing_degree=2, wave_size=50),
    ]
    results = [platform.run_burst(spec, repetition=i) for i, spec in enumerate(specs)]
    cold = [int(np.count_nonzero(~r.table.warm_start)) for r in results]
    assert cold == [300, 100, 50]
    expected = Histogram(SEARCH_BUCKETS)
    for n in cold:
        for k in range(n):
            expected.observe(AWS_LAMBDA.sched_base_s + AWS_LAMBDA.sched_search_s * k)
    samples = _samples(platform.telemetry, "propack_sched_")
    assert samples.pop("propack_sched_placements_total") == 450
    assert samples.pop("propack_sched_search_seconds_count") == 450 == expected.count
    assert samples.pop("propack_sched_search_seconds_sum") == 9.063999999999998
    assert expected.sum == 9.063999999999998
    assert list(samples.values()) == expected.cumulative()  # the buckets


def test_sharded_scheduler_exports_no_search_families():
    profile = AWS_LAMBDA.with_overrides(scheduler_shards=4)
    platform = ServerlessPlatform(profile, seed=2023, telemetry=TelemetryConfig())
    platform.run_burst(BurstSpec(app=SORT, concurrency=500, packing_degree=2))
    assert not _samples(platform.telemetry, "propack_sched_")
    assert _samples(platform.telemetry, "propack_burst_instances_total")


def test_kernel_path_and_fallback_reason():
    plain = ServerlessPlatform(AWS_LAMBDA, seed=3).run_burst(
        BurstSpec(app=SORT, concurrency=100)
    )
    assert (plain.kernel_path, plain.fallback_reason) == ("fluid", None)
    observed, session = _observed(BurstSpec(app=SORT, concurrency=100), seed=3)
    assert (observed.kernel_path, observed.fallback_reason) == (
        "event", "telemetry instrumentation attached"
    )
    assert observed == plain  # the path is left out of equality
    assert _samples(session, "propack_kernel_runs_total", "propack_fluid") == {
        'propack_kernel_runs_total{path="event"}': 1.0,
        'propack_fluid_fallback_total{reason="telemetry instrumentation attached"}': 1.0,
    }


# --------------------------------------------------------------------- #
# InstanceRecord.phase_durations — the pinned definitions
# --------------------------------------------------------------------- #
def test_phase_durations_definitions():
    record = InstanceRecord(
        instance_id=0, n_packed=1, invoked_at=0.0,
        sched_done=2.0, built_at=3.0, shipped_at=4.5,
        exec_start=4.5, exec_end=10.0,
    )
    durations = record.phase_durations()
    assert durations == {
        "sched": 2.0,          # sched_done - invoked_at
        "build": 3.0,          # built_at - invoked_at (builds start at invoke)
        "ship": 1.5,           # shipped_at - max(built_at, sched_done)
        "exec": 5.5,           # exec_end - exec_start
    }


def test_phase_durations_ship_waits_for_both_build_and_placement():
    # placement finishes after the build: shipping starts at sched_done
    record = InstanceRecord(
        instance_id=0, n_packed=1, invoked_at=0.0,
        sched_done=5.0, built_at=1.0, shipped_at=6.0,
        exec_start=6.0, exec_end=7.0,
    )
    assert record.phase_durations()["ship"] == 1.0


def test_phase_durations_partial_record():
    record = InstanceRecord(
        instance_id=0, n_packed=1, invoked_at=0.0, sched_done=1.0
    )
    assert record.phase_durations() == {"sched": 1.0}
    assert InstanceRecord(instance_id=1, n_packed=1).phase_durations() == {}


def test_breakdown_uses_phase_durations():
    platform = ServerlessPlatform(AWS_LAMBDA, seed=3)
    result = platform.run_burst(BurstSpec(app=SORT, concurrency=100))
    breakdown = result.breakdown()
    durations = [r.phase_durations() for r in result.records]
    assert breakdown["scheduling"] == pytest.approx(
        float(np.mean([d["sched"] for d in durations]))
    )
    assert breakdown["shipping"] == pytest.approx(
        float(np.mean([d["ship"] for d in durations]))
    )


# --------------------------------------------------------------------- #
# Serving instrumentation
# --------------------------------------------------------------------- #
def _assert_serving_samples_are_the_result(session, run, resilience, faults):
    """Every ``propack_serving_*`` sample is a field of the finished result,
    except the backlog gauge (the depth at the last control tick); the
    sojourn histogram holds the digest's sojourns in completion order.

    The admission samples are the report's per-priority counts, less
    brownout's sheds (all low priority); the breaker and brownout samples
    are the final state of the run's components; the fault samples are
    ``faults``, the dispatch kernel's draws (pinned)."""
    rep = run.resilience
    samples = _samples(session, "propack_serving_")
    del samples["propack_serving_backlog_depth"]
    sojourn = {
        k: samples.pop(k) for k in list(samples)
        if k.startswith("propack_serving_sojourn_seconds")
    }
    assert samples == {
        "propack_serving_arrivals_total": rep.arrivals,
        "propack_serving_admitted_total": rep.admitted,
        'propack_serving_shed_total{source="admission"}': rep.shed_admission,
        'propack_serving_shed_total{source="brownout"}': rep.shed_brownout,
        'propack_serving_dispatches_total{start="cold"}': run.cold_dispatches,
        'propack_serving_dispatches_total{start="warm"}': run.warm_dispatches,
        "propack_serving_requests_completed_total": run.n_completed,
        "propack_serving_requests_failed_total": rep.failed_requests,
        'propack_serving_crashes_total{kind="independent"}': rep.crashes,
        'propack_serving_crashes_total{kind="correlated"}': rep.correlated_kills,
        "propack_serving_retries_total": rep.retries,
        "propack_serving_throttled_total": rep.throttled_attempts,
    }
    expected = Histogram(SOJOURN_BUCKETS)
    for value in run.digest.values():
        expected.observe(value)
    assert sojourn["propack_serving_sojourn_seconds_count"] == run.n_completed
    assert sojourn["propack_serving_sojourn_seconds_sum"] == expected.sum
    exported = session.registry.get("propack_serving_sojourn_seconds")
    assert exported.counts == expected.counts

    shed = list(rep.shed_by_priority)
    shed[LOW] -= rep.shed_brownout
    decisions = {
        f'propack_admission_decisions_total{{priority="{name}",verdict="{verdict}"}}':
            counts[p]
        for verdict, counts in (("admitted", rep.admitted_by_priority), ("shed", shed))
        for p, name in enumerate(PRIORITY_NAMES)
        if counts[p]
    }
    assert _samples(session, "propack_admission_") == decisions
    assert sum(rep.admitted_by_priority) == rep.admitted
    assert sum(shed) == rep.shed_admission

    bank = resilience.breakers
    log = bank.transition_log()
    assert len(log) == rep.breaker_transitions
    assert _samples(session, "propack_breaker_") == {
        "propack_breaker_transitions_total": len(log),
        **{
            f'propack_breaker_state_changes_total{{to="{state}"}}':
                sum(1 for *_, dst in log if dst == state)
            for state in (CLOSED, OPEN, HALF_OPEN)
        },
        "propack_breaker_flaps_total": sum(
            1 for *_, src, dst in log if (src, dst) == (HALF_OPEN, OPEN)
        ),
        "propack_breaker_open_domains": bank.n_open,
        "propack_breaker_quarantined_domains": len(bank.quarantined),
    }

    brownout = resilience.brownout
    if brownout is None:
        assert not _samples(session, "propack_brownout_")
    else:
        assert _samples(session, "propack_brownout_") == {
            "propack_brownout_level": brownout.level,
            'propack_brownout_shifts_total{direction="escalate"}':
                rep.brownout_escalations,
            'propack_brownout_shifts_total{direction="recover"}': brownout.recoveries,
        }
    assert _samples(session, "propack_fault_") == faults


def test_serving_run_instrumented_under_overload():
    config = ServingConfig()
    scenario = FaultScenario(
        name="overload", crash_rate=0.15, persistent_fraction=0.25,
        poison_heal_s=300.0, straggler_rate=0.01,
    )
    resilience = ResiliencePolicy(
        admission=ConcurrencyLimitAdmission(limit=40),
        breakers=CircuitBreakerBank(
            n_domains=config.fault_domains,
            rng=np.random.default_rng(SEED),
            failure_threshold=3, recovery_s=60.0,
        ),
        brownout=BrownoutController(
            violation_threshold=0.02,
            backlog_threshold=config.backlog_threshold,
        ),
    )
    exec_model = ExecutionTimeModel(
        coeff_a=XAPIAN.base_seconds, coeff_b=0.03, mem_gb=XAPIAN.mem_gb
    )
    sim = ServingSimulator(
        GOOGLE_CLOUD_FUNCTIONS, XAPIAN, exec_model,
        pool=WarmPool(FixedTTL(60.0)), config=config,
        resilience=resilience, scenario=scenario,
        retry_policy=ExponentialBackoffRetry(max_retries=3),
        seed=SEED, telemetry=TelemetryConfig(),
    )
    run = sim.run(
        PoissonProcess(4.0), StreamingPolicy(degree=6, batch_timeout_s=4.0),
        900.0,
    )
    _assert_serving_samples_are_the_result(
        sim.telemetry, run, resilience, faults={
            'propack_fault_crashes_total{persistent="false"}': 28,
            'propack_fault_crashes_total{persistent="true"}': 35,
            "propack_fault_stragglers_total": 1,
        },
    )
    assert run.resilience.arrivals == run.n_requests
    # dispatch spans closed for every completion and crash
    spans = sim.telemetry.tracer.finished("dispatch")
    assert len(spans) >= run.resilience.crashes


#: The storm's fault draws per seed, pinned: the serving result does not
#: hold them (a correlated kill can cancel a dispatch drawn to crash).
STORM_FAULT_DRAWS = {
    7: {
        'propack_fault_crashes_total{persistent="false"}': 15,
        'propack_fault_crashes_total{persistent="true"}': 5,
        "propack_fault_stragglers_total": 3,
    },
    2023: {
        'propack_fault_crashes_total{persistent="false"}': 23,
        "propack_fault_stragglers_total": 1,
    },
}


def _storm(seed, telemetry=TelemetryConfig()):
    config = ServingConfig(qos_sojourn_s=20.0)
    scenario = FaultScenario(
        name="storm", crash_rate=0.08, persistent_fraction=0.05,
        poison_heal_s=900.0, throttle_capacity=5, throttle_refill_per_s=0.25,
        throttle_max_retries=2, straggler_rate=0.005, correlated_bursts=3,
        correlated_fraction=0.5, correlated_window_s=600.0,
    )
    sim = ServingSimulator(
        GOOGLE_CLOUD_FUNCTIONS, XAPIAN,
        ExecutionTimeModel(
            coeff_a=XAPIAN.base_seconds, coeff_b=0.03, mem_gb=XAPIAN.mem_gb
        ),
        pool=WarmPool(FixedTTL(60.0)), config=config,
        resilience=ResiliencePolicy(
            admission=ConcurrencyLimitAdmission(limit=40),
            breakers=CircuitBreakerBank(
                n_domains=config.fault_domains,
                rng=np.random.default_rng(seed),
                failure_threshold=3, recovery_s=60.0,
            ),
            brownout=BrownoutController(
                violation_threshold=0.02,
                backlog_threshold=config.backlog_threshold,
                degree_boost=1.25,
            ),
        ),
        scenario=scenario,
        retry_policy=ExponentialBackoffRetry(max_retries=3),
        seed=seed, telemetry=telemetry,
    )
    run = sim.run(
        PoissonProcess(4.0), StreamingPolicy(degree=6, batch_timeout_s=4.0),
        900.0,
    )
    return sim, run


def test_serving_samples_are_the_result_under_a_storm():
    """A storm that moves every serving counter: both kinds of shedding,
    429 bounces and drops, independent and correlated crashes, retries;
    at seed 7 its breakers open, probe, flap and leave one domain open."""
    banks = []
    for seed, faults in STORM_FAULT_DRAWS.items():
        sim, run = _storm(seed)
        rep = run.resilience
        assert min(
            rep.shed_admission, rep.shed_brownout, rep.failed_requests,
            rep.crashes, rep.correlated_kills, rep.retries,
            rep.throttled_attempts, run.cold_dispatches, run.warm_dispatches,
        ) > 0
        _assert_serving_samples_are_the_result(
            sim.telemetry, run, sim.resilience, faults
        )
        bank = sim.resilience.breakers
        banks.append((bank.n_transitions, bank.n_flaps, bank.n_open))
    assert banks == [(5, 2, 1), (0, 0, 0)]


def _remediated_serving(telemetry, seed=SEED):
    """A faulted serving run under the remediation loop."""
    from repro.remediation import RemediationConfig, RemediationLoop

    config = ServingConfig(qos_sojourn_s=45.0)
    scenario = FaultScenario(
        name="remediated", crash_rate=0.05, correlated_bursts=2,
        correlated_fraction=0.5, correlated_window_s=120.0,
        persistent_fraction=0.5, poison_heal_s=600.0,
    )
    exec_model = ExecutionTimeModel(
        coeff_a=XAPIAN.base_seconds, coeff_b=0.03, mem_gb=XAPIAN.mem_gb
    )
    sim = ServingSimulator(
        GOOGLE_CLOUD_FUNCTIONS, XAPIAN, exec_model,
        pool=WarmPool(FixedTTL(120.0)), config=config,
        resilience=ResiliencePolicy(
            admission=ConcurrencyLimitAdmission(limit=64),
            breakers=CircuitBreakerBank(
                n_domains=config.fault_domains,
                rng=np.random.default_rng(seed),
                failure_threshold=5, recovery_s=45.0,
            ),
        ),
        scenario=scenario,
        retry_policy=ExponentialBackoffRetry(max_retries=3),
        seed=seed,
        telemetry=telemetry,
        remediation=RemediationLoop(RemediationConfig(
            tick_interval_s=60.0, shadow_horizon_s=120.0
        )),
    )
    bus = None if sim.telemetry is None else sim.telemetry.bus
    logged = 0 if bus is None else len(bus.events)
    run = sim.run(
        PoissonProcess(1.5), StreamingPolicy(degree=4, batch_timeout_s=2.0),
        900.0,
    )
    # The events this run published, on a session other runs may share.
    return sim, run, [] if bus is None else bus.events[logged:]


def test_remediation_loop_instrumented():
    """A remediated run exports per-stage counters and bus events."""
    sim, run, events = _remediated_serving(TelemetryConfig())
    rep = run.remediation
    assert rep is not None and rep.n_applied > 0
    samples = parse_prometheus_text(sim.telemetry.prometheus_text())
    per_stage = {
        k: v for k, v in samples.items()
        if k.startswith("propack_remediation_events_total")
    }
    assert per_stage['propack_remediation_events_total{stage="detection"}'] \
        == rep.n_detections
    assert per_stage['propack_remediation_events_total{stage="apply"}'] \
        == rep.n_applied
    kinds = {e.kind for e in events if e.kind.startswith("remediation.")}
    assert "remediation.detection" in kinds
    assert "remediation.apply" in kinds
    # Crash events carry their fault domain.
    crash_domains = [
        dict(e.fields).get("domain")
        for e in events if e.kind == "dispatch.crash"
    ]
    assert crash_domains and all(d is not None for d in crash_domains)


@pytest.mark.parametrize("seed, poisonings", [(1, 6), (7, 3), (11, 6), (2023, 2)])
def test_remediated_run_does_not_depend_on_telemetry(seed, poisonings):
    """The loop reads the run's own counters, so a session changes nothing:
    not the result, not its report, not one detection or action."""
    _, observed, _ = _remediated_serving(TelemetryConfig(), seed)
    _, plain, _ = _remediated_serving(None, seed)
    assert observed.signature() == plain.signature()
    assert observed.resilience.signature() == plain.resilience.signature()
    assert observed.remediation.signature() == plain.remediation.signature()
    detections = plain.remediation.detections
    assert sum(d.kind == "domain-poisoning" for d in detections) == poisonings


@pytest.mark.parametrize("seed, quarantined, crashes", [
    (1, 2, (4, 61)), (7, 2, (8, 68)), (2023, 0, (8, 43)),
])
def test_remediated_run_samples_are_its_final_state(seed, quarantined, crashes):
    """The domains the loop left quarantined show in the breaker gauge."""
    sim, run, _ = _remediated_serving(TelemetryConfig(), seed)
    assert len(sim.resilience.breakers.quarantined) == quarantined
    transient, persistent = crashes
    _assert_serving_samples_are_the_result(
        sim.telemetry, run, sim.resilience, faults={
            'propack_fault_crashes_total{persistent="false"}': transient,
            'propack_fault_crashes_total{persistent="true"}': persistent,
        },
    )


def test_breaker_gauges_read_the_last_run_of_a_session():
    """Two serving runs in one session, each ending with all four domains
    open: the transitions add up, the open-domain gauge reads four."""
    session = TelemetrySession(TelemetryConfig())
    banks = []
    for seed in (7, 2023):
        bank = CircuitBreakerBank(n_domains=4, failure_threshold=3, recovery_s=60.0,
                                  rng=np.random.default_rng(seed))
        ServingSimulator(
            GOOGLE_CLOUD_FUNCTIONS, XAPIAN,
            ExecutionTimeModel(coeff_a=XAPIAN.base_seconds, coeff_b=0.03,
                               mem_gb=XAPIAN.mem_gb),
            pool=WarmPool(FixedTTL(120.0)),
            resilience=ResiliencePolicy(
                admission=ConcurrencyLimitAdmission(limit=64), breakers=bank),
            scenario=FaultScenario(crash_rate=0.15, persistent_fraction=0.25),
            retry_policy=ExponentialBackoffRetry(max_retries=3), seed=seed,
            telemetry=session,
        ).run(PoissonProcess(4.0), StreamingPolicy(degree=4, batch_timeout_s=2.0), 900.0)
        banks.append(bank)
    assert [bank.n_open for bank in banks] == [4, 4]
    samples = _samples(session, "propack_breaker_")
    assert samples["propack_breaker_open_domains"] == 4
    assert samples["propack_breaker_quarantined_domains"] == 0
    assert samples["propack_breaker_transitions_total"] == sum(
        bank.n_transitions for bank in banks
    )


def test_component_labels_are_the_resilience_names():
    """Telemetry spells out the priority and breaker-state label values
    (it sits below the resilience layer); they are that layer's names."""
    assert PRIORITY_LABELS == PRIORITY_NAMES
    assert BREAKER_STATES == (CLOSED, OPEN, HALF_OPEN)


def test_serving_bus_events_do_not_depend_on_tracing():
    """Crash, failed-batch and remediation events reach the bus with
    tracing off."""
    traced, _, _ = _remediated_serving(TelemetryConfig())
    untraced, _, untraced_events = _remediated_serving(TelemetryConfig(tracing=False))
    assert untraced.telemetry.tracer is None
    assert untraced.telemetry.events_jsonl() == traced.telemetry.events_jsonl()
    kinds = {e.kind for e in untraced_events}
    assert {"dispatch.crash", "batch.failed", "remediation.apply"} <= kinds


# --------------------------------------------------------------------- #
# A serving run reports once, when it ends
# --------------------------------------------------------------------- #
class _RunReportOnly:
    """Serving telemetry that has nothing but the end-of-run report."""

    def __init__(self):
        self.moments = []

    def record_run(self, result, moments=(), resilience=None, faults=None):
        self.moments.append(list(moments))


@pytest.mark.parametrize("run", ["storm", "remediated"])
def test_serving_loop_makes_no_telemetry_call(monkeypatch, run):
    """A faulted, protected (and remediated) serving run returns what an
    unobserved one does, with telemetry that only takes the final report:
    every crash, retry, failed batch, control tick and remediation stage
    reaches telemetry through that report's moments."""
    report = _RunReportOnly()
    monkeypatch.setattr(
        TelemetrySession, "serving_instrumentation", lambda self, name: report
    )
    if run == "storm":
        (_, observed), (_, bare) = _storm(7), _storm(7, telemetry=None)
    else:
        (_, observed, _), (_, bare, _) = (
            _remediated_serving(TelemetryConfig(), SEED), _remediated_serving(None, SEED)
        )
    assert observed.signature() == bare.signature()
    assert vars(observed.resilience) == vars(bare.resilience)
    assert observed.dispatches == bare.dispatches
    (moments,) = report.moments
    assert [m[0] for m in moments] == sorted(m[0] for m in moments)
    by_kind = {kind: [m[2:] for m in moments if m[1] == kind]
               for kind in ("crash", "retry", "failed", "tick", "remediation")}
    assert sorted(by_kind["crash"]) == [
        (d.dispatch, d.outcome == "killed", d.domain)
        for d in observed.dispatches if d.outcome != "ok"
    ]
    rep = observed.resilience
    assert len(by_kind["retry"]) == rep.retries > 0
    assert sum(batch for batch, in by_kind["failed"]) == rep.failed_requests > 0
    assert len(by_kind["tick"]) == 15  # 900 s at the default 60 s interval
    stages = Counter(stage for stage, _ in by_kind["remediation"])
    if run == "storm":
        assert observed.remediation is None and not stages
    else:
        remedy = observed.remediation
        assert remedy.signature() == bare.remediation.signature()
        assert stages == {
            stage: n for stage, n in (
                ("detection", len(remedy.detections)),
                ("proposal", len(remedy.proposals)),
                ("verdict", len(remedy.verdicts)),
                ("apply", len(remedy.applications)),
                ("rollback", len(remedy.rollbacks)),
            ) if n
        }


def _serving_exports(case):
    """The telemetry session of one pinned serving case."""
    if case == "storm-7":
        return _storm(7)[0].telemetry
    if case == "remediated-2023":
        return _remediated_serving(TelemetryConfig(), SEED)[0].telemetry
    # One session shared by a faulted burst, two remediated runs and a
    # second burst.
    session = TelemetrySession(TelemetryConfig())
    platform = ServerlessPlatform(AWS_LAMBDA, seed=SEED, telemetry=session)
    platform.run_burst(
        BurstSpec(app=SORT, concurrency=300, packing_degree=2, scenario=CHAOS,
                  retry_policy=ExponentialBackoffRetry(max_retries=3)),
        repetition=0,
    )
    for seed in (7, SEED):
        _remediated_serving(session, seed)
    platform.run_burst(BurstSpec(app=SORT, concurrency=200), repetition=1)
    return session


#: sha256 of the Chrome trace (``json.dumps(..., sort_keys=True)``), the
#: Prometheus text and the JSONL of each serving case above.
SERVING_EXPORTS = {
    "storm-7": ("51bfdd990208b69104fa88246a9081a9bf6384d62a797f3684196a86ca18ab87",
                "065a7d004e8bc5d0117e2ae8b78a21164a3621df4163defa5282dae10d3672b0",
                "3595c4ceb2116c05ae92ffdee8a3f206ea42aadd3882bcac2dd01ddd8475e255"),
    "remediated-2023": (
        "096899ff0199c9f99c38d100f2fcc735557a6dbed31d4ed5912417afadbc8c7e",
        "3033f950ba4ab168558445950f3fad053e2fd9cdf9ba2c40c98a640925b604c0",
        "46e98387eabfffb5a9766fd3e48bc682d280ad4406f74fb013f7381cac57afc0"),
    "shared": ("4bfdc1dedd74e342de9048a1f0e3b9937c06fe88b376163d1263399579e2e7be",
               "b0572f9a019c3be27d5116b596e404b4b90ce528cd9d4f2e87eb7ed78f06865e",
               "cf43de9d33f1dfaeecc2424eded61bfff0ec13a073d071806c52bfd08823a91a"),
}


@pytest.mark.parametrize("case", sorted(SERVING_EXPORTS))
def test_serving_exports_are_pinned(case):
    """Spans from the dispatch log, instants and events from the moment
    log, counts from the result: all three exports, to the byte."""
    session = _serving_exports(case)
    exports = (json.dumps(session.chrome_trace(), sort_keys=True),
               session.prometheus_text(), session.events_jsonl())
    assert tuple(hashlib.sha256(e.encode()).hexdigest() for e in exports) == (
        SERVING_EXPORTS[case]
    )
