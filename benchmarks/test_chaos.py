"""Benchmarks for the chaos harness (CH1) and the auditor's cost contract."""

import time

import pytest
from conftest import record_serving_benchmark, run_once

from repro.experiments.figures import chaos_worst_storm


def test_ch1_protection_survives_worst_found_storm(benchmark, ctx):
    fig = run_once(benchmark, chaos_worst_storm, ctx)
    record_serving_benchmark(benchmark, "chaos_worst_storm", fig)
    by = {r["mode"]: r for r in fig.rows}
    unprot, prot = by["unprotected"], by["protected"]
    # The acceptance claim: the search found a storm that breaks the SLO
    # floor unprotected, and protection recovers attainment at
    # equal-or-lower cost per completed request under that same storm.
    assert unprot["attainment_pct"] < 90.0
    assert prot["attainment_pct"] > unprot["attainment_pct"]
    assert prot["usd_per_1k_completed"] <= unprot["usd_per_1k_completed"]
    # Both runs audited clean over a real event volume.
    assert unprot["violations"] == prot["violations"] == 0
    assert unprot["audit_events"] > 0 and prot["audit_events"] > 0
    # The arrival schedule is shared across modes.
    assert unprot["requests"] == prot["requests"]


def test_ch1_same_seed_reproduces(ctx):
    a = chaos_worst_storm(ctx)
    b = chaos_worst_storm(ctx)
    assert a.rows == b.rows


@pytest.mark.telemetry_overhead
def test_perf_auditor_disabled_is_free():
    """The zero-cost-when-disabled contract for a bus-only session: a
    serving run whose session has no tracer, registry or event log must
    stay within 2% of a fully untelemetered run. Its hooks run once per
    dispatch, completion, crash, retry and tick, and find nothing to
    record but a crash's or a failed batch's bus event; no hook runs per
    arrival. The auditor needs no session: it reads the finished run.

    Timing-sensitive, so it carries the ``telemetry_overhead`` marker and
    runs in the benchmarks CI job, not the tier-1 suite.
    """
    from repro.core.models import ExecutionTimeModel
    from repro.extensions.streaming import StreamingPolicy
    from repro.faults.scenario import SCENARIOS
    from repro.platform.providers import GOOGLE_CLOUD_FUNCTIONS
    from repro.serving import (
        FixedTTL,
        PoissonProcess,
        ServingConfig,
        ServingSimulator,
        WarmPool,
    )
    from repro.telemetry.config import TelemetryConfig, TelemetrySession
    from repro.workloads import XAPIAN

    exec_model = ExecutionTimeModel(
        coeff_a=XAPIAN.base_seconds, coeff_b=0.03, mem_gb=XAPIAN.mem_gb
    )

    def one_run(telemetry):
        sim = ServingSimulator(
            GOOGLE_CLOUD_FUNCTIONS,
            XAPIAN,
            exec_model,
            pool=WarmPool(FixedTTL(120.0)),
            config=ServingConfig(),
            scenario=SCENARIOS["flaky"],
            seed=31,
            telemetry=telemetry,
        )
        return sim.run(
            PoissonProcess(4.0),
            StreamingPolicy(degree=4, batch_timeout_s=2.0),
            600.0,
        ).n_requests

    def auditorless_session():
        # A live session that records nothing: the disabled path every
        # ordinary telemetry user takes.
        return TelemetrySession(
            TelemetryConfig(tracing=False, metrics=False, events=False)
        )

    # Warm both paths before timing.
    assert one_run(None) == one_run(auditorless_session())

    def best_of(rounds, make_telemetry):
        best = float("inf")
        for _ in range(rounds):
            telemetry = make_telemetry() if make_telemetry else None
            t0 = time.perf_counter()
            one_run(telemetry)
            best = min(best, time.perf_counter() - t0)
        return best

    baseline = best_of(5, None)
    disabled = best_of(5, auditorless_session)
    # 2% contract plus a small absolute epsilon against scheduler jitter.
    assert disabled <= baseline * 1.02 + 0.005, (
        f"auditor-disabled serving cost {disabled:.4f}s vs baseline "
        f"{baseline:.4f}s"
    )
