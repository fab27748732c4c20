"""Byte-identity of the dispatch fast paths against their references.

Every dispatch consumer runs one configuration: the kernel serves its RNG
draws from prefetched blocks (``BufferedGenerator``) and every burst tries
the closed-form fluid replay before the event loop. Neither may change a
single bit of any result, so each test runs one workload on several paths
and asserts full equality — records, expense, fault stats, signatures —
not approximate agreement. The references exist only here:

* ``scalar`` — unbuffered numpy draws, event loop only;
* ``event-loop`` — buffered draws, event loop only;
* ``default`` — what every caller runs.

``tests/test_batched_draws.py`` pins the draw facade itself.
"""

import functools

import pytest

from repro.chaos.auditor import InvariantAuditor
from repro.core.models import ExecutionTimeModel
from repro.engine import DispatchKernel, fluid
from repro.extensions.mixed import MixedPacker
from repro.extensions.mixed_sim import MixedBurstSimulator
from repro.faults.retry import ExponentialBackoffRetry, HedgePolicy, ImmediateRetry
from repro.faults.scenario import FaultScenario
from repro.platform.base import ServerlessPlatform
from repro.platform.invoker import BurstSpec
from repro.platform.providers import AWS_LAMBDA, GOOGLE_CLOUD_FUNCTIONS
from repro.serving import (
    FixedTTL,
    PoissonProcess,
    ServingSimulator,
    StreamingPolicy,
    WarmPool,
)
from repro.sim.randomness import RandomStreams
from repro.telemetry import TelemetryConfig, TelemetrySession
from repro.workloads import SORT, VIDEO, XAPIAN

PATHS = ("scalar", "event-loop", "default")

FAULTS = FaultScenario(
    name="modes",
    crash_rate=0.08,
    straggler_rate=0.05,
    throttle_capacity=128,
    throttle_refill_per_s=800.0,
)


def _on_path(path, run):
    """Call ``run()`` on one dispatch path.

    Returns its result and the number of bursts the fluid replay served.
    """
    real_replay = fluid.try_run_fluid
    served = []

    def replay(kernel, spec, image):
        result = real_replay(kernel, spec, image) if path == "default" else None
        served.append(result is not None)
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fluid, "try_run_fluid", replay)
        if path == "scalar":
            mp.setattr(RandomStreams, "enable_batching", lambda self, block=0: None)
        return run(), sum(served)


def _burst(spec, provider=AWS_LAMBDA, seed=77):
    # repetition pinned so the RNG family is independent of call order
    platform = ServerlessPlatform(provider, seed=seed)
    return platform.run_burst(spec, repetition=0)


def _burst_on_paths(spec, **kwargs):
    return [_on_path(path, lambda: _burst(spec, **kwargs)) for path in PATHS]


#: Rounded billing: every record's bill is throttled, floored and rounded
#: up on its own before the records are summed.
ROUNDED = AWS_LAMBDA.with_overrides(
    billing_granularity_s=0.1,
    min_billed_duration_s=0.1,
    cpu_throttle_multiplier=1.25,
)


@pytest.mark.parametrize(
    "spec, provider",
    [
        (BurstSpec(app=SORT, concurrency=500), AWS_LAMBDA),
        (BurstSpec(app=VIDEO, concurrency=1000, packing_degree=8), AWS_LAMBDA),
        (BurstSpec(app=SORT, concurrency=2000, wave_size=300), AWS_LAMBDA),
        (BurstSpec(app=SORT, concurrency=2000, packing_degree=3, wave_size=300), ROUNDED),
    ],
    ids=["plain", "packed", "waved", "rounded"],
)
def test_clean_burst_identical_across_all_modes(spec, provider):
    """Fault-free bursts take the fluid replay, which must agree with the
    event loop on every field of the RunResult (dataclass equality is
    recursive through records, expense, and fault stats)."""
    (scalar, _), (event_loop, _), (default, replayed) = _burst_on_paths(
        spec, provider=provider
    )
    assert replayed == 1
    assert scalar == event_loop == default


def test_faulted_burst_scalar_batched_identical_and_fluid_falls_back():
    """With faults the replay is ineligible: the default path falls back
    to the event loop and still matches the references byte for byte."""
    spec = BurstSpec(
        app=SORT,
        concurrency=800,
        scenario=FAULTS,
        retry_policy=ExponentialBackoffRetry(base_s=0.05, max_retries=3),
    )
    (scalar, _), (event_loop, _), (default, replayed) = _burst_on_paths(spec)
    assert replayed == 0
    assert scalar.fault_stats.signature() == event_loop.fault_stats.signature()
    assert scalar == event_loop == default
    assert scalar.fault_stats.crashed_attempts > 0  # the scenario bit


def test_hedged_burst_identical_across_modes():
    spec = BurstSpec(
        app=XAPIAN,
        concurrency=400,
        scenario=FaultScenario(name="strag", straggler_rate=0.2),
        hedge=HedgePolicy(trigger_factor=1.5),
    )
    (scalar, _), (event_loop, _), (default, _) = _burst_on_paths(spec)
    assert scalar == event_loop == default
    assert scalar.fault_stats.hedged_attempts > 0


def test_second_provider_identical_across_modes():
    spec = BurstSpec(app=VIDEO, concurrency=600, packing_degree=4)
    results = [r for r, _ in _burst_on_paths(spec, provider=GOOGLE_CLOUD_FUNCTIONS)]
    assert results[0] == results[1] == results[2]


# --------------------------------------------------------------------- #
# The synchronous chain walk (no production caller; the chains_per_s
# micro-benchmark times it).
# --------------------------------------------------------------------- #

STORMY = FaultScenario(
    name="stormy",
    crash_rate=0.2,
    throttle_capacity=64,
    throttle_refill_per_s=500.0,
    straggler_rate=0.05,
)
TIGHT = FaultScenario(
    name="tight", throttle_capacity=4, throttle_refill_per_s=10.0,
    throttle_max_retries=2,
)


class _ChainEnv:
    """Minimal ``run_synchronous_chain`` consumer that logs every outcome."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.clock = 0.0
        self.log = []
        self.retries = 0
        self.lost = 0

    def throttle_clock(self, launch_at):
        self.clock = max(self.clock, launch_at)
        return self.clock

    def on_throttled(self, chain):
        pass

    def on_rejected(self, chain):
        self.lost += 1

    def is_warm(self, launch_at):
        return False

    def attempt_seconds(self, chain, warm):
        factor = self.kernel.exec_noise_factor(0.25)
        factor *= self.kernel.straggler_factor()
        return chain.n_packed * 0.1 * factor

    def on_success(self, chain, launch_at, warm, exec_seconds):
        self.log.append((chain.chain_id, launch_at, exec_seconds))

    def on_crash(self, chain, launch_at, warm, exec_seconds, crash):
        return launch_at + crash.at_fraction * exec_seconds

    def on_retry(self, chain, delay):
        self.retries += 1

    def on_exhausted(self, chain):
        self.lost += 1


def _walk(scenario, n_chains, n_packed, spacing_s):
    kernel = DispatchKernel(
        RandomStreams(17).spawn("kernel-bench"),
        scenario=scenario,
        retry_policy=ImmediateRetry(3),
    )
    env = _ChainEnv(kernel)
    for i in range(n_chains):
        chain = kernel.new_chain(n_packed=n_packed, retry=kernel.fresh_retry())
        kernel.run_synchronous_chain(chain, env, launch_at=i * spacing_s)
    return kernel, env


def test_faulted_chain_walk_identical_across_modes_and_conserving():
    (_, scalar), _ = _on_path("scalar", lambda: _walk(STORMY, 2000, 4, 0.01))
    (kernel, default), _ = _on_path("default", lambda: _walk(STORMY, 2000, 4, 0.01))
    assert scalar.log == default.log  # float-for-float, same order
    assert (scalar.retries, scalar.lost) == (default.retries, default.lost)
    assert default.retries > 0
    assert len(default.log) + default.lost == 2000
    assert all(c.satisfied or c.lost for c in kernel.chains.values())


def test_throttle_storm_chain_walk_identical_across_modes():
    (k1, scalar), _ = _on_path("scalar", lambda: _walk(TIGHT, 100, 1, 0.001))
    (k2, default), _ = _on_path("default", lambda: _walk(TIGHT, 100, 1, 0.001))
    assert scalar.log == default.log
    assert scalar.lost == default.lost
    assert (k1.bucket.admitted, k1.bucket.rejected) == (
        k2.bucket.admitted, k2.bucket.rejected
    )
    assert k2.bucket.rejected > 0


# --------------------------------------------------------------------- #
# Serving / mixed-sim / chaos-audited consumers: same bits on every path.
# --------------------------------------------------------------------- #

_EXEC = ExecutionTimeModel(
    coeff_a=XAPIAN.base_seconds, coeff_b=0.03, mem_gb=XAPIAN.mem_gb
)


def _serving_run(telemetry=None, scenario=None, retry_policy=None):
    sim = ServingSimulator(
        AWS_LAMBDA,
        XAPIAN,
        _EXEC,
        pool=WarmPool(FixedTTL(60.0)),
        scenario=scenario,
        retry_policy=retry_policy,
        seed=11,
        telemetry=telemetry,
    )
    return sim.run(
        PoissonProcess(6.0),
        StreamingPolicy(degree=6, batch_timeout_s=4.0),
        1800.0,
    )


@pytest.mark.parametrize(
    "faults",
    [
        {},
        {
            "scenario": FAULTS,
            "retry_policy": ExponentialBackoffRetry(base_s=0.05, max_retries=3),
        },
    ],
    ids=["clean", "faulted"],
)
def test_serving_scalar_batched_identical(faults):
    """Serving is the one sustained-traffic path: buffered draws must match
    unbuffered ones on its batching loop and on its crash, straggler and
    retry path."""
    run = functools.partial(_serving_run, **faults)
    scalar, _ = _on_path("scalar", run)
    default, _ = _on_path("default", run)
    assert scalar.signature() == default.signature()
    if faults:
        assert default.resilience.crashes > 0
        assert default.resilience.retries > 0


def test_serving_chaos_audited_identical_and_clean():
    """Buffered draws must not change results even with a live auditor
    subscribed — and the audited runs must be violation-free on both
    paths."""
    signatures = []
    for path in ("scalar", "default"):
        session = TelemetrySession(
            TelemetryConfig(tracing=False, metrics=False, events=False)
        )
        auditor = InvariantAuditor().attach(session.bus)
        result, _ = _on_path(path, functools.partial(_serving_run, telemetry=session))
        report = auditor.finalize(result)
        assert report.ok, report.summary()
        assert report.events_seen > 0
        signatures.append(result.signature())
    assert signatures[0] == signatures[1]


def test_mixed_sim_scalar_batched_identical():
    plan = MixedPacker(AWS_LAMBDA).pack_mixed({SORT: 60, VIDEO: 40})
    results = [
        _on_path(path, lambda: MixedBurstSimulator(AWS_LAMBDA, seed=121).run(plan))[0]
        for path in ("scalar", "default")
    ]
    assert results[0].run == results[1].run
    assert results[0].storage == results[1].storage
