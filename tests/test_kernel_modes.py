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

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chaos import InvariantAuditor, burst_violations, serving_violations
from repro.core.models import ExecutionTimeModel
from repro.engine import DispatchKernel, fluid
from repro.extensions.mixed import MixedPacker
from repro.extensions.mixed_sim import MixedBurstSimulator
from repro.faults.retry import (
    ExponentialBackoffRetry,
    FixedDelayRetry,
    HedgePolicy,
    ImmediateRetry,
    RetryBudget,
)
from repro.faults.scenario import FaultScenario
from repro.platform.base import ServerlessPlatform
from repro.platform.invoker import BurstSpec, FunctionTimeoutError
from repro.platform.providers import AWS_LAMBDA, GOOGLE_CLOUD_FUNCTIONS, PROVIDERS
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
    NoKeepAlive,
    OnlineReplanner,
    PoissonProcess,
    ServingConfig,
    ServingSimulator,
    StreamingPolicy,
    WarmPool,
)
from repro.sim.randomness import RandomStreams
from repro.telemetry import TelemetryConfig
from repro.workloads import SORT, VIDEO, XAPIAN
from repro.workloads.synthetic import make_synthetic
from tests.test_serving_ties import GridArrivals, fingerprint

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
        # a partial last chain, with its own block of skew draws
        (BurstSpec(app=SORT, concurrency=997, packing_degree=7, skew_cv=0.5), AWS_LAMBDA),
        (
            BurstSpec(
                app=VIDEO, concurrency=3001, packing_degree=8,
                extra_io_mb_per_function=2.5,
            ),
            AWS_LAMBDA,
        ),
    ],
    ids=["plain", "packed", "waved", "rounded", "skewed", "io"],
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
    for result in (scalar, event_loop, default):
        assert burst_violations(spec, result, provider.gb_second_usd) == []


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
    for result in (scalar, event_loop, default):
        assert burst_violations(spec, result, AWS_LAMBDA.gb_second_usd) == []


def test_a_pending_stream_makes_the_simulator_not_fresh():
    """A ``schedule_sorted`` stream never enters the heap, yet it is still
    agenda: a burst begun beside it must take the event loop."""
    from repro.engine.burst import BurstDispatchKernel
    from repro.platform.base import burst_substrate, interference_model
    from repro.platform.storage import ObjectStore
    from repro.sim.engine import Simulator

    sim, rng = Simulator(), RandomStreams(3)
    scheduler, pipeline = burst_substrate(AWS_LAMBDA, sim, rng)
    kernel = BurstDispatchKernel(
        sim, AWS_LAMBDA, scheduler, pipeline, ObjectStore(), rng,
        interference_model(AWS_LAMBDA),
    )
    spec = BurstSpec(app=SORT, concurrency=10)
    assert fluid.fluid_ineligibility(kernel, spec) is None
    sim.schedule_sorted([5.0], lambda t: None)
    assert not sim._heap
    assert fluid.fluid_ineligibility(kernel, spec) == "simulator not fresh"


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
    for result in (scalar, event_loop, default):
        assert burst_violations(spec, result, AWS_LAMBDA.gb_second_usd) == []


def test_second_provider_identical_across_modes():
    spec = BurstSpec(app=VIDEO, concurrency=600, packing_degree=4)
    results = [r for r, _ in _burst_on_paths(spec, provider=GOOGLE_CLOUD_FUNCTIONS)]
    assert results[0] == results[1] == results[2]


def _outcome(path, profile, spec, seed=77):
    """``spec`` on ``profile`` down one path, and whether the fluid replay
    ran it. The outcome is the result, or the type and message of the
    error raised; a billed timeout adds its bill and record."""
    replays = []
    real_run = fluid._run_fluid

    def run_fluid(*args):
        replays.append(True)
        return real_run(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fluid, "_run_fluid", run_fluid)
        try:
            outcome, _ = _on_path(path, lambda: _burst(spec, provider=profile, seed=seed))
        except FunctionTimeoutError as exc:
            outcome = (type(exc), str(exc), exc.billed_usd, exc.record)
        except (RuntimeError, ValueError) as exc:
            outcome = (type(exc), str(exc))
    return outcome, bool(replays)


@pytest.mark.parametrize("concurrency", [20, 100])
@pytest.mark.parametrize("n_servers", [1, 2, 4])
def test_fleet_exhaustion_identical_on_both_paths(n_servers, concurrency):
    """A server hosts 16 max-memory SORT instances (96 cores, 6 each): a
    fleet of n servers runs C <= 16n and otherwise aborts at the same
    placement, with the same message, on the replay and the event loop."""
    profile = AWS_LAMBDA.with_overrides(fleet_servers=n_servers)
    spec = BurstSpec(app=SORT, concurrency=concurrency)
    loop, replayed_loop = _outcome("event-loop", profile, spec)
    replay, replayed = _outcome("default", profile, spec)
    assert (replayed_loop, replayed) == (False, True)
    assert loop == replay
    if concurrency <= 16 * n_servers:
        assert replay.n_instances == concurrency
    else:
        assert replay == (
            RuntimeError,
            f"fleet exhausted: {n_servers} servers, {16 * n_servers} instances placed",
        )


@pytest.mark.parametrize("concurrency", [40, 100])
def test_fleet_slots_reused_identical_on_both_paths(concurrency):
    """More placements than the one server's 16 slots, spread out enough
    (0.5 s more search per request) that completions free a slot in time
    for each: the replay must count the freed slots as the event loop
    does, and neither path runs out."""
    profile = AWS_LAMBDA.with_overrides(fleet_servers=1, sched_search_s=0.5)
    spec = BurstSpec(app=XAPIAN, concurrency=concurrency)
    loop, replayed_loop = _outcome("event-loop", profile, spec)
    replay, replayed = _outcome("default", profile, spec)
    assert (replayed_loop, replayed) == (False, True)
    assert replay == loop
    assert replay.n_instances == concurrency > 16


@pytest.mark.parametrize(
    "concurrency, packing_degree", [(1000, 1), (5000, 8)], ids=["c1000", "c5000-p8"]
)
def test_bigger_fleet_changes_nothing(concurrency, packing_degree):
    spec = BurstSpec(app=SORT, concurrency=concurrency, packing_degree=packing_degree)
    huge = AWS_LAMBDA.with_overrides(fleet_servers=10**6)
    for path in ("event-loop", "default"):
        (default_fleet, _), (huge_fleet, _) = (
            _on_path(path, lambda p=p: _burst(spec, provider=p)) for p in (AWS_LAMBDA, huge)
        )
        assert default_fleet == huge_fleet


@st.composite
def _sampled_bursts(draw):
    """A fault-free burst at the edges the replay handles: C=1, P=C, one
    warm instance, partial last chains, skew, extra I/O, small memory,
    billing rounded to a millisecond up to a minute, fleets of one or two
    servers that may run out, execution caps that may abort, and one or
    two build slots, so builds outlast placements and ship from the
    late-build event."""
    concurrency = draw(st.integers(1, 300))
    # Small random degrees too: a large one mostly outruns the 900 s cap.
    packing = draw(
        st.sampled_from([1, concurrency])
        | st.integers(1, min(concurrency, 12))
        | st.integers(1, concurrency)
    )
    n_instances = -(-concurrency // packing)
    spec = BurstSpec(
        app=draw(st.sampled_from([SORT, VIDEO, XAPIAN])),
        concurrency=concurrency,
        packing_degree=packing,
        wave_size=draw(st.sampled_from([None, 1]) | st.integers(1, n_instances + 2)),
        skew_cv=draw(st.sampled_from([0.0, 0.3, 1.0])),
        extra_io_mb_per_function=draw(st.sampled_from([0.0, 2.5])),
        provisioned_mb=draw(st.sampled_from([None, 2048])),
    )
    overrides = {}
    if draw(st.booleans()):
        # From a millisecond tick to a one-minute one, with a minimum up to
        # a minute: a short attempt bills many times what it ran.
        overrides.update(
            billing_granularity_s=draw(st.sampled_from([0.001, 0.1, 1.0, 60.0])),
            min_billed_duration_s=draw(st.sampled_from([0.0, 0.1, 60.0])),
            cpu_throttle_multiplier=1.25,
        )
    fleet = draw(st.sampled_from([None, 1, 2]))
    if fleet is not None:
        overrides["fleet_servers"] = fleet
        search = draw(st.sampled_from([None, 0.3, 0.5, 2.0]))
        if search is not None:
            overrides["sched_search_s"] = search
    slots = draw(st.sampled_from([None, 1, 2]))
    if slots is not None:
        overrides["build_slots"] = slots
    # Most bursts run to the end; some hit a tight execution cap.
    cap = draw(st.sampled_from([None, None, None, 5.0, 30.0, 100.0]))
    if cap is not None:
        overrides["max_execution_seconds"] = cap
    profile = PROVIDERS[draw(st.sampled_from(sorted(PROVIDERS)))]
    return profile.with_overrides(**overrides), spec, draw(st.integers(0, 2**16))


#: No placement, build or noise latency: every container arrives at the
#: same instant, and with a pressure-free app the partial last chain runs
#: as long as the full ones, so every instance ends at the same instant.
#: Ties go to the earlier start (the heap's sequence number), and the last
#: chain's place in that order moves the store total's last bits.
TIED = GOOGLE_CLOUD_FUNCTIONS.with_overrides(
    exec_noise_sigma=0.0,
    sched_base_s=0.0,
    sched_search_s=0.0,
    build_base_s=0.0,
    build_rate_mb_s=float("inf"),
)
FLAT = make_synthetic(pressure_per_gb=0.0, io_mb=10.0, io_shared_fraction=0.97)
TIED_BURST = (TIED, BurstSpec(app=FLAT, concurrency=251, packing_degree=3), 5)


@settings(max_examples=200, deadline=None)
@given(case=_sampled_bursts())
# The one server runs out at the 25th placement, after 8 completions have
# freed their slots.
@example(
    case=(
        AWS_LAMBDA.with_overrides(fleet_servers=1, sched_search_s=0.04),
        BurstSpec(app=XAPIAN, concurrency=200, skew_cv=1.0),
        5,
    )
)
# GCF bills egress on the store total, whose terms here are inexact: a
# total summed in another order shows in the expense.
@example(
    case=(
        GOOGLE_CLOUD_FUNCTIONS,
        BurstSpec(app=XAPIAN, concurrency=250, packing_degree=3),
        5,
    )
)
@example(case=TIED_BURST)
# One-minute rounding and a one-minute minimum: each two-minute attempt,
# stretched to two and a half by the throttle multiplier, bills three.
@example(
    case=(
        GOOGLE_CLOUD_FUNCTIONS.with_overrides(
            billing_granularity_s=60.0, min_billed_duration_s=60.0,
            cpu_throttle_multiplier=1.25,
        ),
        BurstSpec(app=SORT, concurrency=120, packing_degree=4, wave_size=10),
        5,
    )
)
# One build slot behind a near-free scheduler: every chain's build finishes
# after its placement, so each ship comes from a late-build event.
@example(
    case=(
        AWS_LAMBDA.with_overrides(build_slots=1, sched_base_s=1e-4, sched_search_s=1e-6),
        BurstSpec(app=SORT, concurrency=60, wave_size=20),
        5,
    )
)
def test_replay_equals_event_loop_on_sampled_bursts(case):
    """The replay returns what the event loop returns, or raises what it
    raises: the same exception type and message, and for a billed timeout
    the same bill and record."""
    profile, spec, seed = case
    loop, replayed_loop = _outcome("event-loop", profile, spec, seed)
    replay, replayed = _outcome("default", profile, spec, seed)
    assert (replayed_loop, replayed) == (False, True)
    assert replay == loop
    for result in (loop, replay):
        if not isinstance(result, tuple):  # not an abort
            assert burst_violations(spec, result, profile.gb_second_usd) == []


def test_tied_burst_ends_every_instance_at_once():
    """The tie example above still ties, so it keeps testing the order."""
    profile, spec, seed = TIED_BURST
    result, _ = _outcome("default", profile, spec, seed)
    assert len(result.table) == 84
    assert len(set(result.table.exec_end.tolist())) == 1


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
        self.throttled = 0
        self.lost = 0

    def throttle_clock(self, launch_at):
        self.clock = max(self.clock, launch_at)
        return self.clock

    def on_throttled(self, chain):
        self.throttled += 1

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
    kernel = DispatchKernel(RandomStreams(17).spawn("kernel-bench"))
    kernel.bind(None, scenario, ImmediateRetry(3))
    env = _ChainEnv(kernel)
    chains = []
    for i in range(n_chains):
        chain = kernel.new_chain(n_packed=n_packed)
        kernel.run_synchronous_chain(chain, env, launch_at=i * spacing_s)
        chains.append(chain)
    return kernel, env, chains


def test_faulted_chain_walk_identical_across_modes_and_conserving():
    (_, scalar, _), _ = _on_path("scalar", lambda: _walk(STORMY, 2000, 4, 0.01))
    (_, default, chains), _ = _on_path("default", lambda: _walk(STORMY, 2000, 4, 0.01))
    assert scalar.log == default.log  # float-for-float, same order
    assert (scalar.retries, scalar.lost) == (default.retries, default.lost)
    assert default.retries > 0
    assert len(default.log) + default.lost == 2000
    assert all(c.satisfied or c.lost for c in chains)


def test_throttle_storm_chain_walk_identical_across_modes():
    (_, scalar, _), _ = _on_path("scalar", lambda: _walk(TIGHT, 100, 1, 0.001))
    (_, default, _), _ = _on_path("default", lambda: _walk(TIGHT, 100, 1, 0.001))
    assert scalar.log == default.log
    assert (scalar.throttled, scalar.lost) == (default.throttled, default.lost)
    assert default.throttled > 0


# --------------------------------------------------------------------- #
# Serving / mixed-sim / chaos-audited consumers: same bits on every path.
# --------------------------------------------------------------------- #

_EXEC = ExecutionTimeModel(
    coeff_a=XAPIAN.base_seconds, coeff_b=0.03, mem_gb=XAPIAN.mem_gb
)


def _serving_run(scenario=None, retry_policy=None):
    sim = ServingSimulator(
        AWS_LAMBDA,
        XAPIAN,
        _EXEC,
        pool=WarmPool(FixedTTL(60.0)),
        scenario=scenario,
        retry_policy=retry_policy,
        seed=11,
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
    """Buffered draws must not change results or dispatch logs, and the
    audited runs must be violation-free on both paths."""
    results = []
    for path in ("scalar", "default"):
        result, _ = _on_path(path, _serving_run)
        report = InvariantAuditor().finalize(result)
        assert report.ok, report.summary()
        assert report.events_seen > 0
        results.append(result)
    assert results[0].signature() == results[1].signature()
    assert results[0].dispatches == results[1].dispatches


def test_mixed_sim_scalar_batched_identical():
    plan = MixedPacker(AWS_LAMBDA).pack_mixed({SORT: 60, VIDEO: 40})
    results = [
        _on_path(path, lambda: MixedBurstSimulator(AWS_LAMBDA, seed=121).run(plan))[0]
        for path in ("scalar", "default")
    ]
    assert results[0].run == results[1].run
    assert results[0].storage == results[1].storage


# --------------------------------------------------------------------- #
# Sampled serving configurations
# --------------------------------------------------------------------- #
SERVING_PROFILES = {
    "aws": AWS_LAMBDA,
    "gcf": GOOGLE_CLOUD_FUNCTIONS,
    "gcf-rounded": GOOGLE_CLOUD_FUNCTIONS.with_overrides(
        billing_granularity_s=0.1, min_billed_duration_s=0.1,
        cpu_throttle_multiplier=1.25,
    ),
}

#: One scenario per fault model a serving run takes.
SERVING_FAULTS = {
    "none": None,
    "poison": FaultScenario(name="poison", crash_rate=0.08, persistent_fraction=0.3,
                            poison_heal_s=120.0),
    "throttle": FaultScenario(name="throttle", throttle_capacity=20,
                              throttle_refill_per_s=2.0, throttle_max_retries=2),
    "correlated": FaultScenario(name="correlated", correlated_bursts=2,
                                correlated_fraction=0.5, correlated_window_s=200.0),
    "straggler": FaultScenario(name="straggler", straggler_rate=0.1),
    "gray": FaultScenario(name="gray", gray_domains=(0, 2), gray_slowdown=3.0,
                          gray_onset_s=30.0, gray_heal_s=150.0),
}

SERVING_RETRIES = {
    "none": lambda: None,
    "immediate": lambda: ImmediateRetry(max_retries=2),
    "fixed": lambda: FixedDelayRetry(delay_s=1.0, max_retries=2),
    "backoff": lambda: ExponentialBackoffRetry(max_retries=3),
    "budget": lambda: RetryBudget(ExponentialBackoffRetry(max_retries=3), budget=5),
}

SERVING_POOLS = {
    "none": NoKeepAlive,
    "ttl": lambda: FixedTTL(60.0),
    "hybrid": lambda: HybridHistogram(min_observations=5),
}


@st.composite
def _serving_cases(draw):
    """One serving configuration, as names and numbers: every run of it
    builds its own components."""
    return {
        "profile": draw(st.sampled_from(sorted(SERVING_PROFILES))),
        # The profile's own crash model: a run without a scenario crashes
        # at this rate and retries this often when it has no policy.
        "failure_rate": draw(st.sampled_from([0.0, 0.1, 0.3])),
        "max_retries": draw(st.sampled_from([0, 2, 4])),
        "arrivals": draw(st.sampled_from(["poisson", "diurnal", "grid"])),
        "rate": draw(st.sampled_from([0.5, 2.0, 6.0])),
        "degree": draw(st.integers(min_value=1, max_value=12)),
        "timeout": draw(st.sampled_from([0.0, 0.5, 2.0, 5.0])),
        "faults": draw(st.sampled_from(sorted(SERVING_FAULTS))),
        "resilience": draw(st.sampled_from(["none", "admission", "full"])),
        "pool": draw(st.sampled_from(sorted(SERVING_POOLS))),
        "replan": draw(st.booleans()),
        "retry": draw(st.sampled_from(sorted(SERVING_RETRIES))),
        "horizon": draw(st.sampled_from([60.0, 150.0, 300.0])),
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
    }


def _serve(case, telemetry=None):
    """Run ``case`` on fresh components: (result, breaker bank or None)."""
    profile = SERVING_PROFILES[case["profile"]].with_overrides(
        failure_rate=case["failure_rate"], max_retries=case["max_retries"]
    )
    degree, seed = case["degree"], case["seed"]
    config = ServingConfig(qos_sojourn_s=30.0, backlog_threshold=6)
    resilience = None
    if case["resilience"] != "none":
        full = case["resilience"] == "full"
        resilience = ResiliencePolicy(
            admission=ConcurrencyLimitAdmission(limit=8 * degree),
            breakers=CircuitBreakerBank(
                n_domains=config.fault_domains, rng=np.random.default_rng(seed),
                failure_threshold=3, recovery_s=60.0,
            ) if full else None,
            brownout=BrownoutController(
                violation_threshold=0.02, backlog_threshold=config.backlog_threshold,
                degree_boost=1.25,
            ) if full else None,
        )
    controller = None
    if case["replan"]:
        controller = OnlineReplanner(profile, XAPIAN, _EXEC, config.qos_sojourn_s,
                                     window_s=60.0, cooldown_s=60.0)
    rate = case["rate"]
    if case["arrivals"] == "poisson":
        process = PoissonProcess(rate)
    elif case["arrivals"] == "diurnal":
        process = DiurnalProcess(rate, period_s=case["horizon"])
    else:  # ties with each other, the control ticks and the batch timers
        process = GridArrivals(rate)
    sim = ServingSimulator(
        profile, XAPIAN, _EXEC, pool=WarmPool(SERVING_POOLS[case["pool"]]()),
        config=config, controller=controller, resilience=resilience,
        scenario=SERVING_FAULTS[case["faults"]],
        retry_policy=SERVING_RETRIES[case["retry"]](), seed=seed, telemetry=telemetry,
    )
    result = sim.run(process, StreamingPolicy(degree=degree, batch_timeout_s=case["timeout"]),
                     case["horizon"])
    return result, None if resilience is None else resilience.breakers


@settings(max_examples=200, deadline=None)
@given(case=_serving_cases())
def test_sampled_serving_runs_agree_on_every_path(case):
    """A serving run returns the same result, to the last bit, and the
    same dispatch log with unbuffered draws, with buffered ones and with a
    full telemetry session, and breaks no serving invariant."""
    (scalar, _), (default, breakers) = (
        _on_path(path, lambda: _serve(case))[0] for path in ("scalar", "default")
    )
    observed, _ = _serve(case, telemetry=TelemetryConfig())
    assert fingerprint(scalar) == fingerprint(default) == fingerprint(observed)
    assert scalar.dispatches == default.dispatches == observed.dispatches
    assert serving_violations(default, breakers=breakers) == []
