"""Performance microbenchmarks of the simulation substrate itself.

Unlike the figure benchmarks (one timed round, shape assertions), these
measure the primitives' throughput across many rounds — the numbers that
determine how large an experiment the harness can afford. Regressions here
make every figure slower.
"""

import pytest
from conftest import record_throughput, record_wall, run_once

from repro.platform.base import ServerlessPlatform
from repro.platform.invoker import BurstSpec
from repro.platform.providers import AWS_LAMBDA
from repro.sim.engine import Simulator
from repro.sim.resources import FifoResource, ProcessorSharingResource
from repro.workloads import SORT


def test_perf_engine_event_throughput(benchmark):
    """Raw event-loop rate: schedule + execute 10k no-op events."""

    def run():
        sim = Simulator()
        for i in range(10_000):
            sim.schedule(float(i % 100), lambda: None)
        sim.run()
        return sim.events_processed

    assert benchmark(run) == 10_000
    record_throughput(benchmark, "events_per_s", 10_000)


def test_perf_processor_sharing_queue(benchmark):
    """Virtual-time PS queue with 2k concurrent jobs (O(log n) per event)."""

    def run():
        sim = Simulator()
        ps = ProcessorSharingResource(sim, capacity=100.0)
        done = []
        for i in range(2_000):
            ps.submit(1.0 + (i % 5) * 0.1, lambda: done.append(1))
        sim.run()
        return len(done)

    assert benchmark(run) == 2_000


def test_perf_fifo_queue(benchmark):
    def run():
        sim = Simulator()
        fifo = FifoResource(sim, servers=32)
        done = []
        for _ in range(5_000):
            fifo.submit(0.5, lambda: done.append(1))
        sim.run()
        return len(done)

    assert benchmark(run) == 5_000


#: Scenario exercising every kernel path — throttle verdicts, crash
#: draws, retry delays, straggler factors.
def _bench_scenario():
    from repro.faults.scenario import FaultScenario

    return FaultScenario(
        name="bench",
        crash_rate=0.2,
        throttle_capacity=64,
        throttle_refill_per_s=500.0,
        straggler_rate=0.05,
    )


class _CountingEnv:
    """Minimal consumer: monotone throttle clock + outcome counters."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.clock = 0.0
        self.succeeded = 0
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
        self.succeeded += 1

    def on_crash(self, chain, launch_at, warm, exec_seconds, crash):
        return launch_at + crash.at_fraction * exec_seconds

    def on_retry(self, chain, delay):
        pass

    def on_exhausted(self, chain):
        self.lost += 1


def test_perf_dispatch_kernel_chain_throughput(benchmark):
    """Attempt-chain arbitration rate of ``run_synchronous_chain``.

    Walks 2k faulted chains one at a time on an arithmetic clock. No
    production dispatch path walks chains this way (docs/ARCHITECTURE.md);
    this is the ``chains_per_s`` the CI perf gate tracks.
    """
    from repro.engine import DispatchKernel
    from repro.faults.retry import ImmediateRetry
    from repro.sim.randomness import RandomStreams

    scenario = _bench_scenario()

    def run():
        rng = RandomStreams(17).spawn("kernel-bench")
        kernel = DispatchKernel(rng)
        kernel.bind(None, scenario, ImmediateRetry(3))
        env = _CountingEnv(kernel)
        for i in range(2_000):
            chain = kernel.new_chain(n_packed=4)
            kernel.run_synchronous_chain(chain, env, launch_at=float(i) * 0.01)
        return env.succeeded + env.lost

    assert benchmark(run) == 2_000
    record_throughput(benchmark, "chains_per_s", 2_000)


def test_perf_compaction_crossover(benchmark):
    """Agenda compaction on a cancel-heavy 100k-event heap.

    90% of scheduled events are cancelled before the run (the shape
    hedging/twin-cancellation produces at million scale). The garbage-
    ratio trigger (rebuild once dead > live) with the 1024-event floor
    was chosen from this workload's measurements: floor 64 wins ~10%
    below ~8k events, 1024 wins ~6% at 1e5-1e6, compaction off is ~60%
    slower at 1e6 (see the ``Simulator.COMPACT_MIN_EVENTS`` docs).
    """

    def run():
        sim = Simulator()
        events = [
            sim.schedule(float(i % 997) + 1.0, lambda: None)
            for i in range(100_000)
        ]
        for i, event in enumerate(events):
            if i % 10:
                event.cancel()
        sim.run()
        return sim.events_processed, sim.compactions

    processed, compactions = benchmark(run)
    assert processed == 10_000
    assert compactions >= 1  # the trigger actually fired at this scale
    record_throughput(benchmark, "cancel_heavy_events_per_s", 100_000)


# --------------------------------------------------------------------- #
# Dispatch scale points: wall time of one full burst at C=1e4/1e5/1e6.
# The C>=1e5 points run on the fluid fast path (no faults/hedging/
# telemetry -> closed-form completion replay, byte-identical to the
# event-driven kernel); the CI perf gate tracks all three wall times.
# --------------------------------------------------------------------- #

def _scale_burst(concurrency, wave_size=None):
    platform = ServerlessPlatform(AWS_LAMBDA, seed=300)
    result = platform.run_burst(
        BurstSpec(app=SORT, concurrency=concurrency, wave_size=wave_size)
    )
    assert result.n_instances == concurrency
    return result


def test_perf_burst_scale_c1e4(benchmark):
    run_once(benchmark, _scale_burst, 10_000)
    record_wall(benchmark, "burst_c1e4_wall_s")


def test_perf_burst_scale_c1e5(benchmark):
    """The refactor's absolute budget: C=1e5 end-to-end within 5 s.

    Three rounds, averaged: the perf-smoke gate requires the
    fluid_chains_per_s derived here, so one round's clock noise should
    not decide it.
    """
    benchmark.pedantic(_scale_burst, args=(100_000,), rounds=3, iterations=1)
    wall = record_wall(benchmark, "burst_c1e5_wall_s")
    assert 0.0 < wall <= 5.0, f"C=1e5 burst took {wall:.2f}s (budget 5s)"
    record_throughput(benchmark, "fluid_chains_per_s", 100_000)


def test_perf_burst_scale_c1e6(benchmark):
    """Million-scale: wave_size caps live instances, exercising the
    warm-reuse ring inside the fluid replay."""
    run_once(benchmark, _scale_burst, 1_000_000, 60_000)
    record_wall(benchmark, "burst_c1e6_wall_s")


def test_perf_full_burst_c1000(benchmark):
    """End-to-end burst simulation rate at C=1000 (the harness workhorse)."""
    platform = ServerlessPlatform(AWS_LAMBDA, seed=221)

    def run():
        return platform.run_burst(
            BurstSpec(app=SORT, concurrency=1000)
        ).n_instances

    assert benchmark(run) == 1000


def test_perf_full_burst_c5000_packed(benchmark):
    platform = ServerlessPlatform(AWS_LAMBDA, seed=222)

    def run():
        return platform.run_burst(
            BurstSpec(app=SORT, concurrency=5000, packing_degree=8)
        ).n_instances

    assert benchmark(run) == 625


@pytest.mark.telemetry_overhead
def test_perf_telemetry_disabled_is_free():
    """The zero-cost-when-disabled contract: a disabled TelemetryConfig
    must keep the C=1000 burst within 2% of the uninstrumented path.

    Timing-sensitive by nature, so it carries the ``telemetry_overhead``
    marker and runs in the benchmarks CI job, not the tier-1 suite.
    """
    import time

    from repro.telemetry import TelemetryConfig

    def one_burst(telemetry):
        platform = ServerlessPlatform(AWS_LAMBDA, seed=224, telemetry=telemetry)
        return platform.run_burst(
            BurstSpec(app=SORT, concurrency=1000)
        ).n_instances

    # Warm both paths (imports, numpy generator setup) before timing.
    assert one_burst(None) == one_burst(TelemetryConfig.off()) == 1000

    def best_of(rounds, telemetry):
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            one_burst(telemetry)
            best = min(best, time.perf_counter() - t0)
        return best

    baseline = best_of(5, None)
    disabled = best_of(5, TelemetryConfig.off())
    # 2% contract plus a small absolute epsilon against scheduler jitter.
    assert disabled <= baseline * 1.02 + 0.005, (
        f"disabled telemetry cost {disabled:.4f}s vs baseline {baseline:.4f}s"
    )


def test_perf_optimizer_degree_search(benchmark):
    """Model-driven degree optimization must stay trivially cheap — that is
    ProPack's whole selling point vs the Oracle's brute force."""
    from repro.core.propack import ProPack

    platform = ServerlessPlatform(AWS_LAMBDA, seed=223)
    propack = ProPack(platform)
    propack.interference_profile(SORT)
    propack.scaling_profile()

    def run():
        optimizer = propack.optimizer(SORT, 5000)
        return optimizer.optimal_joint()

    assert benchmark(run) >= 1
