"""Tests for the decentralized (sharded) placement scheduler."""

import pytest

from repro.cluster.server import ServerPool
from repro.platform.base import ServerlessPlatform
from repro.platform.invoker import BurstSpec
from repro.platform.providers import AWS_LAMBDA
from repro.platform.scheduler_decentralized import DecentralizedScheduler
from repro.sim.engine import Simulator
from repro.workloads import SORT


def make(shards, base=0.0, search=1.0, sync=0.0):
    sim = Simulator()
    pool = ServerPool(256, cores_per_server=64, memory_mb_per_server=10**6)
    sched = DecentralizedScheduler(
        sim, pool, base_cost_s=base, search_cost_s=search,
        shards=shards, sync_cost_s=sync,
    )
    return sim, sched


def test_validation():
    with pytest.raises(ValueError):
        make(0)
    with pytest.raises(ValueError):
        make(2, sync=-1.0)


def test_single_shard_no_bus():
    sim, sched = make(1, base=1.0, search=0.0, sync=99.0)
    done = []
    sched.request_placement(1, 10, lambda server: done.append(sim.now))
    sim.run()
    assert done == [pytest.approx(1.0)]  # sync bus inactive at 1 shard
    assert sched.bus_cost_s == 0.0


def test_shards_divide_the_quadratic():
    def last_placement(shards):
        sim, sched = make(shards, search=0.01, sync=0.0)
        done = []
        for _ in range(100):
            sched.request_placement(1, 10, lambda server: done.append(sim.now))
        sim.run()
        return max(done)

    # Quadratic term ~ (C/k)^2 per shard: 4 shards ≈ 16x faster tail.
    assert last_placement(4) < 0.3 * last_placement(1)


def test_sync_bus_serializes():
    sim, sched = make(4, search=0.0, sync=1.0)
    done = []
    for _ in range(8):
        sched.request_placement(1, 10, lambda server: done.append(sim.now))
    sim.run()
    # Bus cost = 1.0 * log2(5); placements clear the bus one at a time.
    assert max(done) == pytest.approx(8 * sched.bus_cost_s, rel=1e-6)


def test_placements_counter_aggregates():
    sim, sched = make(4, search=0.0, sync=0.0)
    for _ in range(10):
        sched.request_placement(1, 10, lambda server: None)
    sim.run()
    # Requests round-robin over the shards, each counting its own placements.
    assert [shard.placements_made for shard in sched._shards] == [3, 3, 2, 2]


def test_excessive_decentralization_u_shape():
    """Paper Sec. 5: some decentralization helps; too much re-bottlenecks
    on synchronization."""
    def scaling(shards):
        profile = AWS_LAMBDA.with_overrides(
            name=f"s{shards}", scheduler_shards=shards
        )
        return ServerlessPlatform(profile, seed=5).measure_scaling_time(4000)

    centralized = scaling(1)
    sweet_spot = scaling(4)
    excessive = scaling(256)
    assert sweet_spot < 0.2 * centralized
    assert excessive > 1.5 * sweet_spot


def test_packing_composes_with_decentralization():
    """The paper's complementarity claim: packing still helps a sharded
    platform, and the combination beats either alone on service time."""
    from repro.core.propack import ProPack

    c = 4000
    central = ServerlessPlatform(AWS_LAMBDA, seed=6)
    sharded = ServerlessPlatform(
        AWS_LAMBDA.with_overrides(name="aws-s4", scheduler_shards=4), seed=6
    )
    central_packed = ProPack(central).run(SORT, c).result.service_time()
    sharded_base = sharded.run_burst(BurstSpec(app=SORT, concurrency=c)).service_time()
    sharded_packed = ProPack(sharded).run(SORT, c).result.service_time()
    assert sharded_packed < sharded_base       # packing helps even sharded
    assert sharded_packed < central_packed * 1.05  # combination >= either
