"""Tests for the container build + ship pipeline."""

import pytest

from repro.cluster.network import NetworkFabric
from repro.cluster.registry import FunctionImage
from repro.platform.container import ContainerPipeline
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams

IMAGE = FunctionImage("app", code_mb=10.0, runtime_mb=50.0, dependencies_mb=40.0)


def make_pipeline(slots=2, rate=10.0, base=1.0, cache=1.0, noise=0.0, uplink=1.0):
    sim = Simulator()
    net = NetworkFabric(sim, uplink_gbps=uplink)
    pipeline = ContainerPipeline(
        sim,
        net,
        RandomStreams(0),
        build_slots=slots,
        build_rate_mb_s=rate,
        build_base_s=base,
        ship_overhead_mb=5.0,
        build_cache_factor=cache,
        build_noise_sigma=noise,
    )
    return sim, pipeline


def test_build_seconds_formula():
    _, pipeline = make_pipeline(rate=10.0, base=1.0)
    # install = runtime + deps = 90 MB at 10 MB/s plus 1s base.
    assert pipeline.build_seconds(IMAGE) == pytest.approx(10.0)


def test_build_cache_factor_shrinks_install():
    _, pipeline = make_pipeline(rate=10.0, base=1.0, cache=0.5)
    assert pipeline.build_seconds(IMAGE) == pytest.approx(1.0 + 45.0 / 10.0)


def test_build_factor_discount():
    _, pipeline = make_pipeline(rate=10.0, base=1.0)
    assert pipeline.build_seconds(IMAGE, build_factor=0.5) == pytest.approx(5.5)


def test_ship_size_includes_overhead():
    _, pipeline = make_pipeline()
    assert pipeline.ship_size_mb(IMAGE) == pytest.approx(105.0)


def test_ship_factor_discounts_image_but_not_overhead():
    _, pipeline = make_pipeline()
    assert pipeline.ship_size_mb(IMAGE, ship_factor=0.5) == pytest.approx(55.0)


def test_build_returns_its_finish_instant():
    _, pipeline = make_pipeline(slots=1, rate=90.0, base=0.0)
    assert pipeline.build(pipeline.build_seconds(IMAGE)) == pytest.approx(1.0)


def test_builds_queue_on_slots():
    # One slot: the second build starts when the first one finishes.
    _, pipeline = make_pipeline(slots=1, rate=90.0, base=0.0)
    seconds = pipeline.build_seconds(IMAGE)
    assert [pipeline.build(seconds), pipeline.build(seconds)] == [
        pytest.approx(1.0), pytest.approx(2.0),
    ]


def test_ship_uses_network():
    sim, pipeline = make_pipeline(uplink=1.0)  # 125 MB/s
    done = []
    pipeline.network.ship(pipeline.ship_size_mb(IMAGE), lambda: done.append(sim.now))
    sim.run()
    assert done == [pytest.approx(105.0 / 125.0)]


def test_ship_callback_receives_args():
    # A build schedules nothing; a ship hands its callback the caller's args.
    sim, pipeline = make_pipeline(slots=1, rate=90.0, base=0.0)
    got = []
    assert pipeline.build(pipeline.build_seconds(IMAGE)) == pytest.approx(1.0)
    pipeline.network.ship(
        pipeline.ship_size_mb(IMAGE), lambda tag: got.append(tag), "shipped-1"
    )
    sim.run()
    assert got == ["shipped-1"]


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        make_pipeline(rate=0.0)
    with pytest.raises(ValueError):
        make_pipeline(cache=0.0)
    with pytest.raises(ValueError):
        make_pipeline(cache=1.5)


def test_build_noise_perturbs_duration():
    _, pipeline = make_pipeline(slots=1, rate=90.0, base=0.0, noise=0.2)
    done = pipeline.build(pipeline.build_seconds(IMAGE))
    assert done != pytest.approx(1.0)
    assert 0.3 < done < 3.0
