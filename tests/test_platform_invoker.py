"""Tests for the burst invoker: packing layout, waves, warm reuse, timeouts."""

import pytest

from repro.engine import fluid
from repro.platform.base import ServerlessPlatform
from repro.platform.invoker import BurstSpec, FunctionTimeoutError
from repro.platform.providers import AWS_LAMBDA
from repro.workloads import SORT, STATELESS_COST
from repro.workloads.synthetic import make_synthetic


@pytest.fixture(scope="module")
def platform():
    return ServerlessPlatform(AWS_LAMBDA, seed=5)


# --------------------------------------------------------------------- #
# BurstSpec validation
# --------------------------------------------------------------------- #

def test_spec_rejects_bad_concurrency():
    with pytest.raises(ValueError):
        BurstSpec(app=SORT, concurrency=0)


def test_spec_rejects_bad_degree():
    with pytest.raises(ValueError):
        BurstSpec(app=SORT, concurrency=10, packing_degree=0)


def test_spec_rejects_degree_above_concurrency():
    with pytest.raises(ValueError):
        BurstSpec(app=SORT, concurrency=5, packing_degree=6)


def test_spec_rejects_bad_wave():
    with pytest.raises(ValueError):
        BurstSpec(app=SORT, concurrency=10, wave_size=0)


def test_spec_rejects_exec_overhead_below_one():
    with pytest.raises(ValueError):
        BurstSpec(app=SORT, concurrency=10, exec_overhead=0.9)


@pytest.mark.parametrize(
    "field, value",
    [
        ("provisioned_mb", 0),
        ("provisioned_mb", -512),
        ("warm_dispatch_s", -5.0),
        ("warm_dispatch_s", float("inf")),
        ("extra_io_mb_per_function", -3.0),
        ("extra_io_mb_per_function", float("nan")),
        ("skew_cv", float("nan")),
        ("skew_cv", float("inf")),
        ("build_factor", float("nan")),
        ("ship_factor", float("nan")),
        ("ship_factor", float("inf")),
        ("exec_overhead", float("nan")),
        ("exec_overhead", float("inf")),
    ],
)
def test_spec_rejects_values_the_two_paths_disagree_on(field, value):
    """Each of these used to construct: ``provisioned_mb=0`` was billed at
    the platform maximum, a negative one or a negative ``warm_dispatch_s``
    failed on one path and not the other, NaN passed every comparison,
    and a negative extra I/O was silently ignored."""
    with pytest.raises(ValueError, match=field):
        BurstSpec(app=SORT, concurrency=10, wave_size=2, **{field: value})


def test_spec_instance_count_ceils():
    assert BurstSpec(app=SORT, concurrency=10, packing_degree=3).n_instances == 4
    assert BurstSpec(app=SORT, concurrency=9, packing_degree=3).n_instances == 3


# --------------------------------------------------------------------- #
# Burst execution
# --------------------------------------------------------------------- #

def test_every_function_is_executed(platform):
    result = platform.run_burst(BurstSpec(app=SORT, concurrency=10, packing_degree=3))
    assert result.n_instances == 4
    assert sum(r.n_packed for r in result.records) == 10


def test_last_instance_partially_packed(platform):
    result = platform.run_burst(BurstSpec(app=SORT, concurrency=10, packing_degree=3))
    packed = sorted(r.n_packed for r in result.records)
    assert packed == [1, 3, 3, 3]


def test_records_have_full_lifecycle(platform):
    result = platform.run_burst(BurstSpec(app=SORT, concurrency=5))
    for r in result.records:
        assert r.sched_done is not None
        assert r.built_at is not None
        assert r.shipped_at is not None
        assert 0 <= r.sched_done
        assert r.shipped_at >= max(r.built_at, r.sched_done)
        assert r.exec_start == r.shipped_at
        assert r.exec_end > r.exec_start


def test_provisioned_memory_defaults_to_platform_max(platform):
    result = platform.run_burst(BurstSpec(app=SORT, concurrency=2))
    assert all(r.provisioned_mb == AWS_LAMBDA.max_memory_mb for r in result.records)


def test_provisioned_memory_override(platform):
    result = platform.run_burst(
        BurstSpec(app=SORT, concurrency=2, provisioned_mb=2048)
    )
    assert all(r.provisioned_mb == 2048 for r in result.records)


def test_overprovisioning_rejected(platform):
    with pytest.raises(ValueError, match="exceeds the platform maximum"):
        platform.run_burst(BurstSpec(app=SORT, concurrency=2, provisioned_mb=20480))


def test_packing_increases_exec_time(platform):
    solo = platform.run_burst(BurstSpec(app=SORT, concurrency=1, packing_degree=1))
    packed = platform.run_burst(BurstSpec(app=SORT, concurrency=10, packing_degree=10))
    assert packed.mean_exec_seconds > solo.mean_exec_seconds


def test_timeout_enforced():
    # A synthetic app whose packed execution exceeds the platform cap.
    app = make_synthetic(base_seconds=800.0, mem_mb=1024, pressure_per_gb=0.5)
    platform = ServerlessPlatform(AWS_LAMBDA, seed=1)
    with pytest.raises(FunctionTimeoutError):
        platform.run_burst(BurstSpec(app=app, concurrency=8, packing_degree=8))


def _timeout_abort(profile, spec, seed, path):
    """The billed-timeout abort of ``spec`` on the fluid replay or the
    event loop, and whether the replay ran."""
    replayed = []
    replay = fluid._run_fluid

    def traced_replay(kernel, spec, image):
        replayed.append(True)
        return replay(kernel, spec, image)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fluid, "_run_fluid", traced_replay)
        if path == "event-loop":
            mp.setattr(fluid, "try_run_fluid", lambda kernel, spec, image: None)
        with pytest.raises(FunctionTimeoutError) as excinfo:
            ServerlessPlatform(profile, seed=seed).run_burst(spec, repetition=0)
    return excinfo.value, bool(replayed)


@pytest.mark.parametrize(
    "profile, spec, seed, warm",
    [
        (
            AWS_LAMBDA,
            BurstSpec(
                app=make_synthetic(base_seconds=800.0, mem_mb=1024, pressure_per_gb=0.5),
                concurrency=8,
                packing_degree=8,
            ),
            1,
            False,
        ),
        (
            # A skewed warm reuse is the first attempt to outrun this cap.
            AWS_LAMBDA.with_overrides(max_execution_seconds=150.0),
            BurstSpec(
                app=SORT, concurrency=80, packing_degree=2, wave_size=4, skew_cv=0.3
            ),
            5,
            True,
        ),
    ],
    ids=["cold", "warm"],
)
def test_timeout_abort_identical_on_both_paths(profile, spec, seed, warm):
    """The fluid replay and the event loop abort with the same message,
    the same bill and an equal record."""
    replayed, on_replay = _timeout_abort(profile, spec, seed, "fluid")
    looped, on_loop = _timeout_abort(profile, spec, seed, "event-loop")
    assert on_replay and not on_loop
    assert str(replayed) == str(looped)
    assert replayed.billed_usd == looped.billed_usd > 0.0
    assert replayed.record == looped.record
    assert replayed.record.timed_out and replayed.record.warm_start is warm


def test_timeout_can_be_disabled():
    app = make_synthetic(base_seconds=800.0, mem_mb=1024, pressure_per_gb=0.5)
    platform = ServerlessPlatform(AWS_LAMBDA, seed=1, enforce_timeout=False)
    result = platform.run_burst(BurstSpec(app=app, concurrency=8, packing_degree=8))
    assert result.mean_exec_seconds > AWS_LAMBDA.max_execution_seconds


# --------------------------------------------------------------------- #
# Waves and warm reuse (the Pywren path)
# --------------------------------------------------------------------- #

def test_wave_size_limits_cold_instances(platform):
    result = platform.run_burst(
        BurstSpec(app=STATELESS_COST, concurrency=20, wave_size=5)
    )
    cold = [r for r in result.records if not r.warm_start]
    warm = [r for r in result.records if r.warm_start]
    assert len(cold) == 5
    assert len(warm) == 15
    assert sum(r.n_packed for r in result.records) == 20


def test_warm_records_skip_pipeline(platform):
    result = platform.run_burst(
        BurstSpec(app=STATELESS_COST, concurrency=10, wave_size=2)
    )
    spec_warm_latency = BurstSpec(app=STATELESS_COST, concurrency=1).warm_dispatch_s
    for r in result.records:
        if r.warm_start:
            # Warm dispatch pays only the small dispatch latency, no pipeline.
            phases = r.phase_durations()
            assert phases["build"] == pytest.approx(spec_warm_latency)
            assert phases["ship"] == pytest.approx(0.0)


def test_waves_serialize_service_time(platform):
    burst = platform.run_burst(BurstSpec(app=STATELESS_COST, concurrency=20))
    waved = platform.run_burst(
        BurstSpec(app=STATELESS_COST, concurrency=20, wave_size=2)
    )
    # 10 sequential waves must take much longer end-to-end.
    assert waved.service_time() > 3 * burst.service_time()


def test_exec_overhead_inflates_billing(platform):
    plain = platform.run_burst(BurstSpec(app=SORT, concurrency=5), repetition=77)
    inflated = platform.run_burst(
        BurstSpec(app=SORT, concurrency=5, exec_overhead=1.5), repetition=77
    )
    assert inflated.mean_exec_seconds == pytest.approx(
        1.5 * plain.mean_exec_seconds, rel=1e-6
    )
    assert inflated.expense.compute_usd == pytest.approx(
        1.5 * plain.expense.compute_usd, rel=1e-6
    )


def test_extra_io_accounted(platform):
    plain = platform.run_burst(BurstSpec(app=SORT, concurrency=5), repetition=78)
    extra = platform.run_burst(
        BurstSpec(app=SORT, concurrency=5, extra_io_mb_per_function=50.0),
        repetition=78,
    )
    assert extra.expense.storage_usd > plain.expense.storage_usd


def test_deterministic_given_seed_and_repetition():
    a = ServerlessPlatform(AWS_LAMBDA, seed=9).run_burst(
        BurstSpec(app=SORT, concurrency=20), repetition=0
    )
    b = ServerlessPlatform(AWS_LAMBDA, seed=9).run_burst(
        BurstSpec(app=SORT, concurrency=20), repetition=0
    )
    assert a.service_time() == b.service_time()
    assert a.expense.total_usd == b.expense.total_usd


def test_repetitions_differ():
    platform = ServerlessPlatform(AWS_LAMBDA, seed=9)
    a = platform.run_burst(BurstSpec(app=SORT, concurrency=20), repetition=0)
    b = platform.run_burst(BurstSpec(app=SORT, concurrency=20), repetition=1)
    assert a.service_time() != b.service_time()


def test_warm_records_are_flagged_and_skip_build_and_ship(platform):
    """The _reuse_warm/_warm_start path: no pipeline, only dispatch latency."""
    result = platform.run_burst(
        BurstSpec(app=STATELESS_COST, concurrency=12, wave_size=3)
    )
    warm = [r for r in result.records if r.warm_start]
    assert warm, "wave dispatch must produce warm reuses"
    for r in warm:
        assert r.warm_start is True
        # Build and ship collapse to the same instant: the container is
        # already on the worker, so the record never enters the pipeline.
        assert r.built_at == r.shipped_at
        phases = r.phase_durations()
        assert phases["sched"] == pytest.approx(0.0)
        assert phases["ship"] == pytest.approx(0.0)
        # Execution starts one warm dispatch after invocation.
        assert r.exec_start - r.invoked_at == pytest.approx(
            BurstSpec(app=STATELESS_COST, concurrency=1).warm_dispatch_s
        )


def test_warm_reuse_bills_execution_only(platform):
    """A warm instance is billed for its execution seconds, nothing more."""
    from repro.platform.billing import BillingModel

    result = platform.run_burst(
        BurstSpec(app=STATELESS_COST, concurrency=12, wave_size=3)
    )
    billing = BillingModel(AWS_LAMBDA)
    warm = [r for r in result.records if r.warm_start]
    for r in warm:
        billed_gb = billing.billed_memory_mb(r.provisioned_mb) / 1024.0
        assert billing.instance_compute_usd(r) == pytest.approx(
            r.exec_seconds * billed_gb * AWS_LAMBDA.gb_second_usd
        )
    # The burst's compute line is exactly the per-record execution charges:
    # warm reuse adds no hidden init or pipeline billing.
    expected = sum(billing.instance_compute_usd(r) for r in result.records)
    assert result.expense.compute_usd == pytest.approx(expected)
    # Per-request fees accrue per instance, warm or cold alike.
    assert result.expense.requests_usd == pytest.approx(
        len(result.records) * AWS_LAMBDA.per_request_usd
    )
