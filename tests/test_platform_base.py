"""Tests for the ServerlessPlatform facade and provider profiles."""

import dataclasses

import pytest

from repro.funcx import funcx_profile
from repro.platform.base import PROBE_APP, ServerlessPlatform
from repro.platform.invoker import BurstSpec
from repro.platform.providers import (
    AWS_LAMBDA,
    AZURE_FUNCTIONS,
    GOOGLE_CLOUD_FUNCTIONS,
    PROVIDERS,
    PlatformProfile,
)
from repro.workloads import SORT, STATELESS_COST, VIDEO


@pytest.fixture(scope="module")
def platform():
    return ServerlessPlatform(AWS_LAMBDA, seed=21)


def test_providers_registry_complete():
    assert set(PROVIDERS) == {
        "aws-lambda",
        "google-cloud-functions",
        "azure-functions",
    }


def test_only_gcf_azure_charge_egress():
    assert AWS_LAMBDA.egress_usd_per_gb == 0.0
    assert GOOGLE_CLOUD_FUNCTIONS.egress_usd_per_gb > 0.0
    assert AZURE_FUNCTIONS.egress_usd_per_gb > 0.0


def test_profile_with_overrides_is_a_copy():
    modified = AWS_LAMBDA.with_overrides(build_slots=1)
    assert modified.build_slots == 1
    assert AWS_LAMBDA.build_slots != 1
    assert modified.name == AWS_LAMBDA.name


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"fleet_servers": 0}, "fleet_servers"),
        ({"server_cores": 4}, "server_cores"),
        ({"cores_per_instance": 97}, "cores_per_instance"),
        ({"server_memory_mb": 8192}, "server_memory_mb"),
        ({"max_memory_mb": 786433}, "max_memory_mb"),
    ],
    ids=["no-servers", "small-server-cores", "big-instance-cores",
         "small-server-memory", "big-instance-memory"],
)
def test_profile_whose_servers_cannot_host_an_instance_is_rejected(overrides, field):
    """A profile whose empty server cannot host its largest instance would
    only fail at its first burst, as "fleet exhausted" with 0 instances
    placed; it fails at construction instead, naming the field."""
    with pytest.raises(ValueError, match=field):
        AWS_LAMBDA.with_overrides(**overrides)
    fields = dataclasses.asdict(AWS_LAMBDA) | overrides
    with pytest.raises(ValueError, match=field):
        PlatformProfile(**fields)


def test_every_shipped_profile_constructs():
    for profile in (*PROVIDERS.values(), funcx_profile()):
        assert profile.with_overrides() == profile


def test_image_auto_registration(platform):
    image = platform.image_for(SORT)
    assert image.name == SORT.name
    assert platform.image_for(SORT) is image  # cached


def test_scaling_time_grows_superlinearly(platform):
    s200 = platform.measure_scaling_time(200)
    s800 = platform.measure_scaling_time(800)
    s3200 = platform.measure_scaling_time(3200)
    assert s800 > s200
    assert s3200 > s800
    # Super-linear: quadrupling C should much more than quadruple scaling.
    assert s3200 / s800 > 4.0


def test_scaling_time_app_independent(platform):
    """Fig. 5b: probes and real apps see the same scaling behaviour."""
    probe = platform.measure_scaling_time(1000, repetition=0)
    for app in (VIDEO, SORT, STATELESS_COST):
        run = platform.run_burst(BurstSpec(app=app, concurrency=1000))
        assert run.scaling_time == pytest.approx(probe, rel=0.05)


def test_exec_time_flat_across_concurrency(platform):
    """Fig. 5a: execution time of an instance is isolated from burst size."""
    execs = [
        platform.run_burst(BurstSpec(app=SORT, concurrency=c)).mean_exec_seconds
        for c in (200, 1000, 3000)
    ]
    spread = (max(execs) - min(execs)) / (sum(execs) / len(execs))
    assert spread < 0.05  # the paper's "<5% in most cases"


def test_probe_app_is_cheap_and_neutral():
    assert PROBE_APP.pressure_per_gb == 0.0
    assert PROBE_APP.base_seconds < 1.0


def test_run_counter_varies_repetitions(platform):
    a = platform.run_burst(BurstSpec(app=SORT, concurrency=50))
    b = platform.run_burst(BurstSpec(app=SORT, concurrency=50))
    assert a.service_time() != b.service_time()  # auto-incrementing repetition


def test_interference_model_reflects_profile():
    model = ServerlessPlatform(AWS_LAMBDA, seed=0).interference_model()
    assert model.cores == AWS_LAMBDA.cores_per_instance
    assert model.isolation_penalty == AWS_LAMBDA.isolation_penalty
