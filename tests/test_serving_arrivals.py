"""Tests for the composable arrival processes."""

import numpy as np
import pytest

from repro.serving.arrivals import (
    AzureTraceProcess,
    DiurnalProcess,
    InhomogeneousPoissonProcess,
    MarkovModulatedProcess,
    PoissonProcess,
    SuperposedProcess,
)
from repro.sim.randomness import RandomStreams


def rng(seed=42):
    return RandomStreams(seed)


# --------------------------------------------------------------------- #
# Validation
# --------------------------------------------------------------------- #

def test_poisson_rejects_bad_rate():
    with pytest.raises(ValueError):
        PoissonProcess(0.0)


def test_poisson_rejects_bad_horizon():
    with pytest.raises(ValueError):
        PoissonProcess(1.0).sample(rng(), 0.0)


@pytest.mark.parametrize("horizon_s", [float("nan"), float("inf"), 0.0, -5.0])
@pytest.mark.parametrize(
    "process",
    [
        PoissonProcess(2.0),
        DiurnalProcess(2.0, amplitude=0.8, period_s=600.0),
        MarkovModulatedProcess(4.0, 0.5, 30.0, 60.0),
        AzureTraceProcess(0.05, n_functions=10, period_s=600.0),
        SuperposedProcess([PoissonProcess(1.0), PoissonProcess(0.5)]),
    ],
    ids=["poisson", "diurnal", "mmpp", "azure", "superposed"],
)
def test_sample_rejects_a_non_finite_or_non_positive_horizon(process, horizon_s):
    with pytest.raises(ValueError, match="horizon_s"):
        process.sample(rng(), horizon_s)


def test_diurnal_validation():
    with pytest.raises(ValueError):
        DiurnalProcess(0.0)
    with pytest.raises(ValueError):
        DiurnalProcess(1.0, amplitude=1.5)
    with pytest.raises(ValueError):
        DiurnalProcess(1.0, period_s=0.0)


def test_mmpp_validation():
    with pytest.raises(ValueError):
        MarkovModulatedProcess(0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        MarkovModulatedProcess(1.0, 0.0, 0.0, 1.0)


def test_azure_validation():
    with pytest.raises(ValueError):
        AzureTraceProcess(0.0)
    with pytest.raises(ValueError):
        AzureTraceProcess(1.0, n_functions=0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "field, make",
    [
        ("rate_per_s", lambda: PoissonProcess(NAN)),
        ("max_rate_per_s", lambda: InhomogeneousPoissonProcess(lambda t: t, NAN)),
        ("base_rate_per_s", lambda: DiurnalProcess(NAN)),
        ("period_s", lambda: DiurnalProcess(2.0, period_s=INF)),
        ("phase_s", lambda: DiurnalProcess(2.0, phase_s=NAN)),
        ("rate_on_per_s", lambda: MarkovModulatedProcess(NAN, 1.0, 10.0, 10.0)),
        ("rate_off_per_s", lambda: MarkovModulatedProcess(5.0, NAN, 10.0, 10.0)),
        # Sampling it never returned: its sojourn ends at NaN.
        ("mean_on_s", lambda: MarkovModulatedProcess(5.0, 1.0, NAN, 10.0)),
        ("mean_off_s", lambda: MarkovModulatedProcess(5.0, 1.0, 10.0, INF)),
        ("rate_per_function_per_s", lambda: AzureTraceProcess(INF)),
        ("tail_alpha", lambda: AzureTraceProcess(0.05, tail_alpha=NAN)),
        ("tail_cap", lambda: AzureTraceProcess(0.05, tail_cap=NAN)),
        ("period_s", lambda: AzureTraceProcess(0.05, period_s=NAN)),
        ("bucket_s", lambda: AzureTraceProcess(0.05, bucket_s=INF)),
    ],
    ids=[
        "poisson-rate", "inhomogeneous-max-rate", "diurnal-base-rate",
        "diurnal-period", "diurnal-phase", "mmpp-rate-on", "mmpp-rate-off",
        "mmpp-mean-on", "mmpp-mean-off", "azure-rate", "azure-tail-alpha",
        "azure-tail-cap", "azure-period", "azure-bucket",
    ],
)
def test_constructors_reject_non_finite_parameters(field, make):
    """NaN passes a ``<= 0`` check and ``inf`` passes a ``> 0`` one; each
    float parameter is refused at construction, by name."""
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        make()


def test_superposed_rejects_empty():
    with pytest.raises(ValueError):
        SuperposedProcess([])


def test_thinning_rejects_underestimated_dominating_rate():
    process = InhomogeneousPoissonProcess(lambda t: 5.0 + 0.0 * t, 2.0)
    with pytest.raises(ValueError, match="dominating"):
        process.sample(rng(), 100.0)


# --------------------------------------------------------------------- #
# Determinism
# --------------------------------------------------------------------- #

@pytest.mark.parametrize(
    "process",
    [
        PoissonProcess(2.0),
        DiurnalProcess(2.0, amplitude=0.8, period_s=600.0),
        MarkovModulatedProcess(4.0, 0.5, 30.0, 60.0),
        AzureTraceProcess(0.05, n_functions=10, period_s=600.0),
        SuperposedProcess([PoissonProcess(1.0), PoissonProcess(0.5)]),
    ],
    ids=["poisson", "diurnal", "mmpp", "azure", "superposed"],
)
def test_same_seed_same_schedule(process):
    a = process.sample(rng(7), 300.0)
    b = process.sample(rng(7), 300.0)
    c = process.sample(rng(8), 300.0)
    np.testing.assert_array_equal(a, b)
    assert len(a) > 0
    assert not (len(a) == len(c) and np.array_equal(a, c))


@pytest.mark.parametrize(
    "process",
    [
        PoissonProcess(2.0),
        DiurnalProcess(2.0, amplitude=0.8, period_s=600.0),
        MarkovModulatedProcess(4.0, 0.5, 30.0, 60.0),
        AzureTraceProcess(0.05, n_functions=10, period_s=600.0),
        SuperposedProcess([PoissonProcess(1.0), PoissonProcess(0.5)]),
    ],
    ids=["poisson", "diurnal", "mmpp", "azure", "superposed"],
)
def test_samples_sorted_and_in_horizon(process):
    times = process.sample(rng(3), 300.0)
    assert np.all(np.diff(times) >= 0.0)
    assert times[0] >= 0.0
    assert times[-1] < 300.0


# --------------------------------------------------------------------- #
# Statistical shape
# --------------------------------------------------------------------- #

def test_poisson_count_matches_rate():
    times = PoissonProcess(10.0).sample(rng(1), 1000.0)
    assert len(times) == pytest.approx(10_000, rel=0.05)


def test_diurnal_peak_busier_than_trough():
    period = 2000.0
    process = DiurnalProcess(5.0, amplitude=0.9, period_s=period)
    times = process.sample(rng(5), period)
    # Trough at t=0 and t=period, peak at t=period/2.
    outer = np.sum((times < period / 4) | (times >= 3 * period / 4))
    inner = np.sum((times >= period / 4) & (times < 3 * period / 4))
    assert inner > 2 * outer
    assert len(times) == pytest.approx(5.0 * period, rel=0.1)
    assert process.mean_rate_per_s == 5.0


def test_mmpp_mean_rate_mixes_sojourns():
    process = MarkovModulatedProcess(9.0, 1.0, mean_on_s=10.0, mean_off_s=30.0)
    assert process.mean_rate_per_s == pytest.approx((9 * 10 + 1 * 30) / 40)
    times = process.sample(rng(9), 5000.0)
    assert len(times) == pytest.approx(process.mean_rate_per_s * 5000.0, rel=0.2)


def test_mmpp_pure_onoff_has_silent_gaps():
    process = MarkovModulatedProcess(20.0, 0.0, mean_on_s=5.0, mean_off_s=50.0)
    times = process.sample(rng(11), 2000.0)
    # OFF periods contribute nothing, so the largest gap dwarfs the ON-state
    # inter-arrival time (1/20 s).
    assert np.max(np.diff(times)) > 10.0


def test_azure_rates_are_heavy_tailed():
    process = AzureTraceProcess(
        0.01, n_functions=200, tail_alpha=1.2, period_s=3600.0
    )
    times = process.sample(rng(13), 3600.0)
    assert len(times) > 0
    assert process.mean_rate_per_s > 0.01 * 200  # tail mean > 1


def test_superposition_merges_components():
    parts = [PoissonProcess(1.0), PoissonProcess(3.0)]
    combined = SuperposedProcess(parts)
    assert combined.mean_rate_per_s == pytest.approx(4.0)
    times = combined.sample(rng(17), 500.0)
    expected = sum(
        len(p.sample(rng(17).spawn(f"superpose/{i}"), 500.0))
        for i, p in enumerate(parts)
    )
    assert len(times) == expected
