"""Tests for the exact sojourn quantiles and the windowed SLO tracker."""

import math

import numpy as np
import pytest

from repro.serving.quantiles import QuantileDigest, WindowedSLOTracker


def _digest(xs):
    digest = QuantileDigest()
    for x in xs:
        digest.add(x)
    return digest


def _nearest_rank(xs, p):
    return sorted(xs)[math.ceil(p * len(xs)) - 1]


# --------------------------------------------------------------------- #
# Exact digest: nearest rank, the ceil(p*n)-th smallest value
# --------------------------------------------------------------------- #

def test_rejects_bad_quantile():
    digest = _digest([1.0, 2.0])
    with pytest.raises(ValueError):
        digest.quantile(0.0)
    with pytest.raises(ValueError):
        digest.quantile(1.5)
    assert digest.quantile(1.0) == 2.0


def test_value_requires_observations():
    with pytest.raises(ValueError):
        QuantileDigest().quantile(0.5)


def test_small_counts_are_exact_order_statistics():
    digest = QuantileDigest()
    digest.add(30.0)
    assert digest.quantile(0.5) == 30.0
    digest.add(10.0)
    assert digest.quantile(0.5) == 10.0  # ceil(0.5*2) = 1st of sorted
    digest.add(20.0)
    assert digest.quantile(0.5) == 20.0


def test_five_observations_exact():
    digest = _digest((5.0, 1.0, 4.0, 2.0, 3.0))
    assert digest.quantile(0.95) == 5.0  # ceil(0.95*5) = 5th of sorted


@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
@pytest.mark.parametrize("n", [1, 2, 5, 100, 50_000])
def test_quantile_is_the_nearest_rank(n, ties):
    gen = np.random.default_rng(n)
    draws = gen.integers(0, 5, n) if ties else gen.exponential(1.0, n)
    xs = draws.astype(float).tolist()
    digest = _digest(xs)
    assert digest.count == n
    for p in (0.5, 0.95, 0.99):
        assert digest.quantile(p) == _nearest_rank(xs, p)


@pytest.mark.parametrize(
    ("p", "sampler"),
    [
        (0.5, lambda g, n: g.random(n)),                 # uniform
        (0.95, lambda g, n: g.exponential(1.0, n)),      # heavy-ish tail
        (0.99, lambda g, n: 10.0 + g.standard_normal(n)),  # shifted normal
    ],
    ids=["uniform-p50", "exponential-p95", "normal-p99"],
)
def test_digest_is_exact_on_a_million_samples(p, sampler):
    samples = sampler(np.random.default_rng(2023), 1_000_000).tolist()
    digest = _digest(samples)
    assert digest.quantile(p) == _nearest_rank(samples, p)
    assert digest.count == 1_000_000


def test_constant_stream_converges_to_the_constant():
    digest = _digest([7.0] * 1000)
    for p in (0.5, 0.95, 0.99):
        assert digest.quantile(p) == 7.0


def test_digest_tracks_default_quantiles():
    xs = np.random.default_rng(5).exponential(1.0, 50_000).tolist()
    digest = _digest(xs[:20_000])
    assert digest.quantile(0.99) == _nearest_rank(xs[:20_000], 0.99)
    # A read copies the column, so the digest still grows afterwards.
    for x in xs[20_000:]:
        digest.add(x)
    assert digest.count == 50_000
    for p in (0.5, 0.95, 0.99):
        assert digest.quantile(p) == _nearest_rank(xs, p)


# --------------------------------------------------------------------- #
# Windowed SLO tracker
# --------------------------------------------------------------------- #

def test_slo_validation():
    with pytest.raises(ValueError):
        WindowedSLOTracker(0.0)
    with pytest.raises(ValueError):
        WindowedSLOTracker(1.0, window_s=10.0, bucket_s=60.0)
    with pytest.raises(ValueError):
        WindowedSLOTracker(1.0).record(-1.0, 0.5)


def test_empty_tracker_reports_zero():
    tracker = WindowedSLOTracker(1.0)
    assert tracker.violation_fraction == 0.0
    assert tracker.worst_window() == (0.0, 0.0)
    assert tracker.bucket_series() == []


def test_violation_fraction_counts_breaches():
    tracker = WindowedSLOTracker(10.0, window_s=120.0, bucket_s=60.0)
    for t, sojourn in ((5.0, 2.0), (65.0, 12.0), (70.0, 9.0), (130.0, 30.0)):
        tracker.record(t, sojourn)
    assert tracker.total == 4
    assert tracker.violation_fraction == pytest.approx(0.5)


def test_worst_window_localizes_the_bad_hour():
    tracker = WindowedSLOTracker(1.0, window_s=120.0, bucket_s=60.0)
    for minute in range(10):
        t = minute * 60.0 + 1.0
        # Minutes 6-7 are the incident: everything breaches there.
        tracker.record(t, 5.0 if minute in (6, 7) else 0.5)
        tracker.record(t + 1.0, 5.0 if minute in (6, 7) else 0.5)
    start, fraction = tracker.worst_window()
    assert start == 6 * 60.0
    assert fraction == 1.0


def test_bucket_series_reports_mean_sojourn():
    tracker = WindowedSLOTracker(10.0, window_s=60.0, bucket_s=60.0)
    tracker.record(10.0, 2.0)
    tracker.record(20.0, 4.0)
    ((start, count, violations, mean),) = tracker.bucket_series()
    assert (start, count, violations) == (0.0, 2, 0)
    assert mean == pytest.approx(3.0)


def test_one_call_per_dispatch_matches_one_call_per_request():
    """A dispatch's sojourns in one call land exactly as request by request:
    same column, same bucket counts, bit-identical bucket sums."""
    gen = np.random.default_rng(11)
    dispatches = [
        (float(t), gen.exponential(8.0, int(n)).tolist())
        for t, n in zip(np.sort(gen.uniform(0.0, 600.0, 80)), gen.integers(1, 9, 80))
    ]
    batched, single = QuantileDigest(), QuantileDigest()
    per_dispatch = WindowedSLOTracker(10.0, window_s=120.0, bucket_s=60.0)
    per_request = WindowedSLOTracker(10.0, window_s=120.0, bucket_s=60.0)
    for t, sojourns in dispatches:
        batched.add(*sojourns)
        per_dispatch.record(t, *sojourns)
        for s in sojourns:
            single.add(s)
            per_request.record(t, s)
    assert batched._values == single._values
    assert per_dispatch.bucket_series() == per_request.bucket_series()
    assert (per_dispatch.total, per_dispatch.total_violations) == (
        per_request.total, per_request.total_violations
    )


def test_record_without_sojourns_adds_no_bucket():
    tracker = WindowedSLOTracker(1.0)
    tracker.record(30.0)
    assert tracker.bucket_series() == [] and tracker.total == 0
    with pytest.raises(ValueError):
        tracker.record(-1.0)
