"""Tests for the warm pool and its keep-alive/eviction policies."""

import math

import pytest

from repro.serving.warmpool import (
    FixedTTL,
    GreedyLRUCap,
    HybridHistogram,
    NoKeepAlive,
    WarmPool,
    pool_size_for,
)


class RecordingTTL(FixedTTL):
    """Fixed TTL that records the reuse gaps it observes."""

    def __init__(self, ttl_s):
        super().__init__(ttl_s)
        self.gaps = []

    def observe_reuse(self, idle_gap_s):
        self.gaps.append(idle_gap_s)


# --------------------------------------------------------------------- #
# Policy validation and naming
# --------------------------------------------------------------------- #

def test_policy_validation():
    with pytest.raises(ValueError):
        FixedTTL(-1.0)
    with pytest.raises(ValueError):
        GreedyLRUCap(0)
    with pytest.raises(ValueError):
        HybridHistogram(percentile=1.0)
    with pytest.raises(ValueError):
        HybridHistogram(ttl_min_s=10.0, ttl_max_s=5.0)


def test_ttl_may_be_infinite_but_not_nan():
    """An infinite TTL means "never evict"; a NaN one used to construct
    and did the same, silently."""
    assert FixedTTL(math.inf).keep_alive_s() == math.inf
    assert GreedyLRUCap(2, ttl_s=math.inf).keep_alive_s() == math.inf
    with pytest.raises(ValueError, match="ttl_s"):
        FixedTTL(math.nan)
    with pytest.raises(ValueError, match="ttl_s"):
        GreedyLRUCap(2, ttl_s=math.nan)


@pytest.mark.parametrize("kwargs, field", [
    ({"bucket_s": math.nan}, "bucket_s"),
    ({"bucket_s": math.inf}, "bucket_s"),
    ({"margin": math.nan}, "margin"),
    ({"margin": math.inf}, "margin"),
    ({"ttl_min_s": math.nan}, "ttl_min_s"),
    ({"ttl_min_s": math.inf, "ttl_max_s": math.inf}, "ttl_min_s"),
    ({"ttl_max_s": math.nan}, "ttl_max_s"),
    ({"ttl_max_s": math.inf}, "ttl_max_s"),
    ({"default_ttl_s": math.nan}, "default_ttl_s"),
    ({"default_ttl_s": math.inf}, "default_ttl_s"),
])
def test_hybrid_histogram_rejects_non_finite_values(kwargs, field):
    """Each used to construct, and a NaN one granted NaN TTLs."""
    with pytest.raises(ValueError, match=field):
        HybridHistogram(**kwargs)


def test_policy_names():
    assert NoKeepAlive().name == "no-keep-alive"
    assert FixedTTL(60.0).name == "fixed-ttl-60s"
    assert HybridHistogram().name == "hybrid-histogram"
    assert GreedyLRUCap(8).name == "lru-cap-8"


# --------------------------------------------------------------------- #
# Pool mechanics
# --------------------------------------------------------------------- #

def test_no_keepalive_is_always_cold_and_never_billed_idle():
    pool = WarmPool(NoKeepAlive())
    assert pool.acquire(0.0) is False
    pool.release(10.0)
    assert len(pool) == 0  # released straight past the pool
    assert pool.acquire(10.1) is False
    pool.drain(100.0)
    assert pool.stats.evictions == 0
    assert pool.stats.idle_seconds == 0.0


def test_fixed_ttl_reuse_within_ttl():
    pool = WarmPool(FixedTTL(30.0))
    pool.release(100.0)
    assert pool.acquire(110.0) is True
    assert len(pool) == 0
    assert pool.stats.idle_seconds == pytest.approx(10.0)


def test_fixed_ttl_expires_after_ttl():
    pool = WarmPool(FixedTTL(30.0))
    pool.release(100.0)
    assert pool.acquire(131.0) is False  # expired at 130
    assert pool.stats.evictions == 1
    # The evicted instance is billed for its full granted TTL, not the gap.
    assert pool.stats.idle_seconds == pytest.approx(30.0)


def test_reuse_is_lifo_hottest_first():
    policy = RecordingTTL(100.0)
    pool = WarmPool(policy)
    pool.release(0.0)
    pool.release(50.0)
    assert pool.acquire(60.0) is True
    # The instance idle since t=50 (gap 10) is reused, not the one from t=0.
    assert policy.gaps == [pytest.approx(10.0)]
    assert pool.acquire(60.0) is True
    assert policy.gaps[1] == pytest.approx(60.0)


def test_capacity_overflow_evicts_the_oldest():
    pool = WarmPool(GreedyLRUCap(2, ttl_s=1000.0))
    pool.release(0.0)
    pool.release(10.0)
    pool.release(20.0)  # over capacity: the t=0 instance is evicted
    assert len(pool) == 2
    assert pool.stats.evictions == 1
    assert pool.stats.idle_seconds == pytest.approx(20.0)


def test_set_capacity_validation_and_override():
    pool = WarmPool(FixedTTL(100.0))
    with pytest.raises(ValueError):
        pool.set_capacity(0)
    pool.set_capacity(1)
    pool.release(0.0)
    pool.release(5.0)
    assert len(pool) == 1  # the replanner's cap applies immediately
    pool.set_capacity(None)
    assert pool.capacity is None


def test_drain_closes_idle_accrual():
    pool = WarmPool(FixedTTL(1000.0))
    pool.release(0.0)
    pool.drain(25.0)
    assert len(pool) == 0
    assert pool.stats.idle_seconds == pytest.approx(25.0)
    assert pool.stats.evictions == 0  # drained, not aged out


# --------------------------------------------------------------------- #
# Hybrid histogram adaptation
# --------------------------------------------------------------------- #

def test_hybrid_defaults_until_enough_observations():
    policy = HybridHistogram(default_ttl_s=30.0, min_observations=5)
    assert policy.keep_alive_s() == 30.0


def test_hybrid_learns_short_gaps():
    policy = HybridHistogram(
        bucket_s=1.0, percentile=0.95, margin=1.0, min_observations=5,
        ttl_min_s=1.0, ttl_max_s=120.0,
    )
    for _ in range(100):
        policy.observe_reuse(4.5)  # every reuse comes back within 5s
    # 95th percentile bucket is [4, 5): upper edge 5s.
    assert policy.keep_alive_s() == pytest.approx(5.0)


def test_hybrid_censored_evictions_push_the_ttl_up():
    policy = HybridHistogram(
        bucket_s=1.0, percentile=0.9, margin=1.0, min_observations=5,
        ttl_min_s=1.0, ttl_max_s=120.0,
    )
    for _ in range(50):
        policy.observe_reuse(2.5)
    short = policy.keep_alive_s()
    for _ in range(200):
        policy.observe_eviction(short)  # gaps were at least the granted TTL
    assert policy.keep_alive_s() > short


def test_hybrid_clamps_to_bounds():
    policy = HybridHistogram(
        bucket_s=1.0, margin=1.0, min_observations=1,
        ttl_min_s=10.0, ttl_max_s=20.0,
    )
    policy.observe_reuse(0.5)
    assert policy.keep_alive_s() == 10.0
    for _ in range(100):
        policy.observe_reuse(500.0)
    assert policy.keep_alive_s() == 20.0


# --------------------------------------------------------------------- #
# Little's-law sizing
# --------------------------------------------------------------------- #

def test_pool_size_for_littles_law():
    # 2 req/s, 30s executions, packed 4 per instance: 15 in flight, ×1.25.
    assert pool_size_for(2.0, 30.0, 4, headroom=1.25) == 19
    assert pool_size_for(0.001, 1.0, 1) == 1  # floor at one instance
    with pytest.raises(ValueError):
        pool_size_for(1.0, 1.0, 0)
