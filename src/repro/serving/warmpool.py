"""Keep-alive warm pools with pluggable eviction policies.

Sustained serverless traffic lives or dies on the keep-alive decision: an
idle instance held warm turns the next dispatch into a millisecond warm
start, but every warm-idle second is billed at the provisioned-concurrency
rate (:attr:`~repro.platform.providers.PlatformProfile.keepalive_gb_second_usd`).
A pure cold-start service pays nothing to keep warm — idle cost is *never*
billed on cold starts — but repays it with interest as billed
initialization time and latency on every dispatch.

Policies decide how long an idle instance is kept:

* :class:`NoKeepAlive` — evict immediately (the pay-per-use baseline),
* :class:`FixedTTL` — a provider-style fixed idle timeout,
* :class:`HybridHistogram` — Azure-style ("Serverless in the Wild"):
  a histogram of observed idle gaps picks the keep-alive as a percentile
  of how long reuses actually take to come back,
* :class:`GreedyLRUCap` — fixed TTL plus a hard cap on pool size, evicting
  the least-recently-used instance when full.

:class:`WarmPool` is the mechanism: it tracks idle instances, accrues
idle seconds for billing, reuses LIFO (the hottest instance first, so the
rest age toward eviction), and counts evictions. Whether a dispatch was
warm is :meth:`WarmPool.acquire`'s answer; the serving run counts those.
"""

from __future__ import annotations

import abc
import math
from collections import deque
from dataclasses import dataclass
from typing import Optional


class KeepAlivePolicy(abc.ABC):
    """Decides the idle TTL granted to an instance entering the pool."""

    #: Hard cap on simultaneously idle instances (``None`` = unbounded).
    capacity: Optional[int] = None

    @abc.abstractmethod
    def keep_alive_s(self) -> float:
        """TTL for an instance going idle now (0 means evict immediately)."""

    def observe_reuse(self, idle_gap_s: float) -> None:
        """An idle instance was reused after ``idle_gap_s`` seconds."""

    def observe_eviction(self, idle_ttl_s: float) -> None:
        """An instance aged out after its full TTL (a censored gap)."""


class NoKeepAlive(KeepAlivePolicy):
    """Evict on release: every dispatch is a cold start, idle cost is zero."""

    name = "no-keep-alive"

    def keep_alive_s(self) -> float:
        return 0.0


class FixedTTL(KeepAlivePolicy):
    """Keep every idle instance warm for a fixed TTL (Lambda-style)."""

    def __init__(self, ttl_s: float) -> None:
        # An infinite TTL keeps every idle instance warm for good; a NaN
        # one passes the comparison and would do the same, silently.
        if not ttl_s >= 0.0:
            raise ValueError(f"ttl_s must be >= 0 (got {ttl_s})")
        self.ttl_s = float(ttl_s)
        self.name = f"fixed-ttl-{ttl_s:g}s"

    def keep_alive_s(self) -> float:
        return self.ttl_s


class HybridHistogram(KeepAlivePolicy):
    """Azure-style histogram policy: learn the idle-gap distribution.

    Reuse gaps land in fixed-width histogram buckets; the granted TTL is a
    high percentile of that distribution times a safety margin, clamped to
    ``[ttl_min_s, ttl_max_s]``. Evictions are censored observations (the
    gap was at least the TTL) and land in the bucket of the granted TTL,
    so a policy that evicts too eagerly sees its histogram shift right and
    corrects itself. Until ``min_observations`` gaps are seen the policy
    falls back to ``default_ttl_s``.
    """

    def __init__(
        self,
        bucket_s: float = 1.0,
        n_buckets: int = 240,
        percentile: float = 0.95,
        margin: float = 1.1,
        ttl_min_s: float = 1.0,
        ttl_max_s: float = 120.0,
        default_ttl_s: float = 30.0,
        min_observations: int = 20,
    ) -> None:
        # NaN passes every comparison below, so finiteness is checked first.
        for name, value in (("bucket_s", bucket_s), ("margin", margin),
                            ("ttl_min_s", ttl_min_s), ("ttl_max_s", ttl_max_s),
                            ("default_ttl_s", default_ttl_s)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite (got {value})")
        if bucket_s <= 0.0 or n_buckets < 2:
            raise ValueError("need bucket_s > 0 and n_buckets >= 2")
        if not 0.0 < percentile < 1.0:
            raise ValueError("percentile must be in (0, 1)")
        if ttl_min_s < 0.0 or ttl_max_s < ttl_min_s:
            raise ValueError("need 0 <= ttl_min_s <= ttl_max_s")
        self.bucket_s = float(bucket_s)
        self.counts = [0] * int(n_buckets)  # last bucket is the overflow
        self.percentile = float(percentile)
        self.margin = float(margin)
        self.ttl_min_s = float(ttl_min_s)
        self.ttl_max_s = float(ttl_max_s)
        self.default_ttl_s = float(default_ttl_s)
        self.min_observations = int(min_observations)
        self.observations = 0
        self.name = "hybrid-histogram"

    def _bucket_of(self, gap_s: float) -> int:
        return min(int(gap_s / self.bucket_s), len(self.counts) - 1)

    def observe_reuse(self, idle_gap_s: float) -> None:
        self.counts[self._bucket_of(idle_gap_s)] += 1
        self.observations += 1

    def observe_eviction(self, idle_ttl_s: float) -> None:
        self.counts[self._bucket_of(idle_ttl_s)] += 1
        self.observations += 1

    def keep_alive_s(self) -> float:
        if self.observations < self.min_observations:
            return min(max(self.default_ttl_s, self.ttl_min_s), self.ttl_max_s)
        target = self.percentile * self.observations
        running = 0
        for i, count in enumerate(self.counts):
            running += count
            if running >= target:
                # Upper edge of the percentile bucket, inflated by the margin.
                ttl = (i + 1) * self.bucket_s * self.margin
                return min(max(ttl, self.ttl_min_s), self.ttl_max_s)
        return self.ttl_max_s


class GreedyLRUCap(FixedTTL):
    """Fixed TTL with a hard pool-size cap; over capacity, evict the LRU."""

    def __init__(self, capacity: int, ttl_s: float = 120.0) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        super().__init__(ttl_s)
        self.capacity = int(capacity)
        self.name = f"lru-cap-{capacity}"


@dataclass
class _IdleEntry:
    idle_since: float
    expires_at: float


@dataclass
class PoolStats:
    """Lifetime counters of one warm pool."""

    evictions: int = 0
    idle_seconds: float = 0.0    # warm-idle time, billed at the keep-alive rate


class WarmPool:
    """Idle-instance pool executing one :class:`KeepAlivePolicy`.

    Expiry is processed lazily (on acquire and on an explicit
    :meth:`drain`); all idle time is accrued exactly, from the instant an
    instance went idle to its reuse, its expiry, or the end of service —
    whichever comes first.
    """

    def __init__(self, policy: KeepAlivePolicy) -> None:
        self.policy = policy
        self.stats = PoolStats()
        self._idle: deque[_IdleEntry] = deque()
        self._capacity = policy.capacity

    def __len__(self) -> int:
        return len(self._idle)

    def set_capacity(self, capacity: Optional[int]) -> None:
        """Override the pool cap (the online replanner's pool-size lever)."""
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None)")
        self._capacity = capacity

    @property
    def capacity(self) -> Optional[int]:
        return self._capacity

    def _expire_until(self, now: float) -> None:
        # Entries are appended in idle order but reused LIFO, so expiry can
        # leave survivors interleaved; filter rather than pop from one end.
        survivors: deque[_IdleEntry] = deque()
        for entry in self._idle:
            if entry.expires_at <= now:
                self.stats.idle_seconds += entry.expires_at - entry.idle_since
                self.stats.evictions += 1
                self.policy.observe_eviction(entry.expires_at - entry.idle_since)
            else:
                survivors.append(entry)
        self._idle = survivors

    def acquire(self, now: float) -> bool:
        """Take an instance for a dispatch; ``True`` iff it is a warm start."""
        self._expire_until(now)
        if self._idle:
            entry = self._idle.pop()  # LIFO: reuse the hottest instance
            gap = now - entry.idle_since
            self.stats.idle_seconds += gap
            self.policy.observe_reuse(gap)
            return True
        return False

    def release(self, now: float) -> None:
        """An instance finished executing and is eligible to stay warm."""
        ttl = self.policy.keep_alive_s()
        if ttl <= 0.0:
            return
        self._idle.append(_IdleEntry(idle_since=now, expires_at=now + ttl))
        if self._capacity is not None:
            while len(self._idle) > self._capacity:
                victim = min(self._idle, key=lambda e: e.idle_since)
                self._idle.remove(victim)
                self.stats.idle_seconds += now - victim.idle_since
                self.stats.evictions += 1
                self.policy.observe_eviction(now - victim.idle_since)

    def drain(self, now: float) -> None:
        """End of service: close out all idle accrual at ``now``."""
        self._expire_until(now)
        for entry in self._idle:
            self.stats.idle_seconds += max(0.0, now - entry.idle_since)
        self._idle.clear()


def pool_size_for(rate_per_s: float, exec_seconds: float, degree: int,
                  headroom: float = 1.25) -> int:
    """Little's-law pool target: in-flight instances at the observed rate."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    in_flight = rate_per_s * exec_seconds / degree
    return max(1, int(math.ceil(in_flight * headroom)))
