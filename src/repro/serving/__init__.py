"""Long-horizon serving: arrival processes, warm pools, SLOs, replanning.

This package turns the one-shot burst substrate into a *service*: seeded
arrival processes generate hours of traffic, a ``(degree, timeout)``
:class:`StreamingPolicy` batches it into packed dispatches, a warm pool
with pluggable keep-alive/eviction policies absorbs them, constant-memory
quantile estimators track latency SLOs over millions of requests, and an
online replanner adapts the packing degree and pool size as the load
drifts.
See ``docs/SERVING.md``.
"""

from repro.serving.arrivals import (
    ArrivalProcess,
    AzureTraceProcess,
    DiurnalProcess,
    InhomogeneousPoissonProcess,
    MarkovModulatedProcess,
    PoissonProcess,
    SuperposedProcess,
)
from repro.serving.controller import OnlineReplanner, ReplanDecision, StreamingPolicy
from repro.serving.quantiles import QuantileDigest, WindowedSLOTracker
from repro.serving.service import (
    BacklogStats,
    DispatchRecord,
    ResilienceReport,
    ServingConfig,
    ServingResult,
    ServingSimulator,
)
from repro.serving.warmpool import (
    FixedTTL,
    GreedyLRUCap,
    HybridHistogram,
    KeepAlivePolicy,
    NoKeepAlive,
    PoolStats,
    WarmPool,
    pool_size_for,
)

__all__ = [
    "ArrivalProcess",
    "AzureTraceProcess",
    "DiurnalProcess",
    "InhomogeneousPoissonProcess",
    "MarkovModulatedProcess",
    "PoissonProcess",
    "SuperposedProcess",
    "OnlineReplanner",
    "ReplanDecision",
    "StreamingPolicy",
    "QuantileDigest",
    "WindowedSLOTracker",
    "BacklogStats",
    "DispatchRecord",
    "ResilienceReport",
    "ServingConfig",
    "ServingResult",
    "ServingSimulator",
    "FixedTTL",
    "GreedyLRUCap",
    "HybridHistogram",
    "KeepAlivePolicy",
    "NoKeepAlive",
    "PoolStats",
    "WarmPool",
    "pool_size_for",
]
