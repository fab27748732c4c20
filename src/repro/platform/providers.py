"""Provider coefficient profiles.

Per the paper (Sec. 2.2), the *structure* of the scaling bottleneck is the
same on every platform — scheduling search, container start-up, container
shipping — while the coefficients are platform-specific and
application-independent. A :class:`PlatformProfile` captures those
coefficients plus the billing schedule.

The absolute values below are calibrated so that the simulated AWS profile
reproduces the paper's headline shapes (scaling time >80% of service time at
C=5000 for ~100 s functions; second-order-polynomial scaling; per-GB egress
fees on GCF/Azure but not AWS). They are inputs to the simulation, not
claims about the real providers' internals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class PlatformProfile:
    """All platform-side coefficients for one serverless provider."""

    name: str

    # --- instance shape (AWS Lambda: 10 GB, 6 vCPUs at max memory) ---
    max_memory_mb: int = 10240
    cores_per_instance: int = 6
    max_execution_seconds: float = 900.0  # 15-minute Lambda cap

    # --- scheduling: request k of a burst costs sched_base + sched_search * k ---
    sched_base_s: float = 0.002
    sched_search_s: float = 1.6e-4
    # Decentralized control plane (Wukong/FaaSNet-style, paper Sec. 5):
    # shards split the placement load, but every placement pays a
    # synchronization cost that grows with the shard count.
    scheduler_shards: int = 1
    sched_sync_s: float = 8.0e-3

    # --- container / microVM build ---
    build_slots: int = 64             # concurrent builds on the image server
    build_rate_mb_s: float = 200.0    # download+install throughput per slot
    build_base_s: float = 0.25        # per-container fixed cost (microVM boot)
    build_cache_factor: float = 1.0   # <1 when the platform caches layers

    # --- container shipping over the builder's uplink ---
    uplink_gbps: float = 100.0
    ship_overhead_mb: float = 64.0    # microVM snapshot overhead on the wire

    # --- execution isolation ---
    exec_noise_sigma: float = 0.008       # lognormal sigma on instance exec time
    isolation_penalty: float = 1.0        # multiplier on co-runner interference
    concurrency_leak: float = 0.0         # exec slowdown per 1000 concurrent
                                          # instances (0 == perfect isolation)

    # --- reliability ---
    failure_rate: float = 0.0             # per-attempt probability an instance
                                          # crashes mid-execution (then retried)
    max_retries: int = 2                  # Lambda-style async retry count

    # --- billing ---
    gb_second_usd: float = 1.66667e-5     # AWS Lambda x86 rate
    # Warm-idle (provisioned-concurrency-style) rate: what a keep-alive
    # policy pays per GB-second of instance time spent idle in the warm
    # pool. Roughly 4x cheaper than on-demand execution on AWS; never
    # billed when instances are released cold (no keep-alive).
    keepalive_gb_second_usd: float = 4.1667e-6
    per_request_usd: float = 2.0e-7
    storage_put_usd: float = 5.0e-6       # S3 PUT
    storage_get_usd: float = 4.0e-7       # S3 GET
    egress_usd_per_gb: float = 0.0        # networking fee (GCF/Azure only)
    min_billed_memory_mb: int = 128
    # Billing fidelity ("Demystifying Serverless Costs"): real schedules
    # round durations up to a granularity (legacy Lambda: 100 ms; today:
    # 1 ms), impose a minimum billed duration, and may bill throttled
    # CPU shares at a multiplier. Defaults are the idealized exact-seconds
    # schedule every existing experiment was calibrated against.
    billing_granularity_s: float = 0.0    # 0 = exact (no rounding)
    min_billed_duration_s: float = 0.0    # floor on billed duration
    cpu_throttle_multiplier: float = 1.0  # billed-time stretch under
                                          # CPU-share throttling

    # --- datacenter fleet ---
    fleet_servers: int = 4096
    server_cores: int = 96
    server_memory_mb: int = 786432

    def __post_init__(self) -> None:
        # Every coefficient is checked here, with a ValueError naming it:
        # out of range, one would run as another value (a NaN failure rate
        # as none, a zero shard count as the serial scheduler), bill a
        # negative or NaN price, or fail only once a burst runs or bills.
        # NaN passes every comparison, so finiteness is checked first;
        # zero costs and an infinite build rate stay legal.
        for name in ("sched_base_s", "sched_search_s", "sched_sync_s",
                     "build_base_s", "ship_overhead_mb", "exec_noise_sigma",
                     "isolation_penalty", "concurrency_leak", "gb_second_usd",
                     "keepalive_gb_second_usd", "per_request_usd",
                     "storage_put_usd", "storage_get_usd", "egress_usd_per_gb",
                     "billing_granularity_s", "min_billed_duration_s"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0 (got {value})")
        if not (math.isfinite(self.cpu_throttle_multiplier)
                and self.cpu_throttle_multiplier >= 1.0):
            raise ValueError(
                f"cpu_throttle_multiplier must be finite and >= 1 "
                f"(got {self.cpu_throttle_multiplier})"
            )
        if not (math.isfinite(self.uplink_gbps) and self.uplink_gbps > 0.0):
            raise ValueError(f"uplink_gbps must be finite and > 0 (got {self.uplink_gbps})")
        # The comparisons below are false for NaN.
        for name in ("max_execution_seconds", "build_rate_mb_s"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0 (got {getattr(self, name)})")
        if not 0.0 < self.build_cache_factor <= 1.0:
            raise ValueError(
                f"build_cache_factor must be in (0, 1] (got {self.build_cache_factor})"
            )
        if not 0.0 <= self.failure_rate <= 1.0:
            raise ValueError(f"failure_rate must be in [0, 1] (got {self.failure_rate})")
        for name, least in (("cores_per_instance", 1), ("max_memory_mb", 1),
                            ("scheduler_shards", 1), ("build_slots", 1),
                            ("max_retries", 0)):
            if getattr(self, name) < least:
                raise ValueError(
                    f"{name} must be >= {least} (got {getattr(self, name)})"
                )
        # A burst provisions at most max_memory_mb per instance, so these
        # checks let every legal burst's instance fit an empty server.
        if self.fleet_servers < 1:
            raise ValueError(f"fleet_servers must be >= 1 (got {self.fleet_servers})")
        if self.cores_per_instance > self.server_cores:
            raise ValueError(
                f"cores_per_instance ({self.cores_per_instance}) exceeds "
                f"server_cores ({self.server_cores})"
            )
        if self.max_memory_mb > self.server_memory_mb:
            raise ValueError(
                f"max_memory_mb ({self.max_memory_mb}) exceeds "
                f"server_memory_mb ({self.server_memory_mb})"
            )

    def with_overrides(self, **kwargs: object) -> "PlatformProfile":
        """A copy with selected coefficients replaced (for ablations)."""
        return replace(self, **kwargs)


AWS_LAMBDA = PlatformProfile(name="aws-lambda")

# Google and Azure show the same qualitative bottleneck with different
# coefficients (paper Figs. 1 and 21): somewhat slower scaling, and a per-GB
# networking fee that AWS does not charge — which is why packing saves *more*
# expense there (co-located functions share transfers).
GOOGLE_CLOUD_FUNCTIONS = PlatformProfile(
    name="google-cloud-functions",
    sched_base_s=0.0025,
    sched_search_s=1.9e-4,
    build_slots=48,
    build_rate_mb_s=170.0,
    build_base_s=0.35,
    uplink_gbps=80.0,
    gb_second_usd=2.5e-5,
    keepalive_gb_second_usd=6.25e-6,
    per_request_usd=4.0e-7,
    egress_usd_per_gb=0.12,
)

AZURE_FUNCTIONS = PlatformProfile(
    name="azure-functions",
    sched_base_s=0.003,
    sched_search_s=2.2e-4,
    build_slots=48,
    build_rate_mb_s=150.0,
    build_base_s=0.4,
    uplink_gbps=80.0,
    gb_second_usd=1.6e-5,
    keepalive_gb_second_usd=4.0e-6,
    per_request_usd=2.0e-7,
    egress_usd_per_gb=0.087,
)

PROVIDERS: dict[str, PlatformProfile] = {
    p.name: p for p in (AWS_LAMBDA, GOOGLE_CLOUD_FUNCTIONS, AZURE_FUNCTIONS)
}
