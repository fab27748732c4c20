"""Experiment grids and defaults.

``full`` mirrors the paper's sweeps (concurrency 1000-5000); ``quick`` is a
reduced grid used by the pytest benchmarks so the whole suite runs in
minutes on one core while still exercising every figure's code path and
shape assertions.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid sizes and defaults for one harness run."""

    concurrencies: tuple[int, ...] = (1000, 2000, 3000, 4000, 5000)
    high_concurrency: int = 5000
    mid_concurrency: int = 2000
    low_concurrency: int = 1000
    seed: int = 2023
    merits: tuple[str, ...] = ("total", "tail", "median")
    weight_grid: tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 0.9)
    oracle_stride: int = 1  # sweep every degree (paper: exhaustive)
    xapian_qos_s: float = 30.0
    repetitions: int = 3    # the paper repeats runs for significance
    failure_rates: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2, 0.3)
    fault_concurrency: int = 2000
    # Long-horizon serving sweep (repro.serving): one diurnal "day" of
    # sustained traffic; quick mode compresses the day so the benchmark
    # suite stays fast while exercising the same trough→peak→trough sweep.
    serving_horizon_s: float = 86400.0
    serving_base_rate_per_s: float = 1.0
    serving_amplitude: float = 0.7
    serving_qos_s: float = 30.0
    # Overload-resilience sweep (repro.resilience): a flash crowd (MMPP
    # burst superposed on a diurnal base) under a faulty platform, served
    # unprotected vs. behind admission control / breakers / brownout.
    overload_horizon_s: float = 14400.0
    overload_base_rate_per_s: float = 1.0
    overload_flash_rate_per_s: float = 12.0
    overload_flash_mean_on_s: float = 300.0
    overload_flash_mean_off_s: float = 1500.0
    overload_qos_s: float = 90.0
    # Self-healing sweep (repro.remediation): stormy poisoning scenarios
    # served unprotected, behind a hand-tuned static config, and behind
    # the closed-loop auto-remediation control plane.
    selfheal_horizon_s: float = 7200.0
    selfheal_rate_per_s: float = 1.2
    selfheal_qos_s: float = 60.0
    selfheal_admission_limit: int = 64
    selfheal_handtuned_limit: int = 32
    selfheal_tick_interval_s: float = 60.0
    selfheal_shadow_horizon_s: float = 240.0
    # Chaos sweep (repro.chaos): a seeded adversarial search finds the
    # worst storm against unprotected serving; the figure then serves that
    # storm unprotected vs. protected and audits both finished runs.
    chaos_horizon_s: float = 1800.0
    chaos_rate_per_s: float = 4.0
    chaos_search_rounds: int = 2
    chaos_search_population: int = 3
    chaos_shrink_budget: int = 12
    chaos_slo_floor: float = 0.9
    # Fusion sweep (repro.fusion): user-side ProPack vs platform-side
    # fusion vs both on a mixed-app multi-tenant demand set, billed under
    # exact per-ms and legacy 100 ms-rounded schedules. Scales are chosen
    # off the ProPack degrees' divisors so remainder groups exist — the
    # raw material platform fusion consolidates.
    fusion_mix: str = "trio"
    fusion_burst_scale: int = 203
    fusion_serving_scale: int = 407
    fusion_granularity_s: float = 0.1
    fusion_min_billed_s: float = 0.1
    fusion_seed: int = 2023

    @classmethod
    def full(cls) -> "ExperimentConfig":
        return cls()

    @classmethod
    def quick(cls) -> "ExperimentConfig":
        return cls(
            concurrencies=(1000, 2000, 3500),
            high_concurrency=3500,
            mid_concurrency=2000,
            low_concurrency=1000,
            oracle_stride=2,
            xapian_qos_s=25.0,
            repetitions=1,
            failure_rates=(0.0, 0.1, 0.3),
            fault_concurrency=1000,
            serving_horizon_s=2400.0,
            serving_base_rate_per_s=1.5,
            overload_horizon_s=2400.0,
            overload_flash_rate_per_s=10.0,
            overload_flash_mean_on_s=240.0,
            overload_flash_mean_off_s=600.0,
            selfheal_horizon_s=2400.0,
            selfheal_shadow_horizon_s=120.0,
            chaos_horizon_s=480.0,
            chaos_search_rounds=1,
            chaos_search_population=2,
            chaos_shrink_budget=6,
            fusion_burst_scale=61,
            fusion_serving_scale=203,
        )
