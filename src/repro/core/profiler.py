"""Profiling: interference estimation and scaling estimation.

Interference (paper Sec. 2.1): run one function instance at a few sampled
packing degrees and record its execution time. The ET(P) curve is monotonic,
so ProPack skips alternate points — the paper evaluates 20, 8, and 15 sample
points for Video, Sort, and Stateless Cost, which is exactly every-other
degree up to each app's ``P_max`` (40, 15, 30). Runs can execute in parallel
because the profiling concurrency is far below the bottleneck regime.

Scaling (paper Sec. 2.2): spawn bursts of no-op probes at ~10 concurrency
samples and fit the polynomial. No application code runs; the model is fit
once per platform and reused by every application.

Both profilers account their own overhead (billed expense and wall time),
which the evaluation *includes* in ProPack's costs, as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.models import ExecutionTimeModel, ScalingTimeModel
from repro.platform.base import ServerlessPlatform
from repro.platform.invoker import BurstSpec, FunctionTimeoutError
from repro.workloads.base import AppSpec


def sample_degrees(max_degree: int) -> list[int]:
    """Every-other packing degree, always including 1 and ``max_degree``."""
    if max_degree < 1:
        raise ValueError("max degree must be >= 1")
    degrees = list(range(1, max_degree + 1, 2))
    if degrees[-1] != max_degree:
        degrees.append(max_degree)
    return degrees


@dataclass
class InterferenceProfile:
    """Observed (degree → execution time) samples plus the fitted model."""

    app_name: str
    degrees: list[int]
    exec_times: list[float]
    model: ExecutionTimeModel
    overhead_usd: float
    overhead_gb_seconds: float
    overhead_wall_s: float

    def observed(self) -> dict[int, float]:
        return dict(zip(self.degrees, self.exec_times))


class InterferenceProfiler:
    """Estimates an app's packing-interference curve on a platform."""

    def __init__(self, platform: ServerlessPlatform, repetitions: int = 1) -> None:
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        self.platform = platform
        self.repetitions = repetitions

    def profile(
        self, app: AppSpec, degrees: Optional[Sequence[int]] = None
    ) -> InterferenceProfile:
        """Run single instances at sampled degrees and fit Eq. 1."""
        max_degree = app.max_packing_degree(self.platform.profile.max_memory_mb)
        if degrees is None:
            degrees = sample_degrees(max_degree)
        usable: list[int] = []
        times: list[float] = []
        overhead_usd = 0.0
        overhead_gbs = 0.0
        overhead_wall = 0.0
        for degree in degrees:
            if degree > max_degree:
                raise ValueError(
                    f"degree {degree} exceeds {app.name}'s max packing degree "
                    f"{max_degree}"
                )
            samples = []
            for rep in range(self.repetitions):
                # One instance packing `degree` functions: concurrency ==
                # packing degree, far below the scalability bottleneck.
                spec = BurstSpec(
                    app=app, concurrency=degree, packing_degree=degree
                )
                try:
                    result = self.platform.run_burst(spec)
                except FunctionTimeoutError:
                    # The platform killed the instance; the paid time still
                    # counts toward overhead via the platform cap.
                    samples = []
                    overhead_wall += self.platform.profile.max_execution_seconds
                    break
                samples.append(result.mean_exec_seconds)
                overhead_usd += result.expense.total_usd
                overhead_gbs += (
                    result.mean_exec_seconds
                    * int(result.table.provisioned_mb[0])
                    / 1024.0
                )
                overhead_wall += result.service_time()
            if samples:
                usable.append(degree)
                times.append(float(np.mean(samples)))
        model = ExecutionTimeModel.fit(usable, times, mem_gb=app.mem_gb)
        return InterferenceProfile(
            app_name=app.name,
            degrees=usable,
            exec_times=times,
            model=model,
            overhead_usd=overhead_usd,
            overhead_gb_seconds=overhead_gbs,
            overhead_wall_s=overhead_wall,
        )


@dataclass
class ScalingProfile:
    """Observed (concurrency → scaling time) samples plus the fitted model."""

    platform_name: str
    concurrencies: list[int]
    scaling_times: list[float]
    model: ScalingTimeModel
    overhead_wall_s: float

    def observed(self) -> dict[int, float]:
        return dict(zip(self.concurrencies, self.scaling_times))


#: Default probe grid: ten samples, log-ish spaced across the regime.
DEFAULT_SCALING_SAMPLES = (50, 100, 200, 400, 700, 1000, 1500, 2000, 3000, 4000)


class ScalingProfiler:
    """Fits the application-independent scaling model for one platform."""

    def __init__(self, platform: ServerlessPlatform) -> None:
        self.platform = platform

    def profile(
        self, concurrencies: Sequence[int] = DEFAULT_SCALING_SAMPLES
    ) -> ScalingProfile:
        observed: list[float] = []
        wall = 0.0
        for c in concurrencies:
            scaling = self.platform.measure_scaling_time(c)
            observed.append(scaling)
            wall += scaling
        model = ScalingTimeModel.fit(list(concurrencies), observed)
        return ScalingProfile(
            platform_name=self.platform.profile.name,
            concurrencies=list(concurrencies),
            scaling_times=observed,
            model=model,
            overhead_wall_s=wall,
        )
