"""Statistical reporting helpers for repeated experiments.

The paper repeats each experiment "multiple times for statistical
significance"; these helpers summarize repeated measurements with
Student-t confidence intervals and compare two techniques with a Welch
two-sample test. They are a library for callers that repeat runs: no
figure and no harness stage calls them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import stats


@dataclass(frozen=True)
class MeanCI:
    """Sample mean with a two-sided Student-t confidence interval."""

    mean: float
    low: float
    high: float
    confidence: float
    n: int

    @property
    def half_width(self) -> float:
        return (self.high - self.low) / 2.0

    def __str__(self) -> str:
        return f"{self.mean:.2f} ± {self.half_width:.2f} ({self.confidence:.0%} CI)"


def mean_ci(values: Sequence[float], confidence: float = 0.95) -> MeanCI:
    """Student-t CI of the mean (degenerate interval for n == 1)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("mean_ci of empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    mean = float(arr.mean())
    if arr.size == 1:
        return MeanCI(mean, mean, mean, confidence, 1)
    sem = float(arr.std(ddof=1) / np.sqrt(arr.size))
    t = float(stats.t.ppf(0.5 + confidence / 2.0, df=arr.size - 1))
    return MeanCI(mean, mean - t * sem, mean + t * sem, confidence, int(arr.size))


@dataclass(frozen=True)
class WelchResult:
    """Welch's unequal-variance t-test between two techniques."""

    statistic: float
    p_value: float
    significant: bool
    alpha: float


def welch_test(
    a: Sequence[float], b: Sequence[float], alpha: float = 0.05
) -> WelchResult:
    """Two-sided Welch test: are the two samples' means distinguishable?"""
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if a_arr.size < 2 or b_arr.size < 2:
        raise ValueError("Welch test needs at least two samples per side")
    statistic, p_value = stats.ttest_ind(a_arr, b_arr, equal_var=False)
    return WelchResult(
        statistic=float(statistic),
        p_value=float(p_value),
        significant=bool(p_value < alpha),
        alpha=alpha,
    )
