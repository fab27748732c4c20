"""Latency statistics for million-request horizons.

:class:`QuantileDigest` keeps every sojourn of a run in one float64 column
(8 MB per million sojourns) and computes exact nearest-rank quantiles when
they are read; a serving run reads them only after it ends.
:class:`WindowedSLOTracker` stays online instead: brownout, AIMD admission
and remediation read its trailing-window violation rate mid-run, so it
counts SLO violations in bounded time buckets and "which hour of the day
breached" survives the run without retaining samples.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np


class QuantileDigest:
    """Every sojourn of a run in one float64 column; quantiles on read.

    A quantile is computed when it is read, by one rank rule: *nearest
    rank*, the ⌈p·n⌉-th smallest value (NumPy's ``inverted_cdf`` method).
    Values are kept in an ``array('d')``, so a million sojourns take 8 MB;
    no NumPy view of it is kept, because the array cannot grow while one
    exists.
    """

    def __init__(self) -> None:
        self._values = array("d")

    def add(self, *values: float) -> None:
        """Append ``values`` (one dispatch's sojourns, in delivery order)."""
        self._values.extend(values)

    @property
    def count(self) -> int:
        return len(self._values)

    def values(self) -> np.ndarray:
        """A copy of every value added so far, in the order added."""
        return np.array(self._values, dtype=float)

    def quantile(self, p: float) -> float:
        """The ⌈p·n⌉-th smallest value added so far."""
        if not 0.0 < p <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {p}")
        if not self._values:
            raise ValueError("no observations")
        return float(
            np.quantile(self.values(), p, method="inverted_cdf", overwrite_input=True)
        )


@dataclass
class _Bucket:
    count: int = 0
    violations: int = 0
    sojourn_sum: float = 0.0


class WindowedSLOTracker:
    """SLO violations over sliding time windows, in bounded memory.

    Completions land in fixed-width time buckets (one counter triple per
    ``bucket_s``, so a day at one-minute buckets is 1440 entries no matter
    how many requests arrive). A *window* is ``window_s / bucket_s``
    consecutive buckets; :meth:`violation_fraction` reports the overall
    rate and :meth:`worst_window` the worst sliding window — the number an
    SLO burn-rate alert would fire on.
    """

    def __init__(self, slo_s: float, window_s: float = 600.0, bucket_s: float = 60.0) -> None:
        if slo_s <= 0.0:
            raise ValueError("SLO bound must be positive")
        if bucket_s <= 0.0 or window_s < bucket_s:
            raise ValueError("need window_s >= bucket_s > 0")
        self.slo_s = float(slo_s)
        self.window_s = float(window_s)
        self.bucket_s = float(bucket_s)
        self._buckets: dict[int, _Bucket] = {}
        self.total = 0
        self.total_violations = 0

    def record(self, completed_at: float, *sojourns_s: float) -> None:
        """Count the requests one dispatch delivered at ``completed_at``.

        The bucket's sojourn sum adds ``sojourns_s`` left to right, as
        one call per request would.
        """
        if completed_at < 0.0:
            raise ValueError("completion time must be non-negative")
        if not sojourns_s:
            return
        idx = int(completed_at // self.bucket_s)
        bucket = self._buckets.get(idx)
        if bucket is None:
            bucket = self._buckets[idx] = _Bucket()
        slo, total, violations = self.slo_s, bucket.sojourn_sum, 0
        for sojourn_s in sojourns_s:
            total += sojourn_s
            if sojourn_s > slo:
                violations += 1
        bucket.sojourn_sum = total
        bucket.count += len(sojourns_s)
        bucket.violations += violations
        self.total += len(sojourns_s)
        self.total_violations += violations

    @property
    def violation_fraction(self) -> float:
        if self.total == 0:
            return 0.0
        return self.total_violations / self.total

    def recent_violation_fraction(
        self, now: float, window_s: Optional[float] = None
    ) -> float:
        """Violation fraction over the trailing window ending at ``now``.

        This is the live health signal the brownout controller and AIMD
        admission feed on; an empty window reads as healthy (0.0).
        """
        span = self.window_s if window_s is None else float(window_s)
        lo = int(max(0.0, now - span) // self.bucket_s)
        hi = int(now // self.bucket_s)
        count = violations = 0
        for idx in range(lo, hi + 1):
            bucket = self._buckets.get(idx)
            if bucket is not None:
                count += bucket.count
                violations += bucket.violations
        return violations / count if count else 0.0

    def window_attainment(
        self, per_window_budget: float = 0.01, min_requests: int = 1
    ) -> float:
        """Fraction of sliding windows whose violation rate meets budget.

        With ``per_window_budget = 0.01`` this is *windowed P99
        attainment*: a window passes iff at least 99% of its completions
        met the SLO bound, i.e. the window's 99th percentile held.
        Returns 1.0 when no window saw ``min_requests`` completions.
        """
        if not 0.0 <= per_window_budget < 1.0:
            raise ValueError("per_window_budget must be in [0, 1)")
        if not self._buckets:
            return 1.0
        span = max(1, int(round(self.window_s / self.bucket_s)))
        passed = judged = 0
        for start in sorted(self._buckets):
            count = violations = 0
            for idx in range(start, start + span):
                bucket = self._buckets.get(idx)
                if bucket is not None:
                    count += bucket.count
                    violations += bucket.violations
            if count >= min_requests and count > 0:
                judged += 1
                if violations / count <= per_window_budget:
                    passed += 1
        return passed / judged if judged else 1.0

    def worst_window(self, min_requests: int = 1) -> tuple[float, float]:
        """(window start time, violation fraction) of the worst window."""
        if not self._buckets:
            return (0.0, 0.0)
        span = max(1, int(round(self.window_s / self.bucket_s)))
        indices = sorted(self._buckets)
        worst = (0.0, 0.0)
        for start in indices:
            count = violations = 0
            for idx in range(start, start + span):
                bucket = self._buckets.get(idx)
                if bucket is not None:
                    count += bucket.count
                    violations += bucket.violations
            if count >= min_requests and count > 0:
                fraction = violations / count
                if fraction > worst[1]:
                    worst = (start * self.bucket_s, fraction)
        return worst

    def bucket_series(self) -> list[tuple[float, int, int, float]]:
        """(start time, count, violations, mean sojourn) per bucket."""
        series = []
        for idx in sorted(self._buckets):
            bucket = self._buckets[idx]
            mean = bucket.sojourn_sum / bucket.count if bucket.count else 0.0
            series.append((idx * self.bucket_s, bucket.count, bucket.violations, mean))
        return series
