"""Metrics registry: counters, gauges, fixed-bucket histograms.

Components across the stack (platform, serving, faults, resilience)
register named metrics here instead of hand-rolling counters. Three rules
keep the output bit-deterministic per seed:

* histogram bucket boundaries are fixed at creation (never adaptive),
* collection order is sorted by ``(name, labels)``, never insertion order,
* values are plain Python ints/floats updated by pure arithmetic.

Naming follows the Prometheus convention: ``propack_<subsystem>_<what>``
with a ``_total`` suffix for counters and a unit suffix (``_seconds``,
``_gb_seconds``, ``_usd``) where one applies — see
``docs/OBSERVABILITY.md`` for the catalogue.
"""

from __future__ import annotations

import bisect
import re
from typing import Any, Iterable, Optional

import numpy as np

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram boundaries (seconds-flavoured, Prometheus-style).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
    2.5, 5.0, 10.0, 25.0, 60.0, 120.0, 300.0, 600.0,
)

LabelPairs = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelPairs:
    for key in labels:
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid label name {key!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can go up and down (pool size, brownout level)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Cumulative-bucket histogram with boundaries fixed at creation."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("need at least one bucket boundary")
        if any(bounds[i] >= bounds[i + 1] for i in range(len(bounds) - 1)):
            raise ValueError("bucket boundaries must be strictly increasing")
        self.buckets = bounds
        # counts[i] observes <= buckets[i]; the final slot is the +Inf bucket.
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def observe_many(self, values: Iterable[float]) -> None:
        """``observe`` each value in order, as array arithmetic.

        Bucket counts, ``count`` and ``sum`` equal those of the loop to the
        last bit: the sum adds left to right from the running total (a
        cumulative sum, not numpy's pairwise ``sum``), and a NaN lands in
        the first bucket, where ``bisect_left`` puts it.
        """
        column = np.asarray(values, dtype=np.float64).ravel()
        if not column.size:
            return
        slots = np.searchsorted(self.buckets, column, side="left")
        slots[np.isnan(column)] = 0
        added = np.bincount(slots, minlength=len(self.counts)).tolist()
        self.counts[:] = [have + new for have, new in zip(self.counts, added)]
        with np.errstate(invalid="ignore", over="ignore"):  # as quiet as ``+=``
            self.sum = float(np.cumsum(np.concatenate(((self.sum,), column)))[-1])
        self.count += column.size

    def cumulative(self) -> list[int]:
        """Cumulative counts per boundary (Prometheus ``le`` semantics)."""
        out, running = [], 0
        for c in self.counts:
            running += c
            out.append(running)
        return out


class _Family:
    """All instances of one metric name (one per label set)."""

    __slots__ = ("name", "kind", "help", "buckets", "instances")

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        buckets: Optional[tuple[float, ...]] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.buckets = buckets
        self.instances: dict[LabelPairs, Any] = {}


class MetricsRegistry:
    """Get-or-create registry for every metric in one telemetry session."""

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    # ------------------------------------------------------------------ #
    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        buckets: Optional[tuple[float, ...]] = None,
    ) -> _Family:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind, help_text, buckets)
            self._families[name] = family
            return family
        if family.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {family.kind}, not a {kind}"
            )
        if kind == "histogram" and buckets != family.buckets:
            raise ValueError(f"metric {name!r} re-registered with other buckets")
        return family

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        family = self._family(name, "counter", help)
        return family.instances.setdefault(_label_key(labels), Counter())

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        family = self._family(name, "gauge", help)
        return family.instances.setdefault(_label_key(labels), Gauge())

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        help: str = "",
        **labels: str,
    ) -> Histogram:
        bounds = tuple(float(b) for b in buckets)
        family = self._family(name, "histogram", help, bounds)
        key = _label_key(labels)
        instance = family.instances.get(key)
        if instance is None:
            instance = Histogram(bounds)
            family.instances[key] = instance
        return instance

    # ------------------------------------------------------------------ #
    def get(self, name: str, **labels: str) -> Optional[Any]:
        """The existing metric for ``(name, labels)``, or ``None``."""
        family = self._families.get(name)
        if family is None:
            return None
        return family.instances.get(_label_key(labels))

    def collect(self) -> list[tuple[str, str, str, list[tuple[LabelPairs, Any]]]]:
        """Deterministic snapshot: ``(name, kind, help, [(labels, metric)])``
        sorted by name then label set — the exporters' only input."""
        out = []
        for name in sorted(self._families):
            family = self._families[name]
            rows = sorted(family.instances.items(), key=lambda kv: kv[0])
            out.append((name, family.kind, family.help, rows))
        return out

    def __len__(self) -> int:
        return sum(len(f.instances) for f in self._families.values())
