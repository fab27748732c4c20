"""Detectors: turn the live run's health signals into typed
:class:`Detection` events.

Detectors are the loop's senses. Each one watches a single failure
signature through the :class:`LoopView` — an immutable per-tick snapshot
the serving port assembles from the run's own counters and its
circuit-breaker bank. A telemetry session is never read, so a run detects,
proposes and acts the same with and without one.

All detector state is plain Python updated only inside ``observe``; no
randomness is drawn, so detections are byte-deterministic per seed and the
full detection stream can be pinned by a golden.
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional


def _round(value):
    return round(value, 9) if isinstance(value, float) else value


@dataclass(frozen=True)
class Detection:
    """One detected anomaly, with enough detail to propose a fix."""

    time: float
    kind: str          # "slo-burn" | "backlog-growth" | "breaker-flap"
                       # | "domain-poisoning" | "recovered"
    severity: float    # [0, 1]; proposers may scale their response by it
    detail: tuple[tuple[str, object], ...] = ()

    def get(self, key: str, default=None):
        for k, v in self.detail:
            if k == key:
                return v
        return default

    def signature(self) -> tuple:
        return (
            _round(self.time),
            self.kind,
            _round(self.severity),
            tuple((k, _round(v)) for k, v in self.detail),
        )


@dataclass(frozen=True)
class LoopView:
    """Immutable snapshot of the live run at one remediation tick."""

    now: float
    violation_fraction: float      # recent windowed SLO violation share
    backlog_depth: int
    backlog_threshold: int
    in_flight: int
    arrival_rate_per_s: float      # observed over the last tick interval
    degree: int
    max_degree: int
    pool_capacity: Optional[int]
    admission_limit: Optional[int]
    baseline_admission_limit: Optional[int]  # limit at loop start
    n_domains: int
    open_domains: tuple[int, ...]
    quarantined_domains: tuple[int, ...]
    breaker_flaps: tuple[int, ...]     # cumulative failed probes per domain
    crashes_by_domain: tuple[int, ...]  # cumulative crashes per domain
    predict_exec_s: Callable[[int], float] = field(compare=False, default=None)


class Detector(abc.ABC):
    """One failure signature watched across ticks."""

    name = "detector"

    def reset(self) -> None:
        """Clear cross-tick state (called by the loop at run start)."""

    @abc.abstractmethod
    def observe(self, view: LoopView) -> list[Detection]:
        """Detections raised by this tick's snapshot."""


class SLOBurnDetector(Detector):
    """Windowed P99 attainment is burning: sustained SLO violations.

    Fires after ``consecutive`` ticks whose recent violation fraction
    exceeds ``budget`` — a streak requirement so one bad window does not
    trigger global knob turns.
    """

    name = "slo-burn"

    def __init__(self, budget: float = 0.05, consecutive: int = 2) -> None:
        if not 0.0 <= budget < 1.0:
            raise ValueError("budget must be in [0, 1)")
        if consecutive < 1:
            raise ValueError("consecutive must be >= 1")
        self.budget = float(budget)
        self.consecutive = int(consecutive)
        self._streak = 0

    def reset(self) -> None:
        self._streak = 0

    def observe(self, view: LoopView) -> list[Detection]:
        if view.violation_fraction > self.budget:
            self._streak += 1
        else:
            self._streak = 0
        if self._streak < self.consecutive:
            return []
        return [Detection(
            time=view.now,
            kind="slo-burn",
            severity=min(1.0, view.violation_fraction),
            detail=(
                ("violation", round(view.violation_fraction, 9)),
                ("streak", self._streak),
            ),
        )]


class BacklogGrowthDetector(Detector):
    """The dispatch queue is past threshold and still growing."""

    name = "backlog-growth"

    def __init__(self, consecutive: int = 2) -> None:
        if consecutive < 1:
            raise ValueError("consecutive must be >= 1")
        self.consecutive = int(consecutive)
        self._streak = 0
        self._last_depth: Optional[int] = None

    def reset(self) -> None:
        self._streak = 0
        self._last_depth = None

    def observe(self, view: LoopView) -> list[Detection]:
        depth = view.backlog_depth
        growing = (
            depth > view.backlog_threshold
            and (self._last_depth is None or depth >= self._last_depth)
        )
        self._last_depth = depth
        self._streak = self._streak + 1 if growing else 0
        if self._streak < self.consecutive:
            return []
        return [Detection(
            time=view.now,
            kind="backlog-growth",
            severity=min(1.0, depth / max(1, 4 * view.backlog_threshold)),
            detail=(("depth", depth), ("streak", self._streak)),
        )]


class BreakerFlapDetector(Detector):
    """A breaker keeps failing its half-open probes (flapping).

    Watches the per-domain flap counters (``CircuitBreaker.flaps``, read
    through the run's port) over a sliding window of ticks; a domain whose
    probes keep failing is broken in a way recovery backoff alone will not
    cure.
    """

    name = "breaker-flap"

    def __init__(self, flap_threshold: int = 2, window_ticks: int = 5) -> None:
        if flap_threshold < 1:
            raise ValueError("flap_threshold must be >= 1")
        if window_ticks < 1:
            raise ValueError("window_ticks must be >= 1")
        self.flap_threshold = int(flap_threshold)
        self.window_ticks = int(window_ticks)
        self._history: deque[tuple[int, ...]] = deque(maxlen=window_ticks + 1)

    def reset(self) -> None:
        self._history.clear()

    def observe(self, view: LoopView) -> list[Detection]:
        self._history.append(view.breaker_flaps)
        if len(self._history) < 2:
            return []
        oldest = self._history[0]
        detections = []
        for domain, (then, now_count) in enumerate(zip(oldest, view.breaker_flaps)):
            delta = now_count - then
            if delta < self.flap_threshold or domain in view.quarantined_domains:
                continue
            detections.append(Detection(
                time=view.now,
                kind="breaker-flap",
                severity=min(1.0, delta / (2.0 * self.flap_threshold)),
                detail=(("domain", domain), ("flaps", delta)),
            ))
        return detections


class DomainPoisonDetector(Detector):
    """One fault domain absorbs a disproportionate share of crashes.

    Reads the port's cumulative per-domain crash counters: a domain with
    ``crash_threshold`` crashes inside the sliding window, holding at least
    ``share`` of the window's total, is flagged for quarantine.
    """

    name = "domain-poisoning"

    def __init__(
        self,
        crash_threshold: int = 3,
        window_ticks: int = 5,
        share: float = 0.5,
    ) -> None:
        if crash_threshold < 1:
            raise ValueError("crash_threshold must be >= 1")
        if window_ticks < 1:
            raise ValueError("window_ticks must be >= 1")
        if not 0.0 < share <= 1.0:
            raise ValueError("share must be in (0, 1]")
        self.crash_threshold = int(crash_threshold)
        self.window_ticks = int(window_ticks)
        self.share = float(share)
        self._history: deque[tuple[int, ...]] = deque(maxlen=window_ticks + 1)

    def reset(self) -> None:
        self._history.clear()

    def observe(self, view: LoopView) -> list[Detection]:
        cumulative = view.crashes_by_domain
        self._history.append(cumulative)
        oldest = self._history[0]
        deltas = [now - then for then, now in zip(oldest, cumulative)]
        total = sum(deltas)
        if total == 0:
            return []
        detections = []
        for domain, crashes in enumerate(deltas):
            if crashes < self.crash_threshold or crashes < self.share * total:
                continue
            if domain in view.quarantined_domains:
                continue
            detections.append(Detection(
                time=view.now,
                kind="domain-poisoning",
                severity=min(1.0, crashes / total),
                detail=(("domain", domain), ("crashes", crashes)),
            ))
        return detections


class RecoveryDetector(Detector):
    """The storm has passed: sustained health with protection still tight.

    Fires only while the loop is still holding something back — the
    admission limit sits below its run-start baseline, or domains remain
    quarantined — so the loop loosens what it (or its operator) previously
    tightened and recovers the shed throughput.
    """

    name = "recovered"

    def __init__(self, budget: float = 0.02, healthy_ticks: int = 5) -> None:
        if not 0.0 <= budget < 1.0:
            raise ValueError("budget must be in [0, 1)")
        if healthy_ticks < 1:
            raise ValueError("healthy_ticks must be >= 1")
        self.budget = float(budget)
        self.healthy_ticks = int(healthy_ticks)
        self._streak = 0

    def reset(self) -> None:
        self._streak = 0

    def observe(self, view: LoopView) -> list[Detection]:
        healthy = (
            view.violation_fraction <= self.budget
            and view.backlog_depth <= view.backlog_threshold
        )
        self._streak = self._streak + 1 if healthy else 0
        tightened = (
            view.admission_limit is not None
            and view.baseline_admission_limit is not None
            and view.admission_limit < view.baseline_admission_limit
        )
        holding_back = tightened or bool(view.quarantined_domains)
        if self._streak < self.healthy_ticks or not holding_back:
            return []
        return [Detection(
            time=view.now,
            kind="recovered",
            severity=0.1,
            detail=(("streak", self._streak),),
        )]


def default_detectors() -> list[Detector]:
    """The standard sensor suite, one per failure signature."""
    return [
        SLOBurnDetector(),
        BacklogGrowthDetector(),
        BreakerFlapDetector(),
        DomainPoisonDetector(),
        RecoveryDetector(),
    ]
