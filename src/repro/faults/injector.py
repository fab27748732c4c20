"""Deterministic fault decisions for one burst.

The injector owns every random draw a :class:`~repro.faults.scenario.FaultScenario`
needs, on dedicated :class:`~repro.sim.randomness.RandomStreams` labels
(``fault.crash``, ``fault.straggler``, ``fault.correlated``). Because those
streams are independent of the execution-noise streams, enabling a fault
model never perturbs the timing draws of an otherwise-identical run — and
the same seed plus the same scenario always yields the identical fault
schedule (asserted by the chaos determinism tests).

The injector counts what it drew — crash verdicts, split by persistence,
and straggler slowdowns — as plain integers, read once the run has ended.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.faults.scenario import FaultScenario
from repro.sim.randomness import RandomStreams, StreamHandle


@dataclass(frozen=True)
class CrashDecision:
    """One attempt's crash verdict."""

    at_fraction: float     # crash point as a fraction of the execution
    persistent: bool       # poisons the function group (retries crash too)


class FaultInjector:
    """Draws fault events for one burst, deterministically from one seed."""

    def __init__(
        self,
        scenario: FaultScenario,
        rng: RandomStreams,
        profile_failure_rate: float = 0.0,
    ) -> None:
        self.scenario = scenario
        self.rng = rng
        self.crash_rate = scenario.effective_crash_rate(profile_failure_rate)
        # Stream handles, resolved at first draw (as the kernel's "exec" and
        # the pipeline's "build" are): by then the kernel that owns ``rng``
        # has switched it to batched draws.
        self._crash: Optional[StreamHandle] = None
        self._straggler: Optional[StreamHandle] = None
        #: Crash verdicts drawn, transient and persistent, and stragglers.
        self.transient_crashes = 0
        self.persistent_crashes = 0
        self.stragglers = 0

    # ------------------------------------------------------------------ #
    def crash_decision(self, poisoned: bool = False) -> Optional[CrashDecision]:
        """Whether this attempt crashes, and where.

        ``poisoned`` attempts (persistent fault in the group) always crash;
        otherwise an independent Bernoulli draw at the effective crash rate.
        """
        stream = self._crash
        if stream is None:
            stream = self._crash = self.rng.stream("fault.crash")
        if poisoned:
            self.persistent_crashes += 1
            return CrashDecision(at_fraction=float(stream.random()), persistent=True)
        if self.crash_rate <= 0.0:
            return None
        if stream.random() >= self.crash_rate:
            return None
        at = float(stream.random())
        persistent = (
            self.scenario.persistent_fraction > 0.0
            and stream.random() < self.scenario.persistent_fraction
        )
        if persistent:
            self.persistent_crashes += 1
        else:
            self.transient_crashes += 1
        return CrashDecision(at_fraction=at, persistent=persistent)

    def straggler_factor(self) -> float:
        """Multiplicative slowdown for one attempt (1.0 = not a straggler)."""
        s = self.scenario
        if s.straggler_rate <= 0.0:
            return 1.0
        stream = self._straggler
        if stream is None:
            stream = self._straggler = self.rng.stream("fault.straggler")
        if stream.random() >= s.straggler_rate:
            return 1.0
        self.stragglers += 1
        # 1 + lognormal so a straggler is always strictly slower.
        return 1.0 + float(stream.lognormal(s.straggler_mu, s.straggler_sigma))

    def correlated_event_times(self) -> list[float]:
        """Relative times of the correlated crash events, sorted."""
        s = self.scenario
        if s.correlated_bursts <= 0 or s.correlated_fraction <= 0.0:
            return []
        stream = self.rng.stream("fault.correlated")
        times = stream.uniform(0.0, s.correlated_window_s, s.correlated_bursts)
        return sorted(float(t) for t in times)

    def correlated_kills(self, victims: int) -> list[bool]:
        """Per-victim kill verdicts for one correlated event."""
        stream = self.rng.stream("fault.correlated")
        draws = stream.random(victims)
        return [bool(d < self.scenario.correlated_fraction) for d in draws]
