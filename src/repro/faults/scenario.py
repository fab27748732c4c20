"""Fault scenarios: deterministic, seed-reproducible failure environments.

The seed models only i.i.d. per-attempt crashes with a fixed retry count.
Real platforms misbehave in richer ways — the overheads characterized in
*The High Cost of Keeping Warm* and the billing-for-failed-work semantics
in *Demystifying Serverless Costs on Public Platforms*:

* **correlated crash bursts** — a rack/AZ event takes out a fraction of the
  in-flight instances at once, so packed bursts lose ``P×`` work per victim;
* **throttling** — a token-bucket admission limit rejects invocations above
  a concurrency quota (HTTP 429) with their own retry semantics;
* **stragglers** — a small fraction of instances draw a lognormal slowdown
  far beyond execution noise;
* **transient vs. persistent faults** — a transient crash succeeds on
  retry; a persistent one (poisoned input, corrupt layer) crashes every
  attempt of the same function group;
* **billed timeouts** — an attempt that hits ``max_execution_seconds`` is
  billed for the full cap (Lambda semantics), then retried;
* **gray failures** — slow-but-alive fault domains whose service rate is
  degraded by a fixed factor during a time window. A gray domain never
  crashes, so circuit breakers (which watch failures) and crash detectors
  stay silent while latency quietly drowns — the adversarial case the
  ``repro.chaos`` search exploits.

A :class:`FaultScenario` is a frozen description of all of these. It is
*pure configuration*: the randomness lives in dedicated
:class:`~repro.sim.randomness.RandomStreams` labels, so the same seed and
scenario always produce the identical fault schedule. Gray failures draw
no randomness at all (the degradation is a deterministic function of
domain and time), so enabling them never perturbs the draw sequence of an
otherwise-identical run.

Scenarios round-trip through validated JSON (:meth:`FaultScenario.to_dict`
/ :meth:`FaultScenario.from_dict`), so a storm embeds directly in a
:mod:`repro.harness` run manifest instead of being reconstructed ad hoc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Mapping, Optional


@dataclass(frozen=True)
class FaultScenario:
    """Declarative description of one fault environment."""

    name: str = "custom"

    # --- independent crashes (overrides the profile's failure_rate) ---
    crash_rate: Optional[float] = None     # per-attempt crash probability
    persistent_fraction: float = 0.0       # fraction of crashes that poison
                                           # the function group (every retry
                                           # of that group crashes too)

    # --- correlated crash bursts ---
    correlated_bursts: int = 0             # number of burst events
    correlated_fraction: float = 0.0       # kill probability per in-flight
                                           # instance at each event
    correlated_window_s: float = 60.0      # events drawn uniform in [0, w]

    # --- token-bucket throttling (429-style admission control) ---
    throttle_capacity: Optional[int] = None  # burst tokens; None = off
    throttle_refill_per_s: float = 0.0       # sustained admissions per second
    throttle_max_retries: int = 8            # 429 retries before giving up
    throttle_backoff_s: float = 0.5          # base backoff between 429 retries

    # --- persistent-fault healing ---
    poison_heal_s: Optional[float] = None  # a poisoned fault domain recovers
                                           # after this long (None = never)
    initially_poisoned: tuple[int, ...] = ()  # fault domains poisoned from
                                              # t=0 (shadow replays seed this
                                              # with the live run's state)

    # --- stragglers ---
    straggler_rate: float = 0.0            # probability an attempt straggles
    straggler_mu: float = 1.2              # lognormal log-mean of the extra
    straggler_sigma: float = 0.4           # slowdown factor (median e^mu)

    # --- timeouts ---
    retry_timeouts: bool = True            # timed-out attempts are retried
                                           # (billed the full cap either way)

    # --- gray failures (slow-but-alive fault domains) ---
    gray_domains: tuple[int, ...] = ()     # fault domains degraded by the
                                           # gray window (empty = no grays)
    gray_slowdown: float = 1.0             # execution-time multiplier while
                                           # gray (1.0 = no degradation)
    gray_onset_s: float = 0.0              # degradation starts at this time
    gray_heal_s: Optional[float] = None    # degradation ends this long after
                                           # onset (None = never heals)

    def __post_init__(self) -> None:
        # Every float field is finite: NaN passes each range check below,
        # and a NaN or infinite window, backoff or heal time fails (or is
        # silently ignored) only once a run draws from it.
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite (got {value})")
        if self.crash_rate is not None and not 0.0 <= self.crash_rate < 1.0:
            raise ValueError("crash_rate must be in [0, 1)")
        if not 0.0 <= self.persistent_fraction <= 1.0:
            raise ValueError("persistent_fraction must be in [0, 1]")
        if self.correlated_bursts < 0:
            raise ValueError("correlated_bursts must be non-negative")
        if not 0.0 <= self.correlated_fraction <= 1.0:
            raise ValueError("correlated_fraction must be in [0, 1]")
        if self.correlated_window_s <= 0.0:
            raise ValueError("correlated_window_s must be positive")
        if self.throttle_capacity is not None and self.throttle_capacity < 1:
            raise ValueError("throttle_capacity must be >= 1")
        if self.throttle_capacity is not None and self.throttle_refill_per_s <= 0.0:
            raise ValueError("throttle_refill_per_s must be positive when throttled")
        if self.throttle_max_retries < 0:
            raise ValueError("throttle_max_retries must be non-negative")
        if self.throttle_backoff_s < 0.0:
            raise ValueError("throttle_backoff_s must be non-negative")
        if self.poison_heal_s is not None and self.poison_heal_s <= 0.0:
            raise ValueError("poison_heal_s must be positive (or None)")
        if any(d < 0 for d in self.initially_poisoned):
            raise ValueError("initially_poisoned domains must be non-negative")
        if not 0.0 <= self.straggler_rate <= 1.0:
            raise ValueError("straggler_rate must be in [0, 1]")
        if self.straggler_sigma < 0.0:
            raise ValueError("straggler_sigma must be non-negative")
        object.__setattr__(
            self, "gray_domains", tuple(int(d) for d in self.gray_domains)
        )
        if any(d < 0 for d in self.gray_domains):
            raise ValueError("gray_domains must be non-negative")
        if self.gray_slowdown < 1.0:
            raise ValueError("gray_slowdown must be >= 1.0 (1.0 = off)")
        if self.gray_onset_s < 0.0:
            raise ValueError("gray_onset_s must be non-negative")
        if self.gray_heal_s is not None and self.gray_heal_s <= 0.0:
            raise ValueError("gray_heal_s must be positive (or None)")

    # ------------------------------------------------------------------ #
    @property
    def throttled(self) -> bool:
        return self.throttle_capacity is not None

    def effective_crash_rate(self, profile_rate: float) -> float:
        """The i.i.d. crash rate: the scenario's, else the profile's."""
        return profile_rate if self.crash_rate is None else self.crash_rate

    @property
    def gray_active(self) -> bool:
        return bool(self.gray_domains) and self.gray_slowdown > 1.0

    def gray_factor(self, domain: Optional[int], now: float) -> float:
        """Execution-time multiplier for a dispatch routed at ``domain``.

        Deterministic and draw-free: a gray domain slows every attempt by
        ``gray_slowdown`` inside ``[onset, onset + heal)`` and is healthy
        outside it. Crash detectors and breakers never see a gray domain —
        the attempts *succeed*, just late.
        """
        if domain is None or not self.gray_active:
            return 1.0
        if domain not in self.gray_domains:
            return 1.0
        if now < self.gray_onset_s:
            return 1.0
        if self.gray_heal_s is not None and now >= (
            self.gray_onset_s + self.gray_heal_s
        ):
            return 1.0
        return self.gray_slowdown

    def describe(self) -> str:
        """One line per active fault model (for experiment logs)."""
        parts = [self.name]
        for f in fields(self):
            if f.name == "name":
                continue
            value = getattr(self, f.name)
            if value != f.default:
                parts.append(f"{f.name}={value}")
        return " ".join(parts)

    # ------------------------------------------------------------------ #
    # Validated JSON round-trip (storms embed in harness manifests)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict: tuples become lists, every field included."""
        doc: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            doc[f.name] = list(value) if isinstance(value, tuple) else value
        return doc

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultScenario":
        """Rebuild a scenario, rejecting unknown keys and invalid values.

        Validation is the constructor's (`__post_init__`): negative rates,
        out-of-range probabilities, and inconsistent throttle settings all
        raise ``ValueError`` — a corrupted manifest cannot round-trip into
        a silently-different storm.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown FaultScenario keys: {sorted(unknown)}")
        data = dict(payload)
        for key in ("initially_poisoned", "gray_domains"):
            if key in data:
                value = data[key]
                if not isinstance(value, (list, tuple)):
                    raise ValueError(f"{key} must be a list of domain ids")
                data[key] = tuple(int(d) for d in value)
        return cls(**data)


#: No injected faults beyond the profile's own failure_rate.
CALM = FaultScenario(name="calm")

#: Elevated independent crashes with a small poisoned tail.
FLAKY = FaultScenario(name="flaky", crash_rate=0.15, persistent_fraction=0.02)

#: A correlated infrastructure event mid-burst plus stragglers.
STORMY = FaultScenario(
    name="stormy",
    crash_rate=0.05,
    correlated_bursts=2,
    correlated_fraction=0.3,
    correlated_window_s=40.0,
    straggler_rate=0.03,
)

#: Account-level concurrency quota: admission throttling dominates.
THROTTLED = FaultScenario(
    name="throttled",
    throttle_capacity=500,
    throttle_refill_per_s=100.0,
)

SCENARIOS: dict[str, FaultScenario] = {
    s.name: s for s in (CALM, FLAKY, STORMY, THROTTLED)
}
