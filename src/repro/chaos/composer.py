"""The storm composer: bounded, seed-mutable multi-phase fault storms.

A :class:`StormSpec` is the chaos search's genome — a small vector of
bounded knobs that :meth:`StormSpec.compose` assembles into one
:class:`~repro.faults.scenario.FaultScenario`. The composition is
multi-phase in time:

* **phase 0 (floor)** — a sustained background of i.i.d. crashes and
  optional 429 throttling across the whole horizon;
* **phase 1 (poisoned start)** — the first ``poisoned_domains`` fault
  domains begin the run poisoned and (optionally) heal after
  ``poison_heal_s``;
* **phase 2 (gray window)** — the *last* ``gray_domains`` domains turn
  gray (slow-but-alive, never crashing) inside
  ``[onset, onset + heal) = horizon × [gray_onset_frac,
  gray_onset_frac + gray_heal_frac)``;
* **phase 3 (correlated shocks)** — ``correlated_bursts`` rack-style kill
  events land across the correlated window.

Every knob lives inside :data:`PARAM_BOUNDS`; construction validates the
bounds, :meth:`StormSpec.mutate` perturbs one or two knobs *within* them
(the Hypothesis property suite pins this), and
:meth:`StormSpec.shrink_candidates` enumerates strictly-simpler neighbours
for the greedy shrinking loop. Specs round-trip through validated JSON so
a minimized storm embeds byte-stably in a harness manifest.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Mapping

import numpy as np

from repro.faults.scenario import FaultScenario

#: knob -> (lo, hi, kind). ``int`` knobs are inclusive integer ranges.
PARAM_BOUNDS: dict[str, tuple[float, float, str]] = {
    "crash_rate": (0.0, 0.6, "float"),
    "persistent_fraction": (0.0, 0.4, "float"),
    "correlated_bursts": (0, 6, "int"),
    "correlated_fraction": (0.0, 0.9, "float"),
    "throttle_capacity": (0, 512, "int"),        # 0 = throttling off
    "throttle_refill_per_s": (1.0, 200.0, "float"),
    "poisoned_domains": (0, 8, "int"),
    "poison_heal_s": (0.0, 3600.0, "float"),     # 0 = never heals
    "gray_domains": (0, 8, "int"),
    "gray_slowdown": (1.0, 16.0, "float"),
    "gray_onset_frac": (0.0, 0.9, "float"),
    "gray_heal_frac": (0.0, 1.0, "float"),       # 0 = never heals
}

#: Default (all-quiet) knob values — also each knob's shrink destination.
_QUIET: dict[str, Any] = {
    "crash_rate": 0.0,
    "persistent_fraction": 0.0,
    "correlated_bursts": 0,
    "correlated_fraction": 0.0,
    "throttle_capacity": 0,
    "throttle_refill_per_s": 50.0,
    "poisoned_domains": 0,
    "poison_heal_s": 0.0,
    "gray_domains": 0,
    "gray_slowdown": 1.0,
    "gray_onset_frac": 0.2,
    "gray_heal_frac": 0.5,
}


@dataclass(frozen=True)
class StormSpec:
    """One point in the bounded storm space (see module docstring)."""

    name: str = "storm"
    crash_rate: float = 0.0
    persistent_fraction: float = 0.0
    correlated_bursts: int = 0
    correlated_fraction: float = 0.0
    throttle_capacity: int = 0
    throttle_refill_per_s: float = 50.0
    poisoned_domains: int = 0
    poison_heal_s: float = 0.0
    gray_domains: int = 0
    gray_slowdown: float = 1.0
    gray_onset_frac: float = 0.2
    gray_heal_frac: float = 0.5

    def __post_init__(self) -> None:
        for knob, (lo, hi, kind) in PARAM_BOUNDS.items():
            value = getattr(self, knob)
            if kind == "int" and value != int(value):
                raise ValueError(f"{knob} must be an integer, got {value!r}")
            if not lo <= value <= hi:
                raise ValueError(
                    f"{knob}={value!r} outside declared bounds [{lo}, {hi}]"
                )
        if self.correlated_bursts > 0 and self.correlated_fraction <= 0.0:
            raise ValueError("correlated bursts need a positive kill fraction")

    # ------------------------------------------------------------------ #
    # composition
    # ------------------------------------------------------------------ #
    def compose(self, horizon_s: float, fault_domains: int = 4) -> FaultScenario:
        """Assemble the multi-phase :class:`FaultScenario` for one run.

        Poisoned domains are taken from the front of the domain range and
        gray domains from the back, so the two degradation phases overlap
        only when their counts force it — a storm can starve the healthy
        middle without the two mechanisms masking each other.
        """
        if not horizon_s > 0.0:  # NaN fails too
            raise ValueError(f"horizon_s must be positive (got {horizon_s})")
        if fault_domains < 1:
            raise ValueError("fault_domains must be >= 1")
        n_poisoned = min(self.poisoned_domains, fault_domains)
        n_gray = min(self.gray_domains, fault_domains)
        gray_heal = (
            None
            if self.gray_heal_frac <= 0.0
            else max(1e-9, self.gray_heal_frac * horizon_s)
        )
        return FaultScenario(
            name=self.name,
            crash_rate=self.crash_rate if self.crash_rate > 0.0 else None,
            persistent_fraction=self.persistent_fraction,
            correlated_bursts=self.correlated_bursts,
            correlated_fraction=(
                self.correlated_fraction if self.correlated_bursts > 0 else 0.0
            ),
            correlated_window_s=horizon_s,
            throttle_capacity=(
                self.throttle_capacity if self.throttle_capacity > 0 else None
            ),
            throttle_refill_per_s=(
                self.throttle_refill_per_s if self.throttle_capacity > 0 else 0.0
            ),
            poison_heal_s=self.poison_heal_s if self.poison_heal_s > 0.0 else None,
            initially_poisoned=tuple(range(n_poisoned)),
            gray_domains=tuple(range(fault_domains - n_gray, fault_domains)),
            gray_slowdown=self.gray_slowdown if n_gray > 0 else 1.0,
            gray_onset_s=self.gray_onset_frac * horizon_s,
            gray_heal_s=gray_heal,
        )

    # ------------------------------------------------------------------ #
    # search operators
    # ------------------------------------------------------------------ #
    def quiet(self) -> bool:
        """True when every phase is inert (the all-calm spec)."""
        return all(getattr(self, k) == _QUIET[k] for k in _ACTIVE_KNOBS)

    def mutate(self, rng: np.random.Generator, scale: float = 0.35) -> "StormSpec":
        """One mutation step: re-draw 1–2 knobs inside their bounds.

        Float knobs take a Gaussian step of ``scale`` × their range,
        clamped to the bounds; int knobs step ±1 or re-draw uniformly.
        The result always validates — mutation cannot leave the declared
        space (property-tested).
        """
        knobs = sorted(PARAM_BOUNDS)
        n_changes = int(rng.integers(1, 3))
        chosen = rng.choice(len(knobs), size=n_changes, replace=False)
        updates: dict[str, Any] = {}
        for idx in chosen:
            knob = knobs[int(idx)]
            lo, hi, kind = PARAM_BOUNDS[knob]
            current = getattr(self, knob)
            if kind == "int":
                if rng.random() < 0.5:
                    value = int(current) + int(rng.choice((-1, 1)))
                else:
                    value = int(rng.integers(int(lo), int(hi) + 1))
                updates[knob] = int(min(max(value, int(lo)), int(hi)))
            else:
                step = rng.normal(0.0, scale * (hi - lo))
                updates[knob] = float(min(max(current + step, lo), hi))
        # Keep the composed scenario constructible: bursts imply a kill
        # fraction, throttling implies a refill rate (bounds guarantee it).
        merged = {**self.as_knobs(), **updates}
        if merged["correlated_bursts"] > 0 and merged["correlated_fraction"] <= 0.0:
            merged["correlated_fraction"] = 0.1
        return StormSpec(name=self.name, **merged)

    def shrink_candidates(self) -> list["StormSpec"]:
        """Strictly-simpler neighbours, most aggressive first.

        For every knob that differs from its quiet value: (a) a candidate
        with the knob fully quieted, then (b) one with the knob moved
        halfway toward quiet (ints round toward quiet). The greedy shrink
        loop accepts the first candidate that still reproduces the parent's
        violation class, so ordering from most to least aggressive
        minimizes evaluations.
        """
        out: list[StormSpec] = []
        knobs = self.as_knobs()
        for knob in sorted(_ACTIVE_KNOBS):
            current = knobs[knob]
            quiet = _QUIET[knob]
            if current == quiet:
                continue
            out.append(self._with(knob, quiet))
            _, _, kind = PARAM_BOUNDS[knob]
            if kind == "int":
                halfway: Any = quiet + (current - quiet) // 2
            else:
                halfway = quiet + (current - quiet) / 2.0
            if halfway != current and halfway != quiet:
                out.append(self._with(knob, halfway))
        return out

    def _with(self, knob: str, value: Any) -> "StormSpec":
        merged = {**self.as_knobs(), knob: value}
        if merged["correlated_bursts"] == 0:
            merged["correlated_fraction"] = (
                0.0 if knob == "correlated_bursts" else merged["correlated_fraction"]
            )
        if merged["correlated_bursts"] > 0 and merged["correlated_fraction"] <= 0.0:
            merged["correlated_bursts"] = 0
        return StormSpec(name=self.name, **merged)

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def as_knobs(self) -> dict[str, Any]:
        return {k: getattr(self, k) for k in PARAM_BOUNDS}

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, **self.as_knobs()}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "StormSpec":
        """Rebuild a spec, rejecting unknown keys; bounds re-validate."""
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown StormSpec keys: {sorted(unknown)}")
        data = dict(payload)
        for knob, (_lo, _hi, kind) in PARAM_BOUNDS.items():
            if knob in data and kind == "int":
                data[knob] = int(data[knob])
        return cls(**data)

    def describe(self) -> str:
        parts = [self.name]
        for knob in sorted(_ACTIVE_KNOBS):
            value = getattr(self, knob)
            if value != _QUIET[knob]:
                parts.append(f"{knob}={value:g}" if isinstance(value, float) else f"{knob}={value}")
        return " ".join(parts)


#: Knobs whose quiet value means "this phase is off" (refill/onset/heal are
#: only meaningful when their gate knob is active).
_ACTIVE_KNOBS = (
    "crash_rate",
    "persistent_fraction",
    "correlated_bursts",
    "correlated_fraction",
    "throttle_capacity",
    "poisoned_domains",
    "poison_heal_s",
    "gray_domains",
    "gray_slowdown",
)


# --------------------------------------------------------------------- #
# the seed corpus: hand-built storm archetypes
# --------------------------------------------------------------------- #
#: Search starts from these instead of random noise so a small (CI-sized)
#: budget still reaches SLO-breaking territory; each archetype stresses a
#: different protection path.
CORPUS: tuple[StormSpec, ...] = (
    StormSpec(name="gray-ambush", gray_domains=3, gray_slowdown=8.0,
              gray_onset_frac=0.1, gray_heal_frac=0.8),
    StormSpec(name="crash-storm", crash_rate=0.35, persistent_fraction=0.1),
    StormSpec(name="throttle-squeeze", throttle_capacity=32,
              throttle_refill_per_s=4.0),
    StormSpec(name="poisoned-floor", poisoned_domains=3, crash_rate=0.05),
    StormSpec(name="shock-train", correlated_bursts=4,
              correlated_fraction=0.7, crash_rate=0.1),
    StormSpec(name="compound", crash_rate=0.2, gray_domains=2,
              gray_slowdown=5.0, correlated_bursts=2,
              correlated_fraction=0.5),
)


def corpus() -> list[StormSpec]:
    """A fresh copy of the seed corpus (callers may extend it)."""
    return list(CORPUS)
