"""Declarative campaign specs.

A :class:`CampaignSpec` is a JSON-serializable description of a sweep
campaign: one or more :class:`SweepStage` s, each a cartesian grid
(``axes``) over a target's parameters crossed with a seed list, with
barrier dependencies between stages (every run of a dependent stage waits
for *all* runs of its dependencies — the shape used by
"sweep → aggregate" campaigns). The planner expands a spec into a run DAG;
the spec itself never executes anything.

Example (the built-in ``quickstart`` spec)::

    {
      "name": "quickstart",
      "stages": [
        {
          "name": "sweep",
          "target": "burst",
          "params": {"app": "stateless-cost", "packing_degree": 4},
          "axes": {"concurrency": [16, 32, 64]},
          "seeds": [2023]
        }
      ]
    }
"""

from __future__ import annotations

import json
import operator
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping, Union

_NAME_OK = set("abcdefghijklmnopqrstuvwxyz0123456789-_.")


def _check_name(kind: str, name: str) -> str:
    if not name or set(name.lower()) - _NAME_OK:
        raise ValueError(
            f"{kind} name {name!r} must be non-empty filesystem-safe "
            "(letters, digits, '-', '_', '.')"
        )
    return name


def _integer(where: str, value: Any) -> int:
    """``value`` as an int, or a ``ValueError`` naming ``where``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{where}: expected an integer, got {value!r}") from None


def _fields_of(cls: type, where: str, payload: Any, required: tuple[str, ...]) -> dict:
    """A JSON object as ``cls``'s keyword arguments, or a ``ValueError``
    naming ``where`` and the first unknown or missing key."""
    if not isinstance(payload, Mapping):
        raise ValueError(f"{where} must be a JSON object (got {payload!r})")
    unknown = sorted(set(payload) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"{where}: unknown keys {unknown}")
    missing = [key for key in required if key not in payload]
    if missing:
        raise ValueError(f"{where}: missing {missing[0]!r}")
    return dict(payload)


@dataclass(frozen=True)
class SweepStage:
    """One stage: a target swept over ``axes × seeds``."""

    name: str
    target: str
    params: dict[str, Any] = field(default_factory=dict)
    axes: dict[str, tuple[Any, ...]] = field(default_factory=dict)
    seeds: tuple[int, ...] = (2023,)
    depends_on: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _check_name("stage", self.name)
        if not self.target:
            raise ValueError(f"{self.name}: stage needs a target")
        if not isinstance(self.params, Mapping):
            raise ValueError(f"{self.name}: params must be a JSON object")
        for what, values in (
            ("seeds", self.seeds), ("depends_on", self.depends_on),
            *self.axes.items(),
        ):
            if not isinstance(values, (list, tuple)):
                raise ValueError(
                    f"{self.name}: {what!r} must be a list of values "
                    f"(got {values!r})"
                )
        if not self.seeds:
            raise ValueError(f"{self.name}: stage needs at least one seed")
        if self.name in self.depends_on:
            raise ValueError(f"{self.name}: a stage cannot depend on itself")
        object.__setattr__(
            self, "axes", {k: tuple(v) for k, v in self.axes.items()}
        )
        object.__setattr__(self, "seeds", tuple(
            _integer(f"{self.name}: seeds", s) for s in self.seeds
        ))
        object.__setattr__(self, "depends_on", tuple(self.depends_on))
        for axis, values in self.axes.items():
            if not values:
                raise ValueError(f"{self.name}: axis {axis!r} is empty")
            if axis in self.params:
                raise ValueError(
                    f"{self.name}: {axis!r} is both a fixed param and an axis"
                )

    @property
    def n_runs(self) -> int:
        n = len(self.seeds)
        for values in self.axes.values():
            n *= len(values)
        return n


@dataclass(frozen=True)
class CampaignSpec:
    """A named, validated collection of sweep stages."""

    name: str
    stages: tuple[SweepStage, ...]
    parallelism: int = 1
    max_retries: int = 1

    def __post_init__(self) -> None:
        _check_name("campaign", self.name)
        if not self.stages:
            raise ValueError("a campaign needs at least one stage")
        object.__setattr__(self, "stages", tuple(self.stages))
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            raise ValueError("duplicate stage names")
        known, declared = set(names), set()
        for stage in self.stages:
            missing = [d for d in stage.depends_on if d not in known]
            if missing:
                raise ValueError(f"{stage.name}: unknown dependencies {missing}")
            later = [d for d in stage.depends_on if d not in declared]
            if later:
                # The planner expands stages in order, so this also rules
                # out a dependency cycle.
                raise ValueError(
                    f"{stage.name}: depends on {later}, declared after it "
                    "(a stage must follow its dependencies)"
                )
            declared.add(stage.name)
        object.__setattr__(
            self, "parallelism", _integer("parallelism", self.parallelism)
        )
        object.__setattr__(
            self, "max_retries", _integer("max_retries", self.max_retries)
        )
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    @property
    def n_runs(self) -> int:
        return sum(s.n_runs for s in self.stages)

    # ------------------------------------------------------------------ #
    def as_dict(self) -> dict[str, Any]:
        payload = asdict(self)
        for stage in payload["stages"]:
            stage["axes"] = {k: list(v) for k, v in stage["axes"].items()}
            stage["seeds"] = list(stage["seeds"])
            stage["depends_on"] = list(stage["depends_on"])
        return payload

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CampaignSpec":
        """Build a spec from its JSON form; a ``ValueError`` names the first
        bad field (an unknown or missing key, a malformed value)."""
        data = _fields_of(cls, "campaign", payload, ("name",))
        data["stages"] = tuple(
            SweepStage(**_fields_of(
                SweepStage, f"stage {i}", stage, ("name", "target")
            ))
            for i, stage in enumerate(data.get("stages", ()))
        )
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CampaignSpec":
        return cls.from_json(Path(path).read_text())


# --------------------------------------------------------------------- #
# Built-in specs (used by the README quickstart and the CI smoke step)
# --------------------------------------------------------------------- #
def builtin_specs() -> dict[str, CampaignSpec]:
    return {
        # README quickstart: a 3-run concurrency sweep.
        "quickstart": CampaignSpec(
            name="quickstart",
            stages=(
                SweepStage(
                    name="sweep",
                    target="burst",
                    params={"app": "stateless-cost", "packing_degree": 4},
                    axes={"concurrency": (16, 32, 64)},
                    seeds=(2023,),
                ),
            ),
        ),
        # CI smoke: 4 runs across two stages with a barrier edge, small
        # enough to finish in seconds but exercising the whole harness.
        "smoke": CampaignSpec(
            name="smoke",
            stages=(
                SweepStage(
                    name="baseline",
                    target="burst",
                    params={"app": "sort", "packing_degree": 1},
                    axes={"concurrency": (24, 48)},
                    seeds=(2023,),
                ),
                SweepStage(
                    name="packed",
                    target="burst",
                    params={"app": "sort", "packing_degree": 6},
                    axes={"concurrency": (24, 48)},
                    seeds=(2023,),
                    depends_on=("baseline",),
                ),
            ),
        ),
        # The three long-horizon sweeps as one campaign (quick grids).
        "serving-suite": CampaignSpec(
            name="serving-suite",
            stages=(
                SweepStage(
                    name="serving",
                    target="experiment",
                    params={"figure": "serving", "grid": "quick"},
                    seeds=(2023,),
                ),
                SweepStage(
                    name="overload",
                    target="experiment",
                    params={"figure": "overload", "grid": "quick"},
                    seeds=(2023,),
                ),
                SweepStage(
                    name="selfhealing",
                    target="experiment",
                    params={"figure": "selfhealing", "grid": "quick"},
                    seeds=(2023,),
                ),
            ),
        ),
    }
