"""Campaign targets: what a run actually executes.

A target is the adapter between the harness and a simulation entry point.
It does three jobs:

* ``resolve(params)`` — turn sweep-point parameters into the **fully
  resolved** configuration that goes into ``manifest.json`` (defaults
  filled in, profiles expanded to their coefficients), so the manifest is
  self-contained provenance;
* ``execute(resolved, seed)`` — run the simulation from a resolved config
  and return a :class:`RunOutput` (headline scalars + optional JSONL
  metrics);
* stay **deterministic**: identical ``(resolved, seed)`` must produce a
  byte-identical summary — that is the contract ``reproduce`` asserts.

Built-ins adapt the existing entry points: ``burst`` wraps
:meth:`repro.platform.base.ServerlessPlatform.run_burst` and ``experiment``
wraps any figure/sweep in :data:`repro.experiments.figures.ALL_FIGURES`
(fig1…fig21, serving, overload, selfhealing, …), so the SH1/overload/
serving sweeps flow through the same harness as micro-bursts.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable, Mapping, Optional

from repro.harness.manifest import canonical_json


@dataclass(frozen=True)
class RunOutput:
    """What one target execution hands back to the harness."""

    summary: dict[str, Any]
    metrics_jsonl: str = ""


class CampaignTarget:
    """Base class for campaign targets (subclass and register)."""

    name: str = ""

    def resolve(self, params: Mapping[str, Any]) -> dict[str, Any]:
        raise NotImplementedError

    def execute(self, resolved: Mapping[str, Any], seed: int) -> RunOutput:
        raise NotImplementedError


class TargetRegistry:
    """Name → target lookup used by the executor, CLI, and reproduce."""

    def __init__(self) -> None:
        self._targets: dict[str, CampaignTarget] = {}

    def register(self, target: CampaignTarget) -> CampaignTarget:
        if not target.name:
            raise ValueError("target needs a non-empty name")
        if target.name in self._targets:
            raise ValueError(f"target {target.name!r} already registered")
        self._targets[target.name] = target
        return target

    def get(self, name: str) -> CampaignTarget:
        if name not in self._targets:
            self._try_lazy_import(name)
        if name not in self._targets:
            raise KeyError(
                f"unknown target {name!r} (known: {', '.join(sorted(self._targets))})"
            )
        return self._targets[name]

    def _try_lazy_import(self, name: str) -> None:
        """Convention-based plugin discovery: a target named
        ``<subsystem>-<rest>`` registers itself when ``repro.<subsystem>``
        is imported (``chaos-serving`` → ``repro.chaos``, ``fusion-fleet``
        → ``repro.fusion``). Importing on demand keeps ``propack-campaign
        reproduce`` working on any manifest without the harness ever
        naming — or statically importing — its consumers."""
        import importlib

        prefix = name.split("-", 1)[0]
        if not prefix or not prefix.isidentifier():
            return
        try:
            importlib.import_module(f"repro.{prefix}")
        except ImportError:
            return

    def names(self) -> list[str]:
        return sorted(self._targets)


#: The process-wide default registry; built-ins register at import time,
#: callers may add their own with :func:`register_target`.
DEFAULT_REGISTRY = TargetRegistry()


def register_target(target: CampaignTarget) -> CampaignTarget:
    return DEFAULT_REGISTRY.register(target)


# --------------------------------------------------------------------- #
# burst: one seeded burst on a fresh platform
# --------------------------------------------------------------------- #
class BurstTarget(CampaignTarget):
    """One burst of ``concurrency`` functions at a fixed packing degree.

    The resolved config embeds the full platform profile and app spec, so
    the manifest pins every coefficient the simulation consumed — a later
    re-tuning of a built-in profile shows up as a config diff, not a
    silent mismatch.
    """

    name = "burst"

    def resolve(self, params: Mapping[str, Any]) -> dict[str, Any]:
        from dataclasses import asdict

        from repro.platform.providers import PROVIDERS
        from repro.workloads import ALL_APPS

        params = dict(params)
        app_name = params.pop("app", "stateless-cost")
        platform_name = params.pop("platform", "aws-lambda")
        concurrency = int(params.pop("concurrency", 100))
        degree = int(params.pop("packing_degree", 1))
        if params:
            raise ValueError(f"burst: unknown params {sorted(params)}")
        if app_name not in ALL_APPS:
            raise ValueError(f"burst: unknown app {app_name!r}")
        if platform_name not in PROVIDERS:
            raise ValueError(f"burst: unknown platform {platform_name!r}")
        return {
            "app": app_name,
            "app_spec": asdict(ALL_APPS[app_name]),
            "platform": platform_name,
            "platform_profile": asdict(PROVIDERS[platform_name]),
            "concurrency": concurrency,
            "packing_degree": degree,
        }

    def execute(self, resolved: Mapping[str, Any], seed: int) -> RunOutput:
        from repro.platform.base import ServerlessPlatform
        from repro.platform.invoker import BurstSpec
        from repro.platform.providers import PROVIDERS
        from repro.telemetry import TelemetryConfig
        from repro.workloads import ALL_APPS

        profile = PROVIDERS[resolved["platform"]]
        app = ALL_APPS[resolved["app"]]
        platform = ServerlessPlatform(
            profile, seed=seed, telemetry=TelemetryConfig(tracing=False)
        )
        spec = BurstSpec(
            app=app,
            concurrency=int(resolved["concurrency"]),
            packing_degree=int(resolved["packing_degree"]),
        )
        result = platform.run_burst(spec, repetition=0)
        summary = {
            "n_instances": result.n_instances,
            "scaling_time_s": result.scaling_time,
            "service_time_s": result.service_time(),
            "service_time_tail_s": result.service_time("tail"),
            "service_time_median_s": result.service_time("median"),
            "expense_usd": result.expense.total_usd,
            "lost_functions": result.lost_functions,
        }
        # Metrics stream: one line per instance lifecycle, then every
        # telemetry bus event (fault-free bursts publish none).
        lines = [
            canonical_json(
                {
                    "kind": "instance",
                    "instance": r.instance_id,
                    "n_packed": r.n_packed,
                    "invoked_at": r.invoked_at,
                    "exec_start": r.exec_start,
                    "exec_end": r.exec_end,
                    "warm_start": r.warm_start,
                    "attempt": r.attempt,
                }
            )
            for r in result.records
        ]
        metrics = "".join(line + "\n" for line in lines)
        if platform.telemetry is not None and platform.telemetry.bus is not None:
            metrics += platform.telemetry.events_jsonl()
        return RunOutput(summary=summary, metrics_jsonl=metrics)


# --------------------------------------------------------------------- #
# experiment: any figure/sweep from repro.experiments
# --------------------------------------------------------------------- #
def _experiment_config_fields() -> dict[str, Any]:
    from repro.experiments.config import ExperimentConfig

    return {f.name: f for f in fields(ExperimentConfig)}


def _config_from_dict(payload: Mapping[str, Any]):
    """Rebuild an :class:`ExperimentConfig` from a manifest dict (JSON
    round-trips tuples as lists, so tuple-typed fields are restored)."""
    from repro.experiments.config import ExperimentConfig

    kwargs: dict[str, Any] = {}
    known = _experiment_config_fields()
    for key, value in payload.items():
        if key not in known:
            raise ValueError(f"experiment: unknown config field {key!r}")
        default = getattr(ExperimentConfig(), key)
        kwargs[key] = tuple(value) if isinstance(default, tuple) else value
    return ExperimentConfig(**kwargs)


class ExperimentTarget(CampaignTarget):
    """One registered experiment figure under a fully-pinned grid.

    ``params``: ``figure`` (a key of ``ALL_FIGURES``), ``grid``
    (``"quick"`` or ``"full"``), plus any :class:`ExperimentConfig` field
    as an override. The summary flattens the figure's rows into
    deterministic headline scalars (per-numeric-column means), and every
    row is emitted as one ``metrics.jsonl`` line.
    """

    name = "experiment"

    def resolve(self, params: Mapping[str, Any]) -> dict[str, Any]:
        from dataclasses import asdict

        from repro.experiments.config import ExperimentConfig
        from repro.experiments.figures import ALL_FIGURES

        params = dict(params)
        figure = params.pop("figure", None)
        grid = params.pop("grid", "quick")
        if figure not in ALL_FIGURES:
            raise ValueError(
                f"experiment: unknown figure {figure!r} "
                f"(known: {', '.join(ALL_FIGURES)})"
            )
        if grid not in ("quick", "full"):
            raise ValueError(f"experiment: grid must be quick|full, got {grid!r}")
        config = ExperimentConfig.quick() if grid == "quick" else ExperimentConfig.full()
        known = _experiment_config_fields()
        unknown = [k for k in params if k not in known]
        if unknown:
            raise ValueError(f"experiment: unknown config overrides {unknown}")
        overrides = {
            k: tuple(v) if isinstance(getattr(config, k), tuple) else v
            for k, v in params.items()
        }
        config = ExperimentConfig(**{**config.__dict__, **overrides})
        return {"figure": figure, "grid": grid, "config": asdict(config)}

    def execute(self, resolved: Mapping[str, Any], seed: int) -> RunOutput:
        from repro.experiments.figures import ALL_FIGURES
        from repro.experiments.runner import ExperimentContext

        config = _config_from_dict(resolved["config"])
        config = type(config)(**{**config.__dict__, "seed": seed})
        ctx = ExperimentContext(config=config)
        fig = ALL_FIGURES[resolved["figure"]](ctx)
        summary: dict[str, Any] = {
            "figure_id": fig.figure_id,
            "rows": len(fig.rows),
        }
        for column in fig.columns:
            values = fig.column(column)
            if values and all(isinstance(v, (int, float)) for v in values):
                summary[f"{column}_mean"] = sum(float(v) for v in values) / len(values)
        metrics = "".join(
            canonical_json({"row": i, **row}) + "\n"
            for i, row in enumerate(fig.rows)
        )
        return RunOutput(summary=summary, metrics_jsonl=metrics)


register_target(BurstTarget())
register_target(ExperimentTarget())


#: Optional hook for tests/examples: a callable target without subclassing.
def make_target(
    name: str,
    resolve: Callable[[Mapping[str, Any]], dict[str, Any]],
    execute: Callable[[Mapping[str, Any], int], RunOutput],
    registry: Optional[TargetRegistry] = None,
) -> CampaignTarget:
    target = type(
        f"_{name.title().replace('-', '')}Target",
        (CampaignTarget,),
        {
            "name": name,
            "resolve": staticmethod(resolve),
            "execute": staticmethod(execute),
        },
    )()
    (registry or DEFAULT_REGISTRY).register(target)
    return target
