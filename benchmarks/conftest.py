"""Shared fixtures for the figure benchmarks.

Each benchmark regenerates one paper artifact on a reduced grid
(:meth:`ExperimentConfig.quick`) and asserts the *shape* the paper reports —
who wins, roughly by how much, where trends point. Absolute numbers are the
simulator's, not the authors' testbed's.

The context is session-scoped so the profiling runs (interference + scaling
model fits) are paid once and amortized across figures, exactly as the
paper amortizes them across applications.
"""

import json
import pathlib

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentContext

#: Dispatch-substrate throughput numbers, populated by the primitive
#: benchmarks in ``test_perf_primitives.py`` and written to
#: ``BENCH_dispatch.json`` at the repo root when the session ends — the
#: one-glance answer to "did this PR slow the simulator down?".
BENCH_RESULTS: dict[str, float] = {}

#: Serving throughput numbers (requests/s of simulated traffic and wall
#: time of the SV1, OV1, SH1 and CH1 sweeps), populated by
#: ``test_serving.py``, ``test_serving_overload.py``, ``test_selfhealing.py``
#: and ``test_chaos.py`` and written to ``BENCH_serving.json`` — the macro
#: counterpart of the dispatch-primitive trajectory. The file is rewritten
#: with only the keys the pytest session produced, so regenerate it from
#: one pytest session that runs all four.
BENCH_SERVING: dict[str, float] = {}

#: Platform-side fusion numbers (fused vs unfused cost per 1k functions
#: under rounded billing, plus planner throughput), populated by
#: ``test_fusion.py`` and written to ``BENCH_fusion.json``.
BENCH_FUSION: dict[str, float] = {}


@pytest.fixture(scope="session")
def ctx():
    return ExperimentContext(config=ExperimentConfig.quick())


def run_once(benchmark, func, *args):
    """Run a figure exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, rounds=1, iterations=1)


def _mean_round_s(benchmark) -> float:
    stats = getattr(getattr(benchmark, "stats", None), "stats", None)
    return stats.mean if stats is not None and stats.mean > 0.0 else 0.0


def record_throughput(benchmark, key: str, per_round: int) -> None:
    """Convert one benchmark's mean round time into a rate for the export."""
    mean = _mean_round_s(benchmark)
    if mean > 0.0:
        BENCH_RESULTS[key] = per_round / mean


def record_wall(benchmark, key: str) -> float:
    """Record one benchmark's mean round wall time (seconds) for the export.

    Used by the dispatch scale points (``burst_c1e4_wall_s`` …): the CI
    perf gate reads these alongside the throughput keys. Returns the mean
    so callers can assert absolute budgets (e.g. C=1e5 within 5 s).
    """
    mean = _mean_round_s(benchmark)
    if mean > 0.0:
        BENCH_RESULTS[key] = mean
    return mean


def record_serving_benchmark(benchmark, key: str, fig) -> None:
    """Record a serving sweep's wall time and simulated-requests rate.

    ``fig`` is the sweep's FigureResult; its rows each carry a
    ``requests`` count (one simulated serving run per row).
    """
    mean = _mean_round_s(benchmark)
    requests = sum(r.get("requests", 0) for r in fig.rows)
    if mean > 0.0 and requests > 0:
        BENCH_SERVING[f"{key}_wall_s"] = round(mean, 3)
        BENCH_SERVING[f"{key}_requests_per_s"] = round(requests / mean, 1)


def _record_bench_manifests(root: pathlib.Path) -> None:
    """Mirror the ``BENCH_*.json`` emissions through harness manifests
    (``results/bench/<run_id>/``), so the perf trajectory carries the same
    provenance (package version, git SHA) as campaign runs."""
    from repro.harness import ArtifactStore

    store = ArtifactStore(root / "results")
    for export, payload in (
        ("dispatch", BENCH_RESULTS),
        ("serving", BENCH_SERVING),
        ("fusion", BENCH_FUSION),
    ):
        if payload:
            store.record(
                campaign="bench",
                target=f"bench-{export}",
                params={"export": export, "file": f"BENCH_{export}.json"},
                summary=dict(sorted(payload.items())),
                seed=ExperimentConfig.quick().seed,
                stage="bench",
            )


def pytest_sessionfinish(session, exitstatus):
    root = pathlib.Path(__file__).resolve().parent.parent
    if BENCH_RESULTS:
        (root / "BENCH_dispatch.json").write_text(
            json.dumps(
                {
                    # Wall-time keys are seconds (need sub-second precision);
                    # everything else is a rate.
                    k: round(v, 4 if k.endswith("_wall_s") else 1)
                    for k, v in sorted(BENCH_RESULTS.items())
                },
                indent=2,
            ) + "\n"
        )
    if BENCH_SERVING:
        (root / "BENCH_serving.json").write_text(
            json.dumps(dict(sorted(BENCH_SERVING.items())), indent=2) + "\n"
        )
    if BENCH_FUSION:
        (root / "BENCH_fusion.json").write_text(
            json.dumps(dict(sorted(BENCH_FUSION.items())), indent=2) + "\n"
        )
    if BENCH_RESULTS or BENCH_SERVING or BENCH_FUSION:
        _record_bench_manifests(root)
