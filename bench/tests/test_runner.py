"""Each workload end to end: declared metrics, clean checks, faithful tracing."""

import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from bench.cli import CONFIG
from bench.calibrate import REFERENCE_S
from bench.runner import _Timeline, measure, measure_traced
from bench.tests.test_trace import originals
from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads(CONFIG.read_text(encoding="utf-8"))


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def test_declared_workloads_are_the_implemented_ones():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_reports_every_end_to_end_metric(name):
    report = measure(name, seed=7, iterations=2)
    result = report.result()
    assert report.failures == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_host_times_are_scaled_by_the_passes_on_both_sides():
    timeline = _Timeline()
    timeline.raw = [1.0, 2.0]
    timeline.passes = [REFERENCE_S, 2 * REFERENCE_S, REFERENCE_S]
    # Each item over the mean of its neighbouring passes, in REFERENCE_S units.
    assert timeline.normalised() == pytest.approx([1.0 / 1.5, 2.0 / 1.5])


def test_a_second_thread_fails_the_run():
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        report = measure("burst-faulted", seed=7, iterations=1)
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert not report.correct
    assert any("threads alive" in f for f in report.failures)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_layers_and_restores_the_program(name, tmp_path):
    before = originals()
    report, tracer = measure_traced(
        name, seed=7, spans_path=str(tmp_path / "spans.jsonl.gz"), iterations=1
    )
    assert all(vars(o)[a] is before[(o, a)] for o, a in before)
    assert report.failures == []
    metrics = {k: v for k, (v, _) in report.metrics.items()}
    assert {k: u for k, (_, u) in report.metrics.items()} == _declared("per_layer")
    assert (tmp_path / "spans.jsonl.gz").stat().st_size > 0
    if name == "burst-fluid":
        assert metrics["engine.fluid.hits"] == 2
        assert metrics["engine.fluid.fallbacks"] == 0
        assert metrics["sim.events"] == 0
    if name in ("burst-faulted", "burst-observed"):
        assert metrics["engine.fluid.hits"] == 0
        assert metrics["engine.fluid.fallbacks"] == 1
        assert metrics["sim.events"] > 0
    if name == "serving-storm":
        assert metrics["chaos.audit.events"] > 0
        assert 0.0 < metrics["resilience.admit_ratio"] < 1.0


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(CONFIG, tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", "burst-fluid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
