"""Tests for the workflow DAG extension."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.core.propack import ProPack
from repro.platform.base import ServerlessPlatform
from repro.platform.providers import AWS_LAMBDA
from repro.workflows import Stage, WorkflowGraph, WorkflowRunner
from repro.workloads import SORT, STATELESS_COST, VIDEO


def diamond():
    """split → (encode, index) → merge, at bottleneck-regime concurrencies."""
    return WorkflowGraph([
        Stage("split", STATELESS_COST, 1000),
        Stage("encode", VIDEO, 4000, depends_on=("split",)),
        Stage("index", STATELESS_COST, 2500, depends_on=("split",)),
        Stage("merge", SORT, 1000, depends_on=("encode", "index")),
    ])


# --------------------------------------------------------------------- #
# DAG validation and analysis
# --------------------------------------------------------------------- #

def test_import_repro_does_not_load_networkx():
    """DAGs sort with the standard library's ``graphlib``: the package
    declares no networkx dependency, so importing it must not need one."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; raise SystemExit('networkx' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(pathlib.Path(repro.__file__).parents[1])},
    )
    assert proc.returncode == 0


def test_stage_validation():
    with pytest.raises(ValueError):
        Stage("", SORT, 10)
    with pytest.raises(ValueError):
        Stage("s", SORT, 0)
    with pytest.raises(ValueError):
        Stage("s", SORT, 10, depends_on=("s",))


def test_graph_rejects_duplicates_unknown_deps_and_cycles():
    with pytest.raises(ValueError, match="duplicate"):
        WorkflowGraph([Stage("a", SORT, 1), Stage("a", SORT, 1)])
    with pytest.raises(ValueError, match="unknown dependency"):
        WorkflowGraph([Stage("a", SORT, 1, depends_on=("ghost",))])
    with pytest.raises(ValueError, match="cycle"):
        WorkflowGraph([
            Stage("a", SORT, 1, depends_on=("b",)),
            Stage("b", SORT, 1, depends_on=("a",)),
        ])
    with pytest.raises(ValueError, match="at least one stage"):
        WorkflowGraph([])


def test_topological_order_respects_deps():
    order = [s.name for s in diamond().topological_order()]
    assert order.index("split") < order.index("encode")
    assert order.index("split") < order.index("index")
    assert order.index("merge") == 3


def test_roots_and_sinks():
    graph = diamond()
    assert graph.roots() == ["split"]
    assert graph.sinks() == ["merge"]


def test_critical_path_longest_chain():
    graph = diamond()
    durations = {"split": 10.0, "encode": 100.0, "index": 20.0, "merge": 5.0}
    path, length = graph.critical_path(durations)
    assert path == ["split", "encode", "merge"]
    assert length == pytest.approx(115.0)


def test_critical_path_requires_all_durations():
    with pytest.raises(ValueError, match="missing durations"):
        diamond().critical_path({"split": 1.0})


# --------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def platform():
    return ServerlessPlatform(AWS_LAMBDA, seed=111)


def test_unpacked_run_covers_all_stages(platform):
    result = WorkflowRunner(platform).run(diamond())
    assert set(result.outcomes) == {"split", "encode", "index", "merge"}
    assert all(o.packing_degree == 1 for o in result.outcomes.values())


def test_stage_timing_respects_barriers(platform):
    result = WorkflowRunner(platform).run(diamond())
    split = result.outcomes["split"]
    encode = result.outcomes["encode"]
    merge = result.outcomes["merge"]
    assert split.start_s == 0.0
    assert encode.start_s == pytest.approx(split.end_s)
    assert merge.start_s == pytest.approx(
        max(encode.end_s, result.outcomes["index"].end_s)
    )
    assert result.makespan_s == merge.end_s


def test_realized_critical_path(platform):
    result = WorkflowRunner(platform).run(diamond())
    path = result.critical_path()
    assert path[0] == "split" and path[-1] == "merge"
    assert path[1] in ("encode", "index")


def test_packed_workflow_is_faster_and_cheaper(platform):
    unpacked = WorkflowRunner(platform).run(diamond())
    packed = WorkflowRunner(platform, propack=ProPack(platform)).run(diamond())
    assert packed.makespan_s < unpacked.makespan_s
    assert packed.expense_usd < unpacked.expense_usd
    assert any(o.packing_degree > 1 for o in packed.outcomes.values())


def test_profiling_charged_once_per_app(platform):
    propack = ProPack(platform)
    # Two stages share STATELESS_COST: its profile must be charged once.
    result = WorkflowRunner(platform, propack=propack).run(diamond())
    profile_usd = sum(
        propack.interference_profile(app).overhead_usd
        for app in (STATELESS_COST, VIDEO, SORT)
    )
    assert result.profiling_overhead_usd == pytest.approx(profile_usd)


def test_single_stage_workflow(platform):
    graph = WorkflowGraph([Stage("only", SORT, 50)])
    result = WorkflowRunner(platform).run(graph)
    assert result.makespan_s == result.outcomes["only"].end_s
    assert result.critical_path() == ["only"]
