"""Campaign specs, grid expansion, and the run DAG."""

import pytest

from repro.harness import CampaignSpec, SweepStage, builtin_specs, plan_campaign
from repro.workflows.dag import TaskGraph


def _spec(**overrides):
    defaults = dict(
        name="camp",
        stages=(
            SweepStage(
                name="a",
                target="burst",
                params={"app": "sort", "packing_degree": 1},
                axes={"concurrency": (8, 16)},
                seeds=(1, 2),
            ),
            SweepStage(
                name="b",
                target="burst",
                params={"app": "sort", "packing_degree": 4, "concurrency": 8},
                seeds=(1,),
                depends_on=("a",),
            ),
        ),
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


# --------------------------------------------------------------------- #
# TaskGraph (the generic dependency substrate)
# --------------------------------------------------------------------- #
def test_task_graph_ready_tracks_completion():
    dag = TaskGraph(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])
    assert dag.ready([]) == ["a"]
    assert dag.ready(["a"]) == ["b"]
    assert dag.ready(["a", "b"]) == ["c"]
    assert dag.ready(["a", "b", "c"]) == []
    assert dag.roots() == ["a"] and dag.sinks() == ["c"]
    assert dag.dependencies("c") == ["a", "b"]


def test_task_graph_rejects_cycles_and_bad_edges():
    with pytest.raises(ValueError, match="cycle"):
        TaskGraph(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(ValueError, match="unknown dependency"):
        TaskGraph(["a"], [("ghost", "a")])
    with pytest.raises(ValueError, match="depend on itself"):
        TaskGraph(["a"], [("a", "a")])
    with pytest.raises(ValueError, match="duplicate"):
        TaskGraph(["a", "a"])


# --------------------------------------------------------------------- #
# Spec validation + serialization
# --------------------------------------------------------------------- #
def test_spec_counts_runs_and_round_trips_json():
    spec = _spec()
    assert spec.stages[0].n_runs == 4  # 2 concurrencies x 2 seeds
    assert spec.stages[1].n_runs == 1
    assert spec.n_runs == 5
    again = CampaignSpec.from_json(spec.to_json())
    assert again == spec


def test_spec_rejects_bad_shapes():
    with pytest.raises(ValueError, match="at least one stage"):
        CampaignSpec(name="x", stages=())
    with pytest.raises(ValueError, match="duplicate stage names"):
        _spec(stages=(_spec().stages[0], _spec().stages[0]))
    with pytest.raises(ValueError, match="unknown dependencies"):
        CampaignSpec(
            name="x",
            stages=(SweepStage(name="a", target="burst", depends_on=("ghost",)),),
        )
    with pytest.raises(ValueError, match="both a fixed param and an axis"):
        SweepStage(
            name="a",
            target="burst",
            params={"concurrency": 8},
            axes={"concurrency": (8, 16)},
        )
    with pytest.raises(ValueError, match="filesystem-safe"):
        CampaignSpec(name="bad/name", stages=_spec().stages)
    with pytest.raises(ValueError, match="at least one seed"):
        SweepStage(name="a", target="burst", seeds=())


def test_spec_rejects_a_dependency_cycle():
    with pytest.raises(ValueError, match="declared after it"):
        CampaignSpec(
            name="x",
            stages=(
                SweepStage(name="a", target="burst", depends_on=("b",)),
                SweepStage(name="b", target="burst", depends_on=("a",)),
            ),
        )


_STAGE = {"name": "a", "target": "burst", "axes": {"concurrency": [8, 16]}}


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"stages": [_STAGE]}, "'name'"),
        ({"name": "x", "stages": [{"name": "a"}]}, "'target'"),
        ({"name": "x", "stages": [{**_STAGE, "axes": {"concurrency": 16}}]},
         "concurrency"),
        ({"name": "x", "stages": [{**_STAGE, "seeds": [1.5]}]}, "seeds"),
        ({"name": "x", "stages": [{**_STAGE, "typo_axes": {}}]}, "typo_axes"),
    ],
    ids=["no-name", "no-target", "scalar-axis", "float-seed", "unknown-key"],
)
def test_from_dict_names_the_bad_field(payload, field):
    with pytest.raises(ValueError, match=field):
        CampaignSpec.from_dict(payload)


# --------------------------------------------------------------------- #
# Planning
# --------------------------------------------------------------------- #
def test_plan_expands_grid_with_barrier_dependencies():
    plan = plan_campaign(_spec())
    assert len(plan) == 5
    stage_a = plan.by_stage("a")
    [stage_b] = plan.by_stage("b")
    assert len(stage_a) == 4
    # Barrier: the b run depends on every a run.
    assert set(stage_b.depends_on) == {r.run_id for r in stage_a}
    # The DAG agrees and orders a before b.
    order = plan.dag.topological_order()
    assert order.index(stage_b.run_id) == len(order) - 1
    # Manifests resolved at plan time: full profile pinned in the config.
    assert stage_a[0].manifest.resolved_config["platform_profile"]["gb_second_usd"]


def test_plan_is_deterministic():
    a = plan_campaign(_spec())
    b = plan_campaign(_spec())
    assert [r.run_id for r in a.runs] == [r.run_id for r in b.runs]
    assert [r.manifest for r in a.runs] == [r.manifest for r in b.runs]


def test_plan_rejects_duplicate_grid_points():
    stage = SweepStage(
        name="a",
        target="burst",
        params={"app": "sort"},
        seeds=(1, 1),  # same seed twice -> same resolved run
    )
    with pytest.raises(ValueError, match="duplicate grid point"):
        plan_campaign(CampaignSpec(name="x", stages=(stage,)))


def test_plan_rejects_unknown_target():
    spec = CampaignSpec(
        name="x", stages=(SweepStage(name="a", target="no-such-target"),)
    )
    with pytest.raises(KeyError, match="unknown target"):
        plan_campaign(spec)


def test_builtin_specs_plan_cleanly():
    for name, spec in builtin_specs().items():
        plan = plan_campaign(spec)
        assert len(plan) == spec.n_runs, name
        assert spec.name == name
