"""Span arithmetic and the wrappers' install/restore discipline."""

import pytest

from bench.trace import Tracer, self_times, targets


def _self_times(spans):
    """spans: name -> (start, end, parent name or None)."""
    names = list(spans)
    starts = [spans[n][0] for n in names]
    ends = [spans[n][1] for n in names]
    parents = [names.index(spans[n][2]) if spans[n][2] else -1 for n in names]
    return dict(zip(names, self_times(starts, ends, parents)))


def test_self_time_subtracts_nested_and_adjacent_children():
    got = _self_times({
        "root": (0.0, 10.0, None),
        "left": (1.0, 3.0, "root"),     # adjacent to "right"
        "right": (3.0, 6.0, "root"),
        "inner": (1.5, 2.5, "left"),    # nested two levels down
        "leaf": (7.0, 7.0, "root"),     # zero-length child
    })
    assert got == pytest.approx({
        "root": 10.0 - 2.0 - 3.0,
        "left": 2.0 - 1.0,
        "right": 3.0,
        "inner": 1.0,
        "leaf": 0.0,
    })


def test_self_time_counts_overlapping_children_once():
    got = _self_times({
        "parent": (0.0, 4.0, None),
        "a": (1.0, 3.0, "parent"),
        "b": (2.0, 3.5, "parent"),
        "late": (3.8, 5.0, "parent"),   # clipped to the parent's end
    })
    assert got["parent"] == pytest.approx(4.0 - 2.5 - 0.2)


def test_aggregate_groups_calls_and_self_time_per_iteration():
    tracer = Tracer()
    outer, inner = tracer.intern("outer"), tracer.intern("inner")
    for iteration in (1, 2):
        tracer.iteration_id = iteration
        o = tracer.open(outer)
        for _ in range(iteration):
            tracer.close(tracer.open(inner))
        tracer.close(o)
    agg = tracer.aggregate()
    assert agg[1]["inner"][0] == 1 and agg[2]["inner"][0] == 2
    for iteration in (1, 2):
        calls, self_s, incl_s = agg[iteration]["outer"]
        assert calls == 1
        assert self_s == pytest.approx(incl_s - agg[iteration]["inner"][2])


def originals():
    """What each patched attribute is when no wrapper is installed."""
    return {(owner, attr): vars(owner)[attr] for owner, attr, _ in targets()}


def test_every_target_is_defined_on_the_class_it_names():
    for owner, attr, _ in targets():
        assert attr in vars(owner), f"{owner.__name__}.{attr}"


def test_wrappers_are_removed_even_after_an_error():
    before = originals()
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with tracer.installed():
            assert all(vars(o)[a] is not before[(o, a)] for o, a in before)
            raise RuntimeError("boom")
    assert all(vars(o)[a] is before[(o, a)] for o, a in before)
    assert tracer.patches == ()


def test_inherited_methods_are_refused():
    from repro.platform.invoker import BurstInvoker

    tracer = Tracer()
    with pytest.raises(TypeError, match="patch the defining class"):
        tracer._patch(BurstInvoker, "collect", "engine.collect")
    assert tracer.patches == ()


def test_span_file_round_trips(tmp_path):
    import gzip
    import json

    tracer = Tracer()
    tracer.iteration_id = 3
    idx = tracer.open(tracer.intern("only"))
    tracer.close(idx)
    path = tmp_path / "spans.jsonl.gz"
    tracer.write(str(path))
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        rows = [json.loads(line) for line in fh]
    assert header["names"] == ["only"]
    assert rows == [[-1, 3, 0, tracer.start[0], tracer.end[0]]]
