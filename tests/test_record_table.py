"""The columnar record store behind every burst result.

``RecordTable`` holds one numpy column per ``InstanceRecord`` field; the
burst statistics read those columns. These tests pin the round trip
records → table → records, and every column statistic against the
per-record formula it replaced (kept here as the reference). Sums in the
references are ``+=`` loops: builtin ``sum`` compensates its float
additions since Python 3.12, so it is not a left-to-right reference.
"""

import dataclasses
import functools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.metrics import (
    RECORD_FIELDS,
    InstanceRecord,
    RecordTable,
    RunResult,
    sequential_sum,
)
from repro.sim.stats import percentile

times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
maybe_times = st.none() | times

records_st = st.lists(
    st.builds(
        InstanceRecord,
        instance_id=st.integers(min_value=0, max_value=10**6),
        n_packed=st.integers(min_value=1, max_value=64),
        invoked_at=times,
        sched_done=maybe_times,
        built_at=maybe_times,
        shipped_at=maybe_times,
        exec_start=maybe_times,
        exec_end=maybe_times,
        provisioned_mb=st.sampled_from([128, 1000, 2048, 3008, 10240]),
        warm_start=st.booleans(),
        attempt=st.integers(min_value=1, max_value=5),
        failed=st.booleans(),
        timed_out=st.booleans(),
        correlated=st.booleans(),
        persistent_fault=st.booleans(),
        hedged=st.booleans(),
        cancelled=st.booleans(),
        throttled_attempts=st.integers(min_value=0, max_value=9),
        retry_delay_s=times,
    ),
    min_size=1,
    max_size=40,
)


# --------------------------------------------------------------------- #
# the per-record formulas the column statistics replaced
# --------------------------------------------------------------------- #
def _successful(records):
    return [r for r in records if not (r.failed or r.timed_out or r.cancelled)]


def _service_time(records, merit):
    ok = _successful(records)
    if not ok:
        raise ValueError("no instance completed successfully")
    ends = np.asarray([r.exec_end for r in ok], dtype=float)
    if merit == "total":
        return float(ends.max())
    return percentile(ends, 0.95 if merit == "tail" else 0.5)


def _scaling_time(records):
    return float(np.asarray([r.exec_start for r in records], dtype=float).max())


def _n_failed_attempts(records):
    return sum(1 for r in records if r.failed or r.timed_out)


def _observed_failure_rate(records):
    executed = [r for r in records if r.exec_start is not None]
    if not executed:
        return 0.0
    return _n_failed_attempts(records) / len(executed)


def _mean_exec_seconds(records):
    return float(np.mean([r.exec_seconds for r in records]))


def _function_hours(records):
    total = 0.0
    for r in records:
        total += r.exec_seconds
    return total / 3600.0


def _outcome(fn, *args):
    """``fn(*args)`` as a comparable value: its repr, or the error type."""
    try:
        return repr(fn(*args))
    except ValueError:
        return ValueError


def _columnar(records):
    """A result that holds only the table, so every read goes through it."""
    return RunResult("p", "a", len(records), 1, table=RecordTable.from_records(records))


# --------------------------------------------------------------------- #
@given(records=records_st)
@settings(max_examples=200, deadline=None)
def test_records_round_trip_through_the_table(records):
    table = RecordTable.from_records(records)
    assert len(table) == len(records)
    back = table.to_records()
    # repr tells None from NaN, bool from int and -0.0 from 0.0.
    assert repr(back) == repr(records)
    assert RecordTable.from_records(back) == table


@given(records=records_st)
@settings(max_examples=200, deadline=None)
def test_column_stats_equal_the_per_record_formulas(records):
    result = _columnar(records)
    for merit in ("total", "tail", "median"):
        assert _outcome(result.service_time, merit) == _outcome(
            _service_time, records, merit
        )
    assert result.n_instances == len(records)
    assert result.n_failed_attempts == _n_failed_attempts(records)
    assert repr(result.observed_failure_rate) == repr(_observed_failure_rate(records))
    assert _outcome(lambda: result.mean_exec_seconds) == _outcome(
        _mean_exec_seconds, records
    )
    assert _outcome(lambda: result.function_hours) == _outcome(
        _function_hours, records
    )
    if any(r.exec_start is None for r in records):
        with pytest.raises(ValueError, match="never started"):
            _ = result.scaling_time
    else:
        assert repr(result.scaling_time) == repr(_scaling_time(records))
    durations = [r.phase_durations() for r in records]
    for phase, seconds in result.table.phase_seconds().items():
        assert repr(seconds.tolist()) == repr(
            [d.get(phase, float("nan")) for d in durations]
        )
    assert repr(result.records) == repr(records)


def test_scaling_time_rejects_a_record_that_never_started():
    started = InstanceRecord(0, n_packed=1, exec_start=2.0, exec_end=3.0)
    never = InstanceRecord(7, n_packed=1)
    # The per-record formula silently returned NaN here.
    assert np.isnan(_scaling_time([started, never]))
    with pytest.raises(ValueError, match="instance 7 never started"):
        _ = _columnar([started, never]).scaling_time
    with pytest.raises(ValueError, match="instance 7 never executed"):
        _ = _columnar([started, never]).mean_exec_seconds


def test_empty_result():
    result = RunResult("p", "a", 1, 1)
    assert result.n_instances == 0
    assert result.records == []
    assert result.function_hours == 0.0
    assert result.n_failed_attempts == 0
    assert result.observed_failure_rate == 0.0
    with pytest.raises(ValueError):
        _ = result.scaling_time
    with pytest.raises(ValueError, match="no instance completed"):
        result.service_time()


@given(
    values=st.lists(st.floats(min_value=-1e300, max_value=1e300), max_size=60),
    start=st.floats(min_value=-1e9, max_value=1e9),
)
def test_sequential_sum_adds_left_to_right(values, start):
    expected = functools.reduce(operator.add, values, start)
    assert sequential_sum(np.array(values, dtype=float), start) == expected


def test_sequential_sum_is_not_pairwise():
    # 1e16 absorbs each 1.0 when added left to right; pairwise adds them up first.
    values = np.array([1e16] + [1.0] * 16)
    assert sequential_sum(values) == 1e16
    assert float(np.sum(values)) != 1e16


# --------------------------------------------------------------------- #
# the table as RunResult's one record store
# --------------------------------------------------------------------- #
def _record(i, **overrides):
    fields = dict(n_packed=1, sched_done=0.5, built_at=0.6, shipped_at=1.0,
                  exec_start=1.0, exec_end=2.0 + i, provisioned_mb=2048)
    fields.update(overrides)
    return InstanceRecord(i, **fields)


def test_one_column_per_record_field_read_only():
    table = RecordTable.from_records([_record(0), _record(1)])
    assert RECORD_FIELDS == tuple(f.name for f in dataclasses.fields(InstanceRecord))
    for name in RECORD_FIELDS:
        column = getattr(table, name)
        assert len(column) == 2
        assert not column.flags.writeable
    with pytest.raises(ValueError):
        table.exec_end[0] = 0.0
    with pytest.raises(ValueError, match="rows"):
        RecordTable(**{name: getattr(table, name)[:1] if name == "exec_end"
                       else getattr(table, name) for name in RECORD_FIELDS})


def test_records_view_is_built_once_and_kept():
    records = [_record(0), _record(1)]
    columnar = _columnar(records)
    assert columnar.records is columnar.records
    assert columnar.records == records


@pytest.mark.parametrize("name", RECORD_FIELDS)
def test_equality_sees_every_field_of_every_record(name):
    records = [_record(0), _record(1)]
    changed = [_record(0), _record(1)]
    value = getattr(changed[1], name)
    if isinstance(value, bool):
        value = not value
    elif value is None:
        value = 1.0
    else:
        value = value + 1
    setattr(changed[1], name, value)
    assert _columnar(records) == _columnar(list(records))
    assert _columnar(records) != _columnar(changed)


def test_equality_treats_unset_timestamps_alike():
    assert _columnar([_record(0, exec_end=None)]) == _columnar([_record(0, exec_end=None)])
    assert _columnar([_record(0, exec_end=None)]) != _columnar([_record(0)])


def test_replace_keeps_the_table():
    result = _columnar([_record(0), _record(1)])
    rebilled = dataclasses.replace(result, lost_functions=3)
    assert rebilled.table is result.table
    assert rebilled.records == result.records
    assert rebilled.lost_functions == 3
