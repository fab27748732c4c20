"""Tests for run records and burst-level metrics."""

import pytest

from repro.platform.metrics import (
    ExpenseBreakdown,
    InstanceRecord,
    RecordTable,
    RunResult,
)


def make_record(i, start, end, n_packed=1):
    r = InstanceRecord(i, n_packed=n_packed, provisioned_mb=10240)
    r.sched_done = start * 0.5
    r.built_at = start * 0.6
    r.shipped_at = start
    r.exec_start = start
    r.exec_end = end
    return r


def make_result(starts_ends, concurrency=None, degree=1):
    records = [make_record(i, s, e) for i, (s, e) in enumerate(starts_ends)]
    return RunResult(
        platform_name="test",
        app_name="app",
        concurrency=concurrency or len(records),
        packing_degree=degree,
        table=RecordTable.from_records(records),
    )


def test_scaling_time_is_last_start():
    result = make_result([(1.0, 5.0), (3.0, 4.0), (2.0, 9.0)])
    assert result.scaling_time == 3.0


def test_total_service_time_is_last_end():
    result = make_result([(1.0, 5.0), (3.0, 4.0), (2.0, 9.0)])
    assert result.service_time() == 9.0
    assert result.service_time("total") == 9.0


def test_tail_and_median_service_times():
    # 20 instances ending at 1..20.
    result = make_result([(0.0, float(i)) for i in range(1, 21)])
    assert result.service_time("tail") == 19.0   # ceil(0.95*20) = 19th end
    assert result.service_time("median") == 10.0


def test_unknown_merit_rejected():
    with pytest.raises(ValueError):
        make_result([(0.0, 1.0)]).service_time("p99")


def test_mean_exec_and_function_hours():
    result = make_result([(0.0, 3600.0), (0.0, 7200.0)])
    assert result.mean_exec_seconds == pytest.approx(5400.0)
    assert result.function_hours == pytest.approx(3.0)


def test_exec_seconds_requires_completion():
    record = InstanceRecord(0, n_packed=1)
    with pytest.raises(ValueError):
        _ = record.exec_seconds


def test_breakdown_means():
    result = make_result([(2.0, 3.0), (4.0, 5.0)])
    breakdown = result.breakdown()
    assert breakdown["scheduling"] == pytest.approx((1.0 + 2.0) / 2)
    assert set(breakdown) == {"scheduling", "startup", "shipping"}


def test_component_totals_are_maxima():
    result = make_result([(2.0, 3.0), (4.0, 5.0)])
    totals = result.component_totals()
    assert totals["scheduling"] == 2.0
    assert totals["startup"] == pytest.approx(2.4)
    assert totals["shipping"] == 4.0


def test_expense_breakdown_addition_and_total():
    a = ExpenseBreakdown(1.0, 2.0, 3.0, 4.0)
    b = ExpenseBreakdown(0.5, 0.5, 0.5, 0.5)
    c = a + b
    assert c.total_usd == pytest.approx(12.0)
    assert c.compute_usd == 1.5
