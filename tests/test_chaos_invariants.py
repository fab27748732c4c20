"""Unit tests for the shared invariant library (:mod:`repro.chaos.invariants`).

The planted-bug tests are the acceptance criterion: each check must catch
a deliberately corrupted input that the legacy inline asserts would have
missed (a dropped expense line item, an illegal breaker edge, an orphan
rollback), while passing clean on honest data.
"""

import dataclasses

import pytest

from repro.chaos import (
    Violation,
    assert_serving_invariants,
    burst_violations,
    check_admission_conservation,
    check_billed_vs_executed,
    check_breaker_transitions,
    check_expense_breakdown,
    check_monotonic_times,
    check_remediation_pairing,
    check_request_conservation,
    check_span_nesting,
    check_tenant_billing_attribution,
    check_tenant_conservation,
)
from repro.platform.base import ServerlessPlatform
from repro.platform.invoker import BurstSpec
from repro.platform.metrics import ExpenseBreakdown, RecordTable
from repro.platform.providers import AWS_LAMBDA
from repro.serving import DispatchRecord, QuantileDigest
from repro.workloads import SORT


class _Stub:
    def __init__(self, **kw):
        self.__dict__.update(kw)


# --------------------------------------------------------------------- #
# conservation
# --------------------------------------------------------------------- #
def test_admission_conservation_clean_and_broken():
    assert check_admission_conservation(_Stub(arrivals=10, admitted=7, shed=3)) == []
    broken = check_admission_conservation(_Stub(arrivals=10, admitted=7, shed=2))
    assert [v.invariant for v in broken] == ["admission-conservation"]


def test_request_conservation_clean_and_broken():
    clean = _Stub(n_requests=10, n_completed=6, n_shed=3, n_failed=1)
    assert check_request_conservation(clean) == []
    lost = _Stub(n_requests=10, n_completed=6, n_shed=3, n_failed=0)
    assert [v.invariant for v in check_request_conservation(lost)] == [
        "request-conservation"
    ]


# --------------------------------------------------------------------- #
# billing
# --------------------------------------------------------------------- #
def test_expense_breakdown_accepts_honest_ledger():
    expense = ExpenseBreakdown(
        compute_usd=1.0, requests_usd=0.2, storage_usd=0.05,
        egress_usd=0.1, keepalive_usd=0.3,
    )
    assert check_expense_breakdown(expense) == []
    assert check_expense_breakdown(expense, reported_total=expense.total_usd) == []


def test_expense_breakdown_catches_planted_accounting_bug():
    """The planted bug: a reported total that silently dropped the
    keepalive line item — exactly the class of error a refactor of the
    expense ledger could introduce."""
    expense = ExpenseBreakdown(
        compute_usd=1.0, requests_usd=0.2, storage_usd=0.05,
        egress_usd=0.1, keepalive_usd=0.3,
    )
    buggy_total = expense.total_usd - expense.keepalive_usd
    violations = check_expense_breakdown(expense, reported_total=buggy_total)
    assert [v.invariant for v in violations] == ["expense-breakdown"]
    assert "component sum" in violations[0].message


def test_expense_breakdown_rejects_negative_and_nonfinite_components():
    bad = ExpenseBreakdown(
        compute_usd=-0.5, requests_usd=float("nan"), storage_usd=0.0,
        egress_usd=0.0, keepalive_usd=0.0,
    )
    kinds = [v.invariant for v in check_expense_breakdown(bad)]
    assert kinds.count("expense-breakdown") == 2


def test_billed_vs_executed():
    assert check_billed_vs_executed(1.5, 1.2) == []
    assert check_billed_vs_executed(1.2, 1.2) == []
    broken = check_billed_vs_executed(1.0, 1.2, time=42.0)
    assert [v.invariant for v in broken] == ["billing-legality"]
    assert broken[0].time == 42.0


# --------------------------------------------------------------------- #
# state machines
# --------------------------------------------------------------------- #
def test_breaker_transitions_legal_chain():
    log = [
        (10.0, 0, "closed", "open"),
        (70.0, 0, "open", "half-open"),
        (75.0, 0, "half-open", "open"),
        (140.0, 0, "open", "half-open"),
        (145.0, 0, "half-open", "closed"),
        (20.0, 1, "closed", "open"),  # other domain chains independently
    ]
    assert check_breaker_transitions(sorted(log)) == []


def test_breaker_transitions_illegal_edge_and_broken_chain():
    # closed -> half-open is not a legal edge, and the second transition's
    # source does not match the domain's tracked state.
    log = [
        (10.0, 0, "closed", "half-open"),
        (20.0, 0, "closed", "open"),
    ]
    kinds = [v.invariant for v in check_breaker_transitions(log)]
    assert kinds == ["breaker-legality", "breaker-legality"]


def test_breaker_transitions_time_reversal():
    log = [
        (10.0, 0, "closed", "open"),
        (5.0, 0, "open", "half-open"),
    ]
    assert any(
        "backwards" in v.message for v in check_breaker_transitions(log)
    )


def test_remediation_pairing_clean():
    report = _Stub(
        applications=[(10.0, ("quarantine", 2)), (20.0, ("limit", 32))],
        rollbacks=[(30.0, ("release", 2), ("quarantine", 2))],
    )
    assert check_remediation_pairing(report) == []


def test_remediation_pairing_orphan_rollback():
    report = _Stub(
        applications=[(10.0, ("quarantine", 2))],
        rollbacks=[
            (30.0, ("release", 2), ("quarantine", 2)),
            (40.0, ("release", 2), ("quarantine", 2)),  # double rollback
        ],
    )
    violations = check_remediation_pairing(report)
    assert [v.invariant for v in violations] == ["remediation-pairing"]
    assert violations[0].time == 40.0


def test_remediation_pairing_rollback_before_apply():
    report = _Stub(
        applications=[(50.0, ("quarantine", 2))],
        rollbacks=[(30.0, ("release", 2), ("quarantine", 2))],
    )
    assert len(check_remediation_pairing(report)) == 1


# --------------------------------------------------------------------- #
# telemetry structure
# --------------------------------------------------------------------- #
def _span(span_id, start, end, parent_id=None):
    return _Stub(
        span_id=span_id, name=f"s{span_id}", start=start, end=end,
        parent_id=parent_id,
    )


def test_span_nesting_clean():
    tracer = _Stub(spans=[_span(1, 0.0, 10.0), _span(2, 2.0, 8.0, parent_id=1)])
    assert check_span_nesting(tracer) == []


def test_span_nesting_violations():
    tracer = _Stub(spans=[
        _span(1, 5.0, 3.0),                      # ends before it starts
        _span(2, 0.0, 1.0, parent_id=99),        # missing parent
        _span(3, 0.0, 10.0),
        _span(4, 1.0, 12.0, parent_id=3),        # escapes parent interval
    ])
    kinds = [v.invariant for v in check_span_nesting(tracer)]
    assert kinds == ["span-nesting"] * 3


def test_monotonic_times():
    assert check_monotonic_times([0.0, 1.0, 1.0, 2.0]) == []
    assert len(check_monotonic_times([0.0, 2.0, 1.0, 3.0, 2.5])) == 2


# --------------------------------------------------------------------- #
# the assert entry point
# --------------------------------------------------------------------- #
def _fake_result(**overrides):
    digest = QuantileDigest()
    digest.add(*[4.0] * 6)
    base = dict(
        n_requests=10, n_completed=6, n_shed=3, n_failed=1,
        resilience=_Stub(arrivals=10, admitted=7, shed=3),
        expense=ExpenseBreakdown(
            compute_usd=1.0, requests_usd=0.1, storage_usd=0.0,
            egress_usd=0.0, keepalive_usd=0.0,
        ),
        remediation=None,
        n_dispatches=2,
        dispatches=[
            DispatchRecord(0, 1.0, 5.0, "ok", 6, False, 1.5, 3.5),
            DispatchRecord(1, 2.0, 4.0, "crash", 1, True, 1.0, 1.0),
        ],
        digest=digest,
    )
    base.update(overrides)
    return _Stub(**base)


def test_assert_serving_invariants_passes_clean():
    assert_serving_invariants(_fake_result())


def test_assert_serving_invariants_raises_with_catalog():
    with pytest.raises(AssertionError, match="request-conservation"):
        assert_serving_invariants(_fake_result(n_failed=0))


def test_burst_violations_catch_planted_defects():
    """A real burst is clean; a record that ends before it starts, a lost
    first attempt, a negative bill line and a compute bill below the
    executed GB-seconds each show, and only they."""
    spec = BurstSpec(app=SORT, concurrency=60, packing_degree=4)
    result = ServerlessPlatform(AWS_LAMBDA, seed=3).run_burst(spec, repetition=0)
    price = AWS_LAMBDA.gb_second_usd
    assert burst_violations(spec, result, price) == []

    records = result.table.to_records()
    records[2].exec_end = records[2].exec_start - 1.0
    ends_early = dataclasses.replace(result, table=RecordTable.from_records(records))
    assert [v.invariant for v in burst_violations(spec, ends_early, price)] == [
        "burst-phase-order"
    ]
    one_short = dataclasses.replace(
        result, table=RecordTable.from_records(result.table.to_records()[1:])
    )
    assert [v.invariant for v in burst_violations(spec, one_short, price)] == [
        "burst-conservation", "burst-conservation"
    ]
    negative = dataclasses.replace(
        result, expense=dataclasses.replace(result.expense, storage_usd=-1.0)
    )
    assert [v.invariant for v in burst_violations(spec, negative, price)] == [
        "expense-breakdown"
    ]
    underbilled = dataclasses.replace(
        result,
        expense=dataclasses.replace(
            result.expense, compute_usd=result.expense.compute_usd * 0.99
        ),
    )
    assert [v.invariant for v in burst_violations(spec, underbilled, price)] == [
        "billing-legality"
    ]


def test_violation_str_is_readable():
    v = Violation("billing-legality", 12.5, "billed 1s < executed 2s")
    assert str(v) == "[billing-legality @ t=12.5] billed 1s < executed 2s"


# --------------------------------------------------------------------- #
# multi-tenant fleet fairness
# --------------------------------------------------------------------- #
def _account(tenant="a", submitted=10, admitted=7, rejected=3):
    return _Stub(
        tenant=tenant, submitted=submitted, admitted=admitted, rejected=rejected
    )


def test_tenant_conservation_clean_and_broken():
    assert check_tenant_conservation([_account(), _account(tenant="b")]) == []
    broken = check_tenant_conservation([_account(admitted=8)])
    assert len(broken) == 1
    assert broken[0].invariant == "tenant-conservation"
    negative = check_tenant_conservation([_account(rejected=-3, admitted=13)])
    assert any("negative" in v.message for v in negative)


def test_tenant_billing_attribution_clean_and_broken():
    bills = [_Stub(tenant="a", total_usd=0.75), _Stub(tenant="b", total_usd=0.25)]
    assert check_tenant_billing_attribution(1.0, bills) == []
    lost = check_tenant_billing_attribution(1.1, bills)
    assert len(lost) == 1 and lost[0].invariant == "billing-attribution"
    negative = check_tenant_billing_attribution(
        0.25, [_Stub(tenant="a", total_usd=-0.5), _Stub(tenant="b", total_usd=0.75)]
    )
    assert any("'a'" in v.message for v in negative)


def test_tenant_billing_attribution_tolerates_float_noise():
    bills = [_Stub(tenant="a", total_usd=0.1 + 0.2)]
    assert check_tenant_billing_attribution(0.3, bills) == []
