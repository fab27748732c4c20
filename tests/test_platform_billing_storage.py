"""Tests for billing and object-store accounting."""

import pytest

from repro.platform.billing import BillingModel
from repro.platform.metrics import InstanceRecord, RecordTable
from repro.platform.providers import AWS_LAMBDA, GOOGLE_CLOUD_FUNCTIONS
from repro.platform.storage import ObjectStore, StorageUsage
from repro.workloads import SORT, VIDEO


def make_record(exec_seconds=100.0, provisioned_mb=10240, n_packed=1):
    record = InstanceRecord(0, n_packed=n_packed, provisioned_mb=provisioned_mb)
    record.sched_done = 0.0
    record.built_at = 0.0
    record.shipped_at = 0.0
    record.exec_start = 0.0
    record.exec_end = exec_seconds
    return record


# --------------------------------------------------------------------- #
# BillingModel
# --------------------------------------------------------------------- #

def test_billed_memory_rounds_up_to_increment():
    billing = BillingModel(AWS_LAMBDA)
    assert billing.billed_memory_mb(1) == 128
    assert billing.billed_memory_mb(128) == 128
    assert billing.billed_memory_mb(129) == 256
    assert billing.billed_memory_mb(10240) == 10240


def test_billed_memory_rejects_nonpositive():
    with pytest.raises(ValueError):
        BillingModel(AWS_LAMBDA).billed_memory_mb(0)


def test_compute_expense_is_gb_seconds():
    billing = BillingModel(AWS_LAMBDA)
    record = make_record(exec_seconds=100.0, provisioned_mb=10240)
    expected = 100.0 * 10.0 * AWS_LAMBDA.gb_second_usd
    assert billing.instance_compute_usd(record) == pytest.approx(expected)


def test_burst_expense_line_items():
    billing = BillingModel(AWS_LAMBDA)
    records = [make_record() for _ in range(3)]
    storage = StorageUsage(put_requests=3, get_requests=3, transferred_mb=300.0)
    expense = billing.burst_expense(RecordTable.from_records(records), storage)
    assert expense.requests_usd == pytest.approx(3 * AWS_LAMBDA.per_request_usd)
    assert expense.storage_usd == pytest.approx(
        3 * AWS_LAMBDA.storage_put_usd + 3 * AWS_LAMBDA.storage_get_usd
    )
    assert expense.egress_usd == 0.0  # AWS charges no networking fee
    assert expense.total_usd == pytest.approx(
        expense.compute_usd + expense.requests_usd + expense.storage_usd
    )


def test_gcf_charges_egress():
    billing = BillingModel(GOOGLE_CLOUD_FUNCTIONS)
    storage = StorageUsage(put_requests=0, get_requests=0, transferred_mb=1024.0)
    expense = billing.burst_expense(RecordTable.from_records([]), storage)
    assert expense.egress_usd == pytest.approx(
        GOOGLE_CLOUD_FUNCTIONS.egress_usd_per_gb
    )


def test_scaling_delay_is_never_billed():
    """Two records with identical exec but wildly different queueing bill
    the same (the paper's core billing observation)."""
    billing = BillingModel(AWS_LAMBDA)
    fast = make_record(exec_seconds=50.0)
    slow = make_record(exec_seconds=50.0)
    slow.exec_start = 1000.0
    slow.exec_end = 1050.0
    assert billing.instance_compute_usd(fast) == pytest.approx(
        billing.instance_compute_usd(slow)
    )


# --------------------------------------------------------------------- #
# ObjectStore
# --------------------------------------------------------------------- #

def test_instance_io_requests_per_function():
    store = ObjectStore()
    usage = store.instance_io(SORT, n_packed=5)
    assert usage.put_requests == 5
    assert usage.get_requests == 5


def test_instance_io_shares_common_bytes():
    store = ObjectStore()
    solo = store.instance_io(VIDEO, n_packed=1)
    packed = store.instance_io(VIDEO, n_packed=4)
    # Shared fraction moves once; only private bytes multiply.
    assert solo.transferred_mb == pytest.approx(VIDEO.io_mb)
    expected = VIDEO.io_mb * VIDEO.io_shared_fraction + VIDEO.io_mb * (
        1 - VIDEO.io_shared_fraction
    ) * 4
    assert packed.transferred_mb == pytest.approx(expected)
    assert packed.transferred_mb < 4 * solo.transferred_mb


def test_record_instance_accumulates():
    store = ObjectStore()
    store.record_instance(SORT, 2)
    store.record_instance(SORT, 3)
    assert store.usage.put_requests == 5
    assert store.usage.get_requests == 5
    assert store.usage.transferred_mb > 0


def test_storage_usage_iadd():
    a = StorageUsage(1, 2, 3.0)
    a += StorageUsage(10, 20, 30.0)
    assert (a.put_requests, a.get_requests, a.transferred_mb) == (11, 22, 33.0)
