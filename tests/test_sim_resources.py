"""Unit tests for the FIFO and processor-sharing queueing resources."""

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.resources import FifoResource, ProcessorSharingResource


# --------------------------------------------------------------------- #
# FIFO multi-server queue
# --------------------------------------------------------------------- #

def test_fifo_single_server_serializes():
    sim = Simulator()
    fifo = FifoResource(sim, servers=1)
    done = []
    for i in range(3):
        fifo.submit(1.0, lambda i=i: done.append((i, sim.now)))
    sim.run()
    assert done == [(0, 1.0), (1, 2.0), (2, 3.0)]


def test_fifo_parallel_servers():
    sim = Simulator()
    fifo = FifoResource(sim, servers=2)
    done = []
    for i in range(4):
        fifo.submit(1.0, lambda i=i: done.append((i, sim.now)))
    sim.run()
    # Two run at once: finish times 1,1,2,2.
    assert [t for _, t in done] == [1.0, 1.0, 2.0, 2.0]


def test_fifo_order_preserved_with_unequal_work():
    sim = Simulator()
    fifo = FifoResource(sim, servers=1)
    done = []
    fifo.submit(5.0, lambda: done.append("long"))
    fifo.submit(0.1, lambda: done.append("short"))
    sim.run()
    assert done == ["long", "short"]  # FIFO: no overtaking


def test_fifo_busy_and_queue_counters():
    sim = Simulator()
    fifo = FifoResource(sim, servers=2)
    for _ in range(5):
        fifo.submit(1.0, lambda: None)
    assert fifo.busy_servers == 2
    assert fifo.queued_jobs == 3
    sim.run()
    assert fifo.busy_servers == 0
    assert fifo.queued_jobs == 0


def test_fifo_zero_work_completes_immediately():
    sim = Simulator()
    fifo = FifoResource(sim, servers=1)
    done = []
    fifo.submit(0.0, lambda: done.append(sim.now))
    sim.run()
    assert done == [0.0]


def test_fifo_rejects_negative_work():
    with pytest.raises(SimulationError):
        FifoResource(Simulator(), servers=1).submit(-1.0, lambda: None)


def test_fifo_rejects_zero_servers():
    with pytest.raises(SimulationError):
        FifoResource(Simulator(), servers=0)


def test_fifo_callback_args_passed_through():
    sim = Simulator()
    fifo = FifoResource(sim, servers=1)
    got = []
    fifo.submit(1.0, lambda a, b: got.append((a, b)), "x", 42)
    sim.run()
    assert got == [("x", 42)]


# --------------------------------------------------------------------- #
# Processor-sharing queue
# --------------------------------------------------------------------- #

def test_ps_single_job_runs_at_full_capacity():
    sim = Simulator()
    ps = ProcessorSharingResource(sim, capacity=2.0)
    done = []
    ps.submit(4.0, lambda: done.append(sim.now))
    sim.run()
    assert done == [pytest.approx(2.0)]


def test_ps_two_equal_jobs_share_capacity():
    sim = Simulator()
    ps = ProcessorSharingResource(sim, capacity=1.0)
    done = []
    ps.submit(1.0, lambda: done.append(sim.now))
    ps.submit(1.0, lambda: done.append(sim.now))
    sim.run()
    # Each gets half capacity: both finish at t=2.
    assert done == [pytest.approx(2.0), pytest.approx(2.0)]


def test_ps_unequal_jobs_finish_in_size_order():
    sim = Simulator()
    ps = ProcessorSharingResource(sim, capacity=1.0)
    done = []
    ps.submit(1.0, lambda: done.append(("small", sim.now)))
    ps.submit(3.0, lambda: done.append(("big", sim.now)))
    sim.run()
    # Shared until small leaves at t=2 (each got 1.0 of work), then big runs
    # alone for its remaining 2.0 → t=4.
    assert done[0] == ("small", pytest.approx(2.0))
    assert done[1] == ("big", pytest.approx(4.0))


def test_ps_late_arrival_shares_remaining():
    sim = Simulator()
    ps = ProcessorSharingResource(sim, capacity=1.0)
    done = []
    ps.submit(2.0, lambda: done.append(("first", sim.now)))
    sim.schedule(1.0, ps.submit, 2.0, lambda: done.append(("second", sim.now)))
    sim.run()
    # First runs alone [0,1] (1 unit done), then shares: needs 1 more at
    # rate 0.5 → finishes at 3. Second then runs alone: has 1 left → 4.
    assert done[0] == ("first", pytest.approx(3.0))
    assert done[1] == ("second", pytest.approx(4.0))


def test_ps_work_conservation_total_time():
    """Total completion time of the last job equals total work / capacity
    when the queue never idles."""
    sim = Simulator()
    ps = ProcessorSharingResource(sim, capacity=2.0)
    last = []
    works = [1.0, 2.0, 3.0, 4.0]
    for w in works:
        ps.submit(w, lambda: last.append(sim.now))
    sim.run()
    assert max(last) == pytest.approx(sum(works) / 2.0)


def test_ps_many_jobs_all_complete():
    sim = Simulator()
    ps = ProcessorSharingResource(sim, capacity=10.0)
    count = []
    for i in range(500):
        ps.submit(1.0 + (i % 7) * 0.1, lambda: count.append(1))
    sim.run()
    assert len(count) == 500
    assert ps.active_jobs == 0


def test_ps_zero_work_job():
    sim = Simulator()
    ps = ProcessorSharingResource(sim, capacity=1.0)
    done = []
    ps.submit(0.0, lambda: done.append(sim.now))
    sim.run()
    assert done == [pytest.approx(0.0)]


def test_ps_rejects_bad_capacity():
    with pytest.raises(SimulationError):
        ProcessorSharingResource(Simulator(), capacity=0.0)


def test_ps_rejects_negative_work():
    with pytest.raises(SimulationError):
        ProcessorSharingResource(Simulator(), capacity=1.0).submit(-1.0, lambda: None)


def test_ps_active_jobs_counter():
    sim = Simulator()
    ps = ProcessorSharingResource(sim, capacity=1.0)
    ps.submit(1.0, lambda: None)
    ps.submit(1.0, lambda: None)
    assert ps.active_jobs == 2
    sim.run()
    assert ps.active_jobs == 0
