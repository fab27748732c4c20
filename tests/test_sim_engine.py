"""Unit tests for the discrete-event engine."""

from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator


def test_initial_clock_is_zero():
    assert Simulator().now == 0.0


def test_events_run_in_time_order():
    sim = Simulator()
    hits = []
    sim.schedule(2.0, hits.append, "late")
    sim.schedule(1.0, hits.append, "early")
    sim.schedule(1.5, hits.append, "middle")
    sim.run()
    assert hits == ["early", "middle", "late"]


def test_ties_break_in_fifo_order():
    sim = Simulator()
    hits = []
    for i in range(10):
        sim.schedule(1.0, hits.append, i)
    sim.run()
    assert hits == list(range(10))


def test_clock_advances_to_last_event():
    sim = Simulator()
    sim.schedule(3.5, lambda: None)
    sim.run()
    assert sim.now == 3.5


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().schedule(-0.1, lambda: None)


def test_nan_delay_or_time_rejected():
    """A NaN time would run at an arbitrary point of the pop order (before
    this check, ``schedule(nan)`` then ``schedule(1.0)`` ran the NaN event
    first); both ways of scheduling reject it, as ``schedule_sorted`` does."""
    sim = Simulator()
    hits = []
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), hits.append, "nan")
    with pytest.raises(SimulationError):
        sim.schedule_at(float("nan"), hits.append, "nan")
    sim.schedule(1.0, hits.append, "one")
    sim.run()
    assert hits == ["one"] and sim.now == 1.0
    assert sim.events_processed == 1


def test_schedule_at_absolute_time():
    sim = Simulator()
    hits = []
    sim.schedule_at(4.0, hits.append, "x")
    sim.run()
    assert hits == ["x"] and sim.now == 4.0


def test_schedule_during_event_execution():
    sim = Simulator()
    hits = []

    def chain(n):
        hits.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert hits == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_cancelled_event_is_skipped():
    sim = Simulator()
    hits = []
    event = sim.schedule(1.0, hits.append, "cancel-me")
    sim.schedule(2.0, hits.append, "keep")
    event.cancel()
    sim.run()
    assert hits == ["keep"]


def test_step_returns_false_when_drained():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_events_processed_counter():
    sim = Simulator()
    for i in range(4):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 4


def test_run_not_reentrant():
    sim = Simulator()
    error = {}

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            error["raised"] = exc

    sim.schedule(1.0, reenter)
    sim.run()
    assert "raised" in error


def test_compaction_shrinks_heap_when_garbage_dominates():
    sim = Simulator()
    keep = 40
    doomed = [sim.schedule(1000.0 + i, lambda: None) for i in range(200)]
    for i in range(keep):
        sim.schedule(float(i), lambda: None)
    assert len(sim._heap) == 200 + keep
    for event in doomed:
        event.cancel()
    # Cancelling past half the agenda triggers in-place rebuilds, so the
    # garbage is bounded instead of lingering until pops reach it: at most
    # half of a floor-sized agenda can be dead at any point.
    assert len(sim._heap) <= keep + Simulator.COMPACT_MIN_EVENTS // 2
    assert sim._cancelled_live == len(sim._heap) - keep
    sim.run()
    assert sim.events_processed == keep


def test_compaction_preserves_order_and_events_processed():
    plain, compacted = [], []
    for hits in (plain, compacted):
        sim = Simulator()
        doomed = []
        for i in range(300):
            sim.schedule(float(i), hits.append, i)
            doomed.append(sim.schedule(float(i) + 0.5, hits.append, -i))
        if hits is compacted:
            for event in doomed:
                event.cancel()
        else:
            for event in doomed:
                event.cancelled = True  # bypass the compaction hook
        sim.run()
        assert sim.events_processed == 300  # executed events only
    assert plain == compacted == list(range(300))


def test_small_agenda_never_compacts():
    sim = Simulator()
    events = [sim.schedule(float(i), lambda: None) for i in range(10)]
    for event in events[:8]:
        event.cancel()
    # Below COMPACT_MIN_EVENTS the garbage stays until popped.
    assert len(sim._heap) == 10
    assert sim._cancelled_live == 8
    sim.run()
    assert sim.events_processed == 2


# --------------------------------------------------------------------- #
# schedule_sorted: a pre-sorted stream merged beside the heap
# --------------------------------------------------------------------- #

#: Times on a coarse grid, so the stream, pre-scheduled events and
#: zero-delay children tie often.
_GRID = st.integers(min_value=0, max_value=12)


#: Cursor moves of the stream, made by the callback of its entry ``k``:
#: each offset ``o`` seeks to entry ``k + 1 + o`` (clamped to the end), so
#: a list of several moves goes forward and back.
_MOVES = st.dictionaries(
    st.integers(min_value=0, max_value=24),
    st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=3),
    max_size=6,
)

#: Heap events that move the stream's cursor forward: at grid time ``g``,
#: to the ``o``-th entry due after the clock (or further on).
_SEEKERS = st.lists(
    st.tuples(_GRID, st.integers(min_value=0, max_value=4)), max_size=4
)


@given(
    stream=st.lists(_GRID, max_size=25).map(sorted),
    before=st.lists(_GRID, max_size=6),
    after=st.lists(_GRID, max_size=6),
    doomed=st.lists(_GRID, max_size=8),
    spawning=st.sets(st.integers(min_value=0, max_value=24)),
    moves=_MOVES,
    seekers=_SEEKERS,
)
@settings(max_examples=200, deadline=None)
def test_schedule_sorted_runs_as_if_scheduled_up_front(
    stream, before, after, doomed, spawning, moves, seekers,
):
    """A stream among heap events that tie with it, zero-delay children
    and cancelled events: every callback and clock reading, and the
    number of events run, must match scheduling each entry with
    ``schedule_at``.

    The stream's cursor moves (``seek_stream``), from its own entries and
    from heap events. Up front, an entry the moves skip is cancelled once
    the event that skipped it ends. Exactly the entries picked must run,
    each at its exact time, in ``(time, seq)`` order against the heap
    events."""

    def execute(up_front):
        sim = Simulator()
        # With no compaction floor, every cancellation past half the agenda
        # rebuilds the heap, also while the stream is pending.
        sim.COMPACT_MIN_EVENTS = 0
        log = []
        times = [g * 0.5 for g in stream]
        picked = [0]  # the stream's next entry

        def seek(index):
            picked[0] = index = min(index, len(times))
            if not up_front and times:  # an empty column has no handle
                sim.seek_stream(handle, index)

        def skip_from(start):
            # Up front, the entries this event's moves skipped never run.
            if up_front:
                for event in handle[start:picked[0]]:
                    event.cancel()

        def note(label):
            log.append((sim.now, label))

        def on_stream(t):
            k = picked[0]
            assert sim.now == t == times[k]
            picked[0] = k + 1
            log.append((sim.now, f"stream{k}@{t}"))
            if k in spawning:
                sim.schedule(0.0, note, f"child{k}")
            if k == 0:
                for event in victims:
                    event.cancel()
            for offset in moves.get(k, ()):
                seek(k + 1 + offset)
            skip_from(k + 1)

        def on_seeker(j, offset):
            start = picked[0]
            seek(max(start, bisect_right(times, sim.now) + offset))
            log.append((sim.now, f"seeker{j}->{picked[0]}"))
            skip_from(start)

        for k, g in enumerate(before):
            sim.schedule_at(g * 0.5, note, f"before{k}")
        if up_front:
            handle = [sim.schedule_at(t, on_stream, t) for t in times]
        else:
            handle = sim.schedule_sorted(times, on_stream)
        for k, g in enumerate(after):
            sim.schedule_at(g * 0.5, note, f"after{k}")
        for j, (g, offset) in enumerate(seekers):
            sim.schedule_at(g * 0.5, on_seeker, j, offset)
        victims = [
            sim.schedule_at(100.0 + g, note, f"doomed{k}") for k, g in enumerate(doomed)
        ]
        sim.run()
        return log, sim.events_processed

    assert execute(up_front=False) == execute(up_front=True)


def test_a_simulator_takes_one_stream():
    """A second ``schedule_sorted`` raises, also once the first stream ran
    out (a seek may revive it); so does a seek with another simulator's
    handle."""
    sim = Simulator()
    hits = []
    handle = sim.schedule_sorted([1.0, 2.0], hits.append)
    with pytest.raises(SimulationError):
        sim.schedule_sorted([1.5], hits.append)
    with pytest.raises(SimulationError):
        Simulator().seek_stream(handle, 1)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_sorted([3.0], hits.append)
    assert hits == [1.0, 2.0] and sim.events_processed == 2


def test_seek_stream_refuses_entries_that_ran_or_are_due_before_now():
    sim = Simulator()
    hits, errors = [], []

    def on_stream(t):
        hits.append(t)
        if t == 2.0:  # entry 1 is running: 0 and 1 ran, 2 and 3 did not
            for index in (1, 0, 5):
                with pytest.raises(SimulationError):
                    sim.seek_stream(handle, index)
            sim.seek_stream(handle, 3)  # skip entry 2
            sim.seek_stream(handle, 2)  # and take it back: it has not run

    def late_heap_event():
        sim.seek_stream(handle, 3)  # entry 2 (t=3.0) was skipped; 3 is at 4.0
        with pytest.raises(SimulationError):
            sim.seek_stream(handle, 2)  # due at 3.0, before the clock
        errors.append(sim.now)

    handle = sim.schedule_sorted([1.0, 2.0, 3.0, 4.0], on_stream)
    sim.schedule_at(2.5, sim.seek_stream, handle, 4)  # skips 2 and 3 for now
    sim.schedule_at(3.5, late_heap_event)
    sim.run()
    assert hits == [1.0, 2.0, 4.0] and errors == [3.5]
    assert sim.events_processed == 5


def test_a_seek_back_revives_a_stream_sought_to_its_end():
    sim = Simulator()
    hits = []

    def on_stream(t):
        hits.append((sim.now, t))
        if t == 1.0:
            sim.seek_stream(handle, 3)  # the end: nothing more runs...

    def seek_back():
        hits.append((sim.now, "seek"))
        sim.seek_stream(handle, 2)

    handle = sim.schedule_sorted([1.0, 2.0, 3.0], on_stream)
    sim.schedule_at(1.5, seek_back)  # ...until this
    sim.schedule_at(3.0, hits.append, (3.0, "heap"))
    sim.run()
    # Entry 1 never runs, and entry 2 keeps its sequence number, so it runs
    # before the heap event due at the same time.
    assert hits == [(1.0, 1.0), (1.5, "seek"), (3.0, 3.0), (3.0, "heap")]
    assert sim.events_processed == 4


def test_stream_entries_run_at_their_exact_time():
    """``schedule_at`` runs at ``now + (t - now)``, one ulp off ``t`` here;
    a stream entry runs at ``t``, also when a seek picked it."""
    sim = Simulator()
    seen = {}
    now, t = 0.541506936703373, 1.75736081650356

    def set_up():
        handle = sim.schedule_sorted([t, t], lambda when: seen.setdefault("stream", sim.now))
        sim.seek_stream(handle, 1)
        sim.schedule_at(t, lambda: seen.setdefault("heap", sim.now))

    sim.schedule_at(now, set_up)
    sim.run()
    assert seen == {"stream": t, "heap": 1.7573608165035601}
    assert seen["heap"] != t


def test_schedule_sorted_keeps_stream_entries_off_the_heap():
    sim = Simulator()
    depths = []

    def on_stream(t):
        depths.append(len(sim._heap))
        sim.schedule(0.5, lambda: depths.append(len(sim._heap)))

    sim.schedule_sorted([1.0, 1.0, 2.0, 3.0], on_stream)
    assert len(sim._heap) == 0
    sim.run()
    # Only the live children ever sit on the heap: the second arrival at
    # t=1 sees the first one's child, each child sees its pending siblings.
    assert depths == [0, 1, 1, 0, 0, 0, 0, 0]
    assert sim.events_processed == 8


def test_schedule_sorted_rejects_decreasing_times():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_sorted([1.0, 3.0, 2.0], lambda t: None)
    assert sim.step() is False


def test_schedule_sorted_rejects_a_start_in_the_past():
    sim = Simulator()
    sim.schedule(2.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_sorted([1.5, 3.0], lambda t: None)
    hits = []
    sim.schedule_sorted([2.0, 3.0], hits.append)  # starting at now is fine
    sim.run()
    assert hits == [2.0, 3.0]


def test_schedule_sorted_empty_is_a_no_op():
    sim = Simulator()
    sim.schedule_sorted([], lambda t: None)
    assert sim.step() is False
    assert sim.schedule(1.0, lambda: None).seq == 0
