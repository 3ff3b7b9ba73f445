"""Tests for the event scheduler."""

import timeit

from hypothesis import given

from repro.check.fuzzing import scheduler_programs
from repro.netsim.clock import Scheduler


def test_events_fire_in_time_order():
    sched = Scheduler()
    fired = []
    sched.at(3.0, fired.append, "c")
    sched.at(1.0, fired.append, "a")
    sched.at(2.0, fired.append, "b")
    sched.run_until_idle()
    assert fired == ["a", "b", "c"]
    assert sched.now == 3.0


def test_ties_break_by_insertion_order():
    sched = Scheduler()
    fired = []
    for tag in "abc":
        sched.at(1.0, fired.append, tag)
    sched.run_until_idle()
    assert fired == ["a", "b", "c"]


def test_after_is_relative():
    sched = Scheduler()
    fired = []
    sched.at(5.0, lambda: sched.after(2.0, fired.append, "x"))
    sched.run_until_idle()
    assert fired == ["x"]
    assert sched.now == 7.0


def test_cancelled_events_do_not_fire():
    sched = Scheduler()
    fired = []
    event = sched.at(1.0, fired.append, "x")
    event.cancel()
    sched.run_until_idle()
    assert fired == []


def test_run_until_stops_clock_at_bound():
    sched = Scheduler()
    sched.at(10.0, lambda: None)
    sched.run(until=4.0)
    assert sched.now == 4.0
    sched.run(until=20.0)
    assert sched.now == 20.0
    assert sched.events_processed == 1


def test_past_events_clamp_to_now():
    sched = Scheduler()
    sched.at(5.0, lambda: None)
    sched.run_until_idle()
    times = []
    sched.at(1.0, lambda: times.append(sched.now))
    sched.run_until_idle()
    assert times == [5.0]


def test_events_scheduled_during_run_execute():
    sched = Scheduler()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sched.after(1.0, chain, n + 1)

    sched.at(0.0, chain, 0)
    sched.run_until_idle()
    assert fired == [0, 1, 2, 3, 4, 5]


def test_max_events_limit():
    sched = Scheduler()
    for i in range(10):
        sched.at(float(i), lambda: None)
    sched.run(max_events=3)
    assert sched.events_processed == 3


def test_daemon_events_do_not_keep_loop_alive():
    sched = Scheduler()
    fired = []

    def periodic():
        fired.append(sched.now)
        sched.after(10.0, periodic, daemon=True)

    sched.after(10.0, periodic, daemon=True)
    sched.at(25.0, lambda: None)  # the only non-daemon work
    sched.run_until_idle()
    # The daemon ticked while real work was pending, then the loop
    # stopped instead of ticking forever.
    assert fired == [10.0, 20.0]
    assert sched.now <= 25.0


def test_daemon_events_run_within_bounded_window():
    sched = Scheduler()
    ticks = []

    def periodic():
        ticks.append(sched.now)
        sched.after(1.0, periodic, daemon=True)

    sched.after(1.0, periodic, daemon=True)
    sched.run(until=5.5)
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]


# -- regressions first written for an earlier two-store scheduler -------
# (a timer wheel in front of a far-future heap); each pins a behaviour
# the single heap must keep.


def test_wheel_same_tick_preserves_insertion_order():
    """Close distinct times inserted in reverse order fire in time
    order; equal times tie-break by insertion."""
    sched = Scheduler()
    fired = []
    sched.at(1.0 + 0.75 / 64, fired.append, "late")
    sched.at(1.0 + 0.25 / 64, fired.append, "early")
    sched.at(1.0 + 0.25 / 64, fired.append, "early2")
    sched.run_until_idle()
    assert fired == ["early", "early2", "late"]


def test_wheel_callback_scheduling_within_current_tick():
    """A callback scheduling at the current time fires that event
    before the next already-queued one."""
    sched = Scheduler()
    fired = []

    def first():
        fired.append("first")
        sched.after(0.0, fired.append, "nested")

    sched.at(0.5, first)
    sched.at(0.5 + 1e-9, fired.append, "next")
    sched.run_until_idle()
    assert fired == ["first", "nested", "next"]


def test_wheel_far_future_events_fall_back_to_heap():
    """TIME_WAIT-scale and longer timers (beyond 128 s) interleave
    correctly with near ones."""
    sched = Scheduler()
    fired = []
    sched.at(500.0, fired.append, "d")
    sched.at(130.5, fired.append, "c")
    sched.at(0.5, fired.append, "a")
    sched.at(60.0, fired.append, "b")
    sched.run_until_idle()
    assert fired == ["a", "b", "c", "d"]
    assert sched.now == 500.0


def test_run_until_with_only_wheel_events_beyond_until():
    """run(until=) with only later events leaves the clock at until."""
    sched = Scheduler()
    fired = []
    sched.at(5.0, fired.append, "later")
    sched.run(until=1.0)
    assert sched.now == 1.0
    assert fired == []
    sched.run_until_idle()
    assert fired == ["later"]


def test_wheel_idle_jump_does_not_strand_cursor():
    """after() following a long idle run(until=) is relative to the
    new clock."""
    sched = Scheduler()
    fired = []
    sched.at(1.0, fired.append, "a")
    sched.run_until_idle()
    sched.run(until=1280.0)
    sched.after(1.0, fired.append, "b")
    sched.run_until_idle()
    assert fired == ["a", "b"]
    assert sched.now == 1281.0


# -- firing order against an independent model -------------------------


def _run_program(program) -> list:
    """Execute a :func:`scheduler_programs` program on the scheduler;
    returns the ``(time, tag)`` firing sequence (tag = scheduling
    order)."""
    sched = Scheduler()
    fired = []
    events = []

    def execute(ops):
        for op in ops:
            if op[0] == "cancel":
                if events:
                    events[op[1] % len(events)].cancel()
                continue
            kind, value, children = op
            schedule = sched.at if kind == "at" else sched.after
            events.append(schedule(value, fire, len(events), children))

    def fire(tag, children):
        fired.append((sched.now, tag))
        execute(children)

    execute(program)
    sched.run_until_idle()
    assert sched.pending() == 0
    return fired


def _reference_order(program) -> list:
    """The same program on an independent model: a plain list, the
    next event found by a linear (time, seq) minimum."""
    now = 0.0
    pending = []   # [time, seq, children, cancelled]
    events = []
    fired = []

    def execute(ops):
        for op in ops:
            if op[0] == "cancel":
                if events:
                    events[op[1] % len(events)][3] = True
                continue
            kind, value, children = op
            when = value if kind == "at" else now + max(0.0, value)
            entry = [max(when, now), len(events), children, False]
            events.append(entry)
            pending.append(entry)

    execute(program)
    while pending:
        entry = min(pending, key=lambda e: (e[0], e[1]))
        pending.remove(entry)
        if entry[3]:
            continue
        now = entry[0]
        fired.append((now, entry[1]))
        execute(entry[2])
    return fired


@given(scheduler_programs())
def test_scheduler_fires_in_reference_order(program):
    """Any mix of at/after/cancel calls, including calls made from
    inside callbacks, fires exactly the non-cancelled events in
    ``(time, seq)`` order."""
    fired = _run_program(program)
    assert fired == _reference_order(program)
    assert fired == sorted(fired)


# -- pending(): O(1) live counter --------------------------------------


def test_pending_counts_live_events_only():
    sched = Scheduler()
    events = [sched.at(float(i), lambda: None) for i in range(10)]
    assert sched.pending() == 10
    events[3].cancel()
    events[7].cancel()
    assert sched.pending() == 8
    events[3].cancel()  # double-cancel must not double-count
    assert sched.pending() == 8
    sched.run_until_idle()
    assert sched.pending() == 0


def test_cancel_after_fire_does_not_underflow_pending():
    sched = Scheduler()
    event = sched.at(1.0, lambda: None)
    sched.at(2.0, lambda: None)
    sched.run(until=1.5)
    assert sched.pending() == 1
    event.cancel()  # already fired: must be a no-op
    assert sched.pending() == 1
    sched.run_until_idle()
    assert sched.pending() == 0


def test_pending_is_o1_under_mass_cancellation():
    """pending() must not scan the heap: with 10k cancelled
    events still buried in it, a pending() call costs the same as
    with an almost-empty scheduler.  An O(heap) implementation is
    ~1000x slower here; the 20x bound leaves room for timer noise."""
    small = Scheduler()
    small.at(1.0, lambda: None)

    big = Scheduler()
    for event in [big.at(float(i % 97) + 1.0, lambda: None)
                  for i in range(10_000)]:
        event.cancel()
    big.at(1.0, lambda: None)
    assert big.pending() == 1

    calls = 2_000
    t_small = timeit.timeit(small.pending, number=calls)
    t_big = timeit.timeit(big.pending, number=calls)
    assert t_big < t_small * 20
