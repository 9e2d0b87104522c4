"""Event-core tests: dispatch order against a hand-derived ``(t, seq)``
trace, pooling mechanics, the fast lane, and the run() guards
(max_events exhaustion report, clock never moving backwards)."""

import pytest

from repro.sim import Simulator
from repro.sim.errors import SimulationError
from repro.sim.event import Event, Timeout, _PooledEvent


@pytest.mark.parametrize("kwargs", [{"pooled": True}, {"pooled": False}],
                         ids=["pooled", "legacy"])
def test_simulator_takes_no_core_selector(kwargs):
    """There is one event core: Simulator() takes no selector."""
    with pytest.raises(TypeError):
        Simulator(**kwargs)


# ---------------------------------------------------------------------------
# max_events exhaustion must report the *pending* event's time
# ---------------------------------------------------------------------------

def test_max_events_reports_pending_event_time():
    sim = Simulator()
    for t in (5.0, 10.0, 15.0):
        sim.timeout(t)
    with pytest.raises(SimulationError) as exc:
        sim.run(max_events=2)
    msg = str(exc.value)
    # Two events were processed; the third (t=15) is the one that the
    # budget refused — the report must carry *its* time, not the
    # previous step's clock.
    assert "2 events processed" in msg
    assert "t=15.000" in msg
    assert sim.now == 10.0


def test_max_events_budget_exactly_sufficient():
    sim = Simulator()
    for t in (1.0, 2.0):
        sim.timeout(t)
    sim.run(max_events=2)          # no error: the budget covers it
    assert sim.events_processed == 2
    assert sim.now == 2.0


# ---------------------------------------------------------------------------
# Dispatch order is the total order on (time, seq)
# ---------------------------------------------------------------------------

def _mixed_workload(sim, trace):
    """Ties, zero delays, resource-style wakeups — the order-sensitive
    shapes the fast lane and the entry pool must not reorder."""

    def worker(tag, delays):
        for i, d in enumerate(delays):
            yield sim.sleep(d)
            trace.append((sim.now, tag, i))

    sim.process(worker("a", [1.0, 0.0, 0.0, 2.0, 0.0]))
    sim.process(worker("b", [1.0, 0.0, 1.0, 1.0]))
    sim.process(worker("c", [0.0, 1.0, 0.0, 3.0]))
    sim.process(worker("d", [2.0, 0.0, 0.0, 0.0, 0.0]))


#: ``_mixed_workload`` dispatched in ``(time, seq)`` order, by hand.
#: Spawning takes seq 1-4 (the start kicks of a, b, c, d at t=0).  The
#: kicks schedule a@1 (seq 5), b@1 (6), c@0 (7), d@2 (8); c's seq 7
#: runs at t=0 and schedules c@1 (9).  At t=1 the heap holds seq 5, 6
#: and 9, and each zero delay they schedule (a:10, b:11, c:12) queues
#: behind them, so t=1 runs a b c a b c a, scheduling b@2 (14),
#: c@4 (15), a@3 (16).  At t=2 d (seq 8) precedes b (14), and d's
#: zero-delay chain (17, 19, 20, 21) lets b slip in after d's first
#: step.  At t=3 a (16) precedes b (18), which precedes a's zero-delay
#: step (23).  c's last step is alone at t=4.
EXPECTED_TRACE = [
    (0.0, "c", 0),
    (1.0, "a", 0), (1.0, "b", 0), (1.0, "c", 1),
    (1.0, "a", 1), (1.0, "b", 1), (1.0, "c", 2), (1.0, "a", 2),
    (2.0, "d", 0), (2.0, "b", 2), (2.0, "d", 1), (2.0, "d", 2),
    (2.0, "d", 3), (2.0, "d", 4),
    (3.0, "a", 3), (3.0, "b", 3), (3.0, "a", 4),
    (4.0, "c", 3),
]
#: 4 start kicks + 18 sleeps + 4 process completions.
EXPECTED_EVENTS = 26


def test_mixed_workload_dispatches_in_time_seq_order():
    sim = Simulator()
    trace = []
    _mixed_workload(sim, trace)
    sim.run()
    assert trace == EXPECTED_TRACE
    assert sim.events_processed == EXPECTED_EVENTS
    assert sim.now == 4.0


def test_stepping_matches_the_fast_loop():
    """step() and run()'s budgeted loop dispatch in the same order as
    the inlined drain loop."""
    sim = Simulator()
    trace = []
    _mixed_workload(sim, trace)
    while sim.pending:
        sim.step()
    assert trace == EXPECTED_TRACE
    sim = Simulator()
    trace = []
    _mixed_workload(sim, trace)
    sim.run(max_events=EXPECTED_EVENTS)
    assert trace == EXPECTED_TRACE


def test_lane_does_not_preempt_same_time_heap_entry():
    """A zero-delay event scheduled *while processing* t=5 must run
    after heap entries already queued for t=5 with smaller seq."""
    sim = Simulator()
    order = []
    a = sim.timeout(5.0)                       # seq 1, heap
    b = sim.timeout(5.0)                       # seq 2, heap

    def on_a(ev):
        order.append("a")
        c = sim.timeout(0.0)                   # seq 3, fast lane
        c.add_callback(lambda _: order.append("c"))

    a.add_callback(on_a)
    b.add_callback(lambda _: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


# ---------------------------------------------------------------------------
# Pooling mechanics
# ---------------------------------------------------------------------------

def test_sleep_events_are_recycled():
    sim = Simulator()
    ev1 = sim.sleep(1.0)
    assert type(ev1) is _PooledEvent
    sim.run()
    # The processed timer went back to the free list; the next sleep
    # must reuse the same object instead of allocating.
    ev2 = sim.sleep(1.0)
    assert ev2 is ev1


def test_public_factories_never_pool():
    sim = Simulator()
    to = sim.timeout(1.0, value=42)
    ev = sim.event("keep-me")
    assert type(to) is Timeout
    assert type(ev) is Event
    sim.run()
    # Safe to read after the run — public events are never recycled.
    assert to.value == 42
    assert not ev.triggered


def test_pooled_event_sole_waiter_slot_then_overflow():
    """First subscriber lands in the _cb slot; extras overflow to the
    list; all run in subscription order."""
    sim = Simulator()
    got = []
    ev = sim.sleep(1.0, value="v")
    ev.add_callback(lambda e: got.append(("first", e._value)))
    ev.add_callback(lambda e: got.append(("second", e._value)))
    sim.run()
    assert got == [("first", "v"), ("second", "v")]


# ---------------------------------------------------------------------------
# peek / pending with the fast lane
# ---------------------------------------------------------------------------

def test_peek_and_pending_see_the_lane():
    sim = Simulator()
    assert sim.pending == 0
    assert sim.peek() == float("inf")
    sim.timeout(3.0)
    assert sim.peek() == 3.0
    ev = sim.oneshot("grant")
    ev.succeed()                       # zero delay -> fast lane
    assert sim.pending == 2
    assert sim.peek() == 0.0           # the lane entry is at now
    sim.step()
    assert ev.processed
    assert sim.pending == 1
    assert sim.peek() == 3.0


# ---------------------------------------------------------------------------
# run(until=...)
# ---------------------------------------------------------------------------

def test_run_until_advances_clock():
    sim = Simulator()
    sim.timeout(2.0)
    sim.run(until=10.0)
    assert sim.now == 10.0
    assert sim.events_processed == 1


def test_run_until_in_the_past_with_pending_event_is_rejected():
    sim = Simulator()
    sim.timeout(10.0)
    sim.timeout(20.0)
    sim.run(until=12.0)
    assert sim.now == 12.0
    with pytest.raises(SimulationError, match="already at t=12.000"):
        sim.run(until=5.0)
    # Nothing moved: the clock stays put and t=20 is still pending.
    assert sim.now == 12.0
    assert sim.pending == 1
    assert sim.peek() == 20.0
    sim.run()
    assert sim.now == 20.0


def test_run_until_in_the_past_on_empty_queue_is_rejected():
    sim = Simulator()
    sim.timeout(10.0)
    sim.run()
    assert sim.now == 10.0
    with pytest.raises(SimulationError, match="cannot run until t=5.000"):
        sim.run(until=5.0)
    assert sim.now == 10.0


def test_run_until_now_is_a_no_op():
    sim = Simulator()
    sim.timeout(10.0)
    sim.run(until=4.0)
    sim.run(until=4.0)
    assert sim.now == 4.0
    assert sim.pending == 1
