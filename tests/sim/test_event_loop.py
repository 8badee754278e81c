"""Event loop: ordering, cancellation, time semantics."""

import pytest

from repro.sim.event_loop import EventLoop, SimulationError


def test_events_fire_in_time_order():
    loop = EventLoop()
    fired = []
    loop.schedule(5.0, fired.append, "b")
    loop.schedule(1.0, fired.append, "a")
    loop.schedule(9.0, fired.append, "c")
    loop.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_in_schedule_order():
    loop = EventLoop()
    fired = []
    for i in range(10):
        loop.schedule(1.0, fired.append, i)
    loop.run()
    assert fired == list(range(10))


def test_now_advances_to_event_time():
    loop = EventLoop(start_time=100.0)
    seen = []
    loop.schedule(2.5, lambda: seen.append(loop.now))
    loop.run()
    assert seen == [102.5]
    assert loop.now == 102.5


def test_negative_delay_rejected():
    loop = EventLoop()
    with pytest.raises(SimulationError):
        loop.schedule(-1.0, lambda: None)


def test_schedule_at_past_rejected():
    loop = EventLoop(start_time=50.0)
    with pytest.raises(SimulationError):
        loop.schedule_at(49.9, lambda: None)


def test_cancelled_event_does_not_fire():
    loop = EventLoop()
    fired = []
    event = loop.schedule(1.0, fired.append, "x")
    loop.schedule(2.0, fired.append, "y")
    event.cancel()
    loop.run()
    assert fired == ["y"]


def test_run_until_stops_before_later_events():
    loop = EventLoop()
    fired = []
    loop.schedule(1.0, fired.append, "a")
    loop.schedule(10.0, fired.append, "b")
    loop.run(until=5.0)
    assert fired == ["a"]
    assert loop.now == 5.0  # clock advances to the horizon
    loop.run()
    assert fired == ["a", "b"]


def test_run_for_relative_horizon():
    loop = EventLoop(start_time=100.0)
    fired = []
    loop.schedule(3.0, fired.append, 1)
    loop.schedule(30.0, fired.append, 2)
    loop.run_for(5.0)
    assert fired == [1]
    assert loop.now == 105.0


def test_nan_horizon_is_refused_not_run_forever():
    """No event time compares greater than NaN: with a self-re-arming
    event on the heap (any periodic sampler) the run would never return.
    ``max_events`` is this test's timeout guard."""
    loop = EventLoop()

    def sampler():
        loop.schedule(1.0, sampler)

    loop.schedule(1.0, sampler)
    with pytest.raises(SimulationError, match="nan"):
        loop.run(until=float("nan"), max_events=1000)
    with pytest.raises(SimulationError, match="nan"):
        loop.run_for(float("nan"), max_events=1000)
    with pytest.raises(SimulationError, match="-1"):
        loop.run_for(-1.0, max_events=1000)
    assert loop.events_processed == 0 and loop.now == 0.0
    assert loop.run_for(0.0) == 0


def test_nan_event_time_is_refused_and_inf_taken():
    """A NaN time compares false both ways: accepted, it would fire ahead
    of earlier events and set ``now`` to NaN.  ``inf`` stays legal — a
    parked sweeper arms there."""
    from repro.sim.event_loop import Sweeper

    nan, inf = float("nan"), float("inf")
    loop = EventLoop()
    fired = []
    with pytest.raises(SimulationError, match="nan"):
        loop.schedule(nan, fired.append, "schedule")
    with pytest.raises(SimulationError, match="nan"):
        loop.schedule_at(nan, fired.append, "schedule_at")
    sweeper = Sweeper(loop, lambda: fired.append("sweep"))
    sweeper.arm(5.0)
    with pytest.raises(SimulationError, match="nan"):
        sweeper.arm(nan)
    assert sweeper.armed_at == 5.0 and len(loop) == 1
    loop.schedule(inf, fired.append, "never")
    loop.schedule_at(inf, fired.append, "never")
    parked = Sweeper(loop, lambda: fired.append("parked"))
    parked.arm(inf)
    assert parked.armed_at == inf
    loop.run(until=100.0)
    assert fired == ["sweep"] and loop.now == 100.0


def test_events_scheduled_during_run_are_processed():
    loop = EventLoop()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            loop.schedule(1.0, chain, n + 1)

    loop.schedule(0.0, chain, 0)
    loop.run()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert loop.now == 5.0


def test_max_events_bound():
    loop = EventLoop()
    for _ in range(100):
        loop.schedule(1.0, lambda: None)
    processed = loop.run(max_events=7)
    assert processed == 7
    assert len(loop) == 93


def test_len_excludes_cancelled():
    loop = EventLoop()
    e1 = loop.schedule(1.0, lambda: None)
    loop.schedule(2.0, lambda: None)
    e1.cancel()
    assert len(loop) == 1


def test_cancel_after_fire_is_harmless():
    loop = EventLoop()
    event = loop.schedule(1.0, lambda: None)
    loop.schedule(2.0, lambda: None)
    loop.run()
    event.cancel()   # fired long ago; must not corrupt the live count
    event.cancel()   # idempotent
    assert len(loop) == 0


def test_mass_cancellation_compacts_heap():
    """Cancelled events must not linger until their fire time: once they
    are the majority, the heap is compacted in place."""
    loop = EventLoop()
    keep = [loop.schedule(1e6 + i, lambda: None) for i in range(10)]
    doomed = [loop.schedule(2e6 + i, lambda: None) for i in range(1000)]
    assert loop.heap_size == 1010
    for event in doomed:
        event.cancel()
    assert len(loop) == 10          # O(1) live count
    # Corpses were dropped without being popped; only a sub-floor residue
    # (heaps smaller than the compaction minimum) may remain.
    assert loop.heap_size < 64
    del keep


def test_compaction_preserves_firing_order():
    loop = EventLoop()
    fired = []
    events = []
    for i in range(300):
        events.append(loop.schedule(float(i % 7) + 1.0, fired.append, i))
    cancelled = {i for i in range(300) if i % 3 != 0}
    for i in cancelled:
        events[i].cancel()
    loop.run()
    survivors = [i for i in range(300) if i not in cancelled]
    expected = sorted(survivors, key=lambda i: (float(i % 7) + 1.0, i))
    assert fired == expected


def test_small_heaps_are_not_compacted():
    loop = EventLoop()
    events = [loop.schedule(float(i) + 1.0, lambda: None) for i in range(10)]
    for event in events[:8]:
        event.cancel()
    assert len(loop) == 2
    assert loop.heap_size == 10  # below the compaction floor: left in place
    loop.run()
    assert len(loop) == 0 and loop.heap_size == 0


def test_cancel_during_run_keeps_count_consistent():
    loop = EventLoop()
    later = [loop.schedule(5.0 + i, lambda: None) for i in range(200)]

    def cancel_most():
        for event in later[:150]:
            event.cancel()

    loop.schedule(1.0, cancel_most)
    processed = loop.run()
    assert processed == 1 + 50
    assert len(loop) == 0


def test_events_processed_excludes_cancelled():
    loop = EventLoop()
    a = loop.schedule(1.0, lambda: None)
    loop.schedule(2.0, lambda: None)
    a.cancel()
    loop.run()
    assert loop.events_processed == 1


# ---------------------------------------------------------------------------
# Sweeper: one heap entry per batched consumer


def test_sweeper_keeps_only_earliest_wakeup():
    from repro.sim.event_loop import Sweeper

    loop = EventLoop()
    fired = []
    sweeper = Sweeper(loop, lambda: fired.append(loop.now))
    sweeper.arm(50.0)
    sweeper.arm(100.0)   # later: free no-op, the 50.0 wake-up stands
    assert sweeper.armed_at == 50.0
    sweeper.arm(10.0)    # earlier: replaces the pending entry
    assert sweeper.armed_at == 10.0
    assert len(loop) == 1  # never more than one live entry
    loop.run()
    assert fired == [10.0]


def test_sweeper_rearms_after_fire_and_disarms():
    from repro.sim.event_loop import Sweeper

    loop = EventLoop()
    fired = []

    def on_sweep():
        fired.append(loop.now)
        if len(fired) < 3:
            sweeper.arm(loop.now + 5.0)

    sweeper = Sweeper(loop, on_sweep)
    sweeper.arm(5.0)
    loop.run()
    assert fired == [5.0, 10.0, 15.0]
    assert sweeper.armed_at == float("inf")
    sweeper.arm(100.0)
    sweeper.disarm()
    loop.run()
    assert fired == [5.0, 10.0, 15.0]


def test_sweeper_never_arms_into_the_past():
    from repro.sim.event_loop import Sweeper

    loop = EventLoop()
    loop.schedule(10.0, lambda: None)
    loop.run()
    fired = []
    sweeper = Sweeper(loop, lambda: fired.append(loop.now))
    sweeper.arm(3.0)  # in the past: clamped to now
    loop.run()
    assert fired == [10.0]
