"""Deterministic discrete-event loop.

The loop is the single source of time for the whole system.  Events fire in
``(time, sequence)`` order, so two events scheduled for the same instant fire
in the order they were scheduled — this makes every simulation run exactly
reproducible for a given seed.

The heap stores plain ``(time, seq, event)`` tuples so ordering comparisons
run at C speed (``seq`` is unique, so the ``event`` payload is never
compared).  Cancelled events are tracked with an O(1) live count, and the
heap is compacted once more than half of it is dead weight — pace steering
can cancel thousands of check-in timers per simulated day, and before
compaction those corpses survived on the heap (and made ``__len__`` an O(n)
scan) until their fire time came around.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0

#: Compact only when the heap is at least this large (tiny heaps aren't
#: worth the rebuild churn).
_COMPACT_MIN_SIZE = 64


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests (negative delay, time travel)."""


class Event:
    """A scheduled callback.  Returned by :meth:`EventLoop.schedule`."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_popped", "_loop")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple = (),
        loop: "EventLoop | None" = None,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._popped = False
        self._loop = loop

    def cancel(self) -> None:
        """Mark the event so the loop skips it when popped."""
        if not self.cancelled:
            self.cancelled = True
            if not self._popped and self._loop is not None:
                self._loop._on_cancelled(self)

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time}, seq={self.seq}{state})"


class EventLoop:
    """Min-heap discrete-event scheduler with simulated time.

    Example::

        loop = EventLoop()
        loop.schedule(5.0, print, "fires at t=5")
        loop.run()
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._cancelled_pending = 0
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def __len__(self) -> int:
        """Live (non-cancelled) scheduled events — O(1)."""
        return len(self._heap) - self._cancelled_pending

    @property
    def heap_size(self) -> int:
        """Heap entries including not-yet-collected cancelled events."""
        return len(self._heap)

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0:  # NaN fails it too; inf is a legal never
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, when: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated time ``when``."""
        if not when >= self._now:  # NaN fails it too; inf is a legal never
            raise SimulationError(
                f"cannot schedule at t={when} < now={self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(float(when), seq, fn, args, loop=self)
        heapq.heappush(self._heap, (event.time, seq, event))
        return event

    # -- cancellation bookkeeping --------------------------------------------
    def _on_cancelled(self, event: Event) -> None:
        self._cancelled_pending += 1
        if (
            self._cancelled_pending * 2 > len(self._heap)
            and len(self._heap) >= _COMPACT_MIN_SIZE
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify the survivors.

        Heap order is fully determined by the ``(time, seq)`` keys, so
        rebuilding cannot change the firing order of live events.  The
        list is mutated in place: ``run`` holds an alias to it.
        """
        self._heap[:] = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_pending = 0

    def step(self) -> bool:
        """Process the next pending event.  Returns False when none remain."""
        while self._heap:
            _, _, event = heapq.heappop(self._heap)
            event._popped = True
            if event.cancelled:
                self._cancelled_pending -= 1
                continue
            self._now = event.time
            self._events_processed += 1
            event.fn(*event.args)
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events until the heap drains, ``until`` is reached, or
        ``max_events`` have been processed.  Returns events processed.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fired earlier, so periodic samplers observe a
        consistent end time.
        """
        if until is not None and until != until:
            # No event time compares greater than NaN: a self-re-arming
            # event (any periodic sampler) would keep this running forever.
            raise SimulationError("cannot run until t=nan")
        processed = 0
        heap = self._heap
        while heap:
            when, _, event = heap[0]
            if event.cancelled:
                heapq.heappop(heap)
                event._popped = True
                self._cancelled_pending -= 1
                continue
            if until is not None and when > until:
                break
            if max_events is not None and processed >= max_events:
                return processed
            heapq.heappop(heap)
            event._popped = True
            self._now = when
            self._events_processed += 1
            event.fn(*event.args)
            processed += 1
        if until is not None and self._now < until:
            self._now = until
        return processed

    def run_for(self, duration: float, max_events: Optional[int] = None) -> int:
        """Run for ``duration`` simulated seconds from the current time."""
        if not duration >= 0:
            raise SimulationError(f"cannot run for {duration} seconds")
        return self.run(until=self._now + duration, max_events=max_events)


class Sweeper:
    """One heap entry driving a *batched* consumer (bucketed scheduling).

    A sweeper owns at most one live event at a time.  ``arm(when)`` keeps
    the earliest requested wake-up: arming later than the pending wake-up
    is free (the consumer re-arms after its sweep anyway), arming earlier
    replaces the pending event.  This is what lets a fleet-wide plane
    replace tens of thousands of per-device timers with one event per
    sweep boundary — the heap never holds more than one entry per sweeper.
    """

    __slots__ = ("_loop", "_fn", "_event")

    def __init__(self, loop: EventLoop, fn: Callable[[], Any]):
        self._loop = loop
        self._fn = fn
        self._event: Event | None = None

    @property
    def armed_at(self) -> float:
        """Simulated time of the pending wake-up (``inf`` when disarmed)."""
        return self._event.time if self._event is not None else float("inf")

    def arm(self, when: float) -> None:
        """Request a wake-up at ``when``; only the earliest request sticks.
        A NaN ``when`` is refused before the pending wake-up is touched."""
        when = max(float(when), self._loop.now)
        pending = self._event
        if pending is not None and pending.time <= when:
            return
        self._event = self._loop.schedule_at(when, self._fire)
        if pending is not None:
            pending.cancel()

    def disarm(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._fn()
