"""The scalar worker queue: one device's multi-tenant scheduler, kept as
the reference :class:`repro.device.scheduler.ColumnScheduler` is tested
against (``tests/device/test_column_scheduler.py``) and the scheduler
the per-row reference fleet of ``tests/sim/test_idle_sweep.py`` runs.
No fleet constructs it.
"""

from __future__ import annotations

from collections import deque

from repro.device.scheduler import SCHEDULER_POLICIES


class MultiTenantScheduler:
    """Worker queue over FL populations sharing one device.

    One session runs at a time; re-enqueueing an already-queued or running
    population is a no-op (coalescing, like JobScheduler).  Two
    arbitration policies decide who goes next when several populations are
    queued (Sec. 11 "Device Scheduling" leaves this open):

    * ``"fifo"`` (default) — strict enqueue order.  Because requests
      coalesce, a population already waiting cannot be overtaken, but the
      *order* requests arrive in — which on a real device follows the
      fixed membership enumeration order of each check-in — decides who
      leads every burst.
    * ``"fair_share"`` — round-robin by least-recently-started: among the
      queued populations, the one whose last session started longest ago
      (never-started first, enqueue order breaking ties) runs next,
      regardless of its position in the queue.  A chatty tenant that
      re-files a request the instant its session ends can no longer lead
      every burst; service alternates by construction.
    """

    def __init__(self, policy: str = "fifo") -> None:
        if policy not in SCHEDULER_POLICIES:
            raise ValueError(
                f"policy must be one of {SCHEDULER_POLICIES}, got {policy!r}"
            )
        self.policy = policy
        self._queue: deque[str] = deque()
        self._queued: set[str] = set()
        self._running: str | None = None
        #: population -> serial number of its most recent session start
        #: (the fair-share recency record).
        self._last_started: dict[str, int] = {}
        self._start_serial = 0
        self.sessions_completed = 0

    @property
    def running(self) -> str | None:
        return self._running

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def is_queued(self, population_name: str) -> bool:
        return population_name in self._queued

    def enqueue(self, population_name: str) -> bool:
        """Request a training session; returns False if coalesced."""
        if population_name in self._queued or population_name == self._running:
            return False
        self._queue.append(population_name)
        self._queued.add(population_name)
        return True

    def _pick(self) -> str:
        if self.policy == "fair_share":
            # Deque iteration is FIFO order, and min() keeps the first
            # minimum, so never-started populations (serial -1) win in
            # enqueue order before any recency comparison applies.
            population = min(
                self._queue, key=lambda p: self._last_started.get(p, -1)
            )
            self._queue.remove(population)
            return population
        return self._queue.popleft()

    def try_start(self) -> str | None:
        """Pop the next session if nothing is running."""
        if self._running is not None or not self._queue:
            return None
        population = self._pick()
        self._queued.discard(population)
        self._running = population
        self._start_serial += 1
        self._last_started[population] = self._start_serial
        return population

    def finish(self, population_name: str) -> None:
        if self._running != population_name:
            raise RuntimeError(
                f"finish({population_name!r}) but running={self._running!r}"
            )
        self._running = None
        self.sessions_completed += 1

    def abort(self) -> str | None:
        """Abandon the running session (eligibility lost)."""
        running, self._running = self._running, None
        return running

    def remove(self, population_name: str) -> bool:
        """Drop a population's queued session request (its membership was
        drained, or the request expired with its eligibility window).
        The fair-share recency record survives — expiry must not launder
        a chatty tenant back into never-started priority — and the caller
        tears down a *running* session separately.  Returns True when a
        queued request was dropped."""
        if population_name in self._queued:
            self._queued.discard(population_name)
            self._queue.remove(population_name)
            return True
        return False
