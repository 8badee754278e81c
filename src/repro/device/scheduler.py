"""On-device job scheduling and multi-tenancy (Secs. 3, 11).

Two pieces:

* :class:`JobSchedule` — the JobScheduler-analogue periodic invocation
  policy (with jitter), which only fires when the device is eligible;
* :class:`ColumnScheduler` — "a simple worker queue for determining
  which training session to run next (we avoid running training sessions
  on-device in parallel because of their high resource consumption)"
  (Sec. 11 "Device Scheduling"), for a whole fleet as ``(rows x
  tenant-slot)`` arrays, so a sweep's worth of check-ins picks its
  sessions in one pass — and the one home of every device's memberships
  (``enroll`` / ``leave`` are what a tenant's attach and drain write) and
  of its per-tenant session tally; :class:`RowScheduler` is one device's
  view of it.  Its scalar reference, one queue object per device, is
  ``tests/reference/scheduler.py:MultiTenantScheduler``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bounds import check, interval, positive
from repro.sim import columns


@dataclass(frozen=True)
class JobSchedule:
    """Periodic FL-runtime job parameters."""

    base_interval_s: float = positive(default=3600.0)
    jitter_fraction: float = interval("[0, 1)", default=0.5)

    __post_init__ = check

    def delay_at(self, u: float) -> float:
        """The jittered job interval at uniform draw ``u`` in [0, 1)."""
        lo = self.base_interval_s * (1.0 - self.jitter_fraction)
        hi = self.base_interval_s * (1.0 + self.jitter_fraction)
        return lo + (hi - lo) * u

    def next_delay(self, rng: np.random.Generator) -> float:
        """Time until the next job invocation, jittered."""
        return self.delay_at(rng.random())


#: Valid worker-queue arbitration policies.
SCHEDULER_POLICIES = ("fifo", "fair_share")


#: A ``(row, tenant slot)`` cell that holds no queued session request —
#: and the membership position of a non-member.  Later than any clock
#: reading, so an ``argmin`` over stamps never picks it while anything is
#: queued, and small enough that a clock reading can be added to it.
_UNQUEUED = 1 << 62


class ColumnScheduler:
    """The worker queues of a whole fleet as ``(rows x tenant-slot)`` arrays.

    The law is one session at a time per device, coalescing requests,
    ``fifo`` or ``fair_share`` arbitration; its scalar reference is
    ``MultiTenantScheduler`` in ``tests/reference/scheduler.py``
    (``tests/device/test_column_scheduler.py`` drives both with the same
    operations).  What differs is the shape: a tenant name is a *slot*
    (a column, registered on first use and kept for good, so a drained
    tenant's recency record is still there when its name re-attaches), a
    device is a row, and :meth:`checkin` runs a whole sweep's check-ins —
    every membership enqueued, the next session picked — as one pass over
    the due rows.  :class:`RowScheduler` is one row's scalar view.

    Order needs no queue object: each row keeps a logical clock, a
    request is stamped with it when filed, a session with it when
    started.  ``fifo`` starts the smallest stamp; ``fair_share`` the
    smallest last-start among the queued (never-started first), stamps
    breaking ties.  One policy per fleet, as :class:`repro.system.config.
    FleetConfig` has it.
    """

    _ROW_COLUMNS: tuple[columns.Column, ...] = (
        # Tenant slot of the running session; -1 while the worker is free.
        ("_running", np.int32, -1),
        # The row's logical clock: the next stamp it hands out.
        ("_clock", np.int64, 0),
    )
    _SLOT_COLUMNS: tuple[columns.Column, ...] = (
        # Clock reading when the queued request was filed.
        ("_stamp", np.int64, _UNQUEUED),
        # Clock reading when the tenant's latest session started; -1 if
        # none has (the fair-share recency record).
        ("_last_started", np.int64, -1),
        # Position in the device's membership tuple (the order a check-in
        # files requests in).
        ("_member_pos", np.int64, _UNQUEUED),
        # Sessions of the tenant the device has started (configured for a
        # round) — ``device.health.sessions_by_population``.  A slot is
        # per name and never recycled, which is that record's key.
        ("_sessions", np.int32, 0),
    )

    def __init__(self, policy: str = "fifo", rows: int = 0) -> None:
        if policy not in SCHEDULER_POLICIES:
            raise ValueError(
                f"policy must be one of {SCHEDULER_POLICIES}, got {policy!r}"
            )
        self.policy = policy
        #: Slot -> tenant name, in registration order.
        self.tenants: list[str] = []
        self._slot_of: dict[str, int] = {}
        self.grow(rows)

    def grow(self, rows: int) -> None:
        """Make room for ``rows`` devices (existing rows keep their state)."""
        columns.resize(self, self._ROW_COLUMNS, (rows,))
        self._resize_slots(rows)

    def _resize_slots(self, rows: int) -> None:
        # Never zero slots wide: an argmin needs an axis to reduce.
        width = max(1, len(self.tenants))
        columns.resize(self, self._SLOT_COLUMNS, (rows, width))

    def slot(self, name: str) -> int:
        """``name``'s column, registered (and the arrays widened) on first use."""
        slot = self._slot_of.get(name)
        if slot is None:
            slot = self._slot_of[name] = len(self.tenants)
            self.tenants.append(name)
            self._resize_slots(self._running.size)
        return slot

    def enroll(self, rows: np.ndarray, name: str) -> None:
        """``rows``' devices (none a member yet) join ``name``, after the
        tenants they already belong to."""
        slot = self.slot(name)  # may widen the arrays
        self._member_pos[rows, slot] = self.membership_count(rows)

    def leave(self, rows: np.ndarray, name: str) -> None:
        """``rows``' devices leave ``name`` (a no-op for non-members): its
        queued request goes with the membership, the tenants behind it
        move up, the recency record stays."""
        slot = self._slot_of.get(name)
        if slot is None:
            return
        position = self._member_pos[rows]
        behind = (position > position[:, slot : slot + 1]) & (position != _UNQUEUED)
        position[behind] -= 1
        position[:, slot] = _UNQUEUED
        self._member_pos[rows] = position
        self._stamp[rows, slot] = _UNQUEUED

    def membership_count(self, rows: np.ndarray) -> np.ndarray:
        """How many tenants each of ``rows``' devices belongs to."""
        return np.count_nonzero(self._member_pos[rows] != _UNQUEUED, axis=1)

    # -- a sweep's worth of check-ins --------------------------------------------
    def free(self, rows: np.ndarray) -> np.ndarray:
        """Which of ``rows`` have no session running."""
        return self._running[rows] < 0

    def _filed(self, rows: np.ndarray, clock: np.ndarray) -> np.ndarray:
        """``rows``' queue stamps once every membership has filed a session
        request at ``clock``, in membership order: a member's request is
        stamped now, after everything queued; one already queued keeps its
        earlier stamp (coalescing), and a non-member's cell stays unqueued."""
        return np.minimum(
            self._stamp.take(rows, axis=0),
            clock[:, None] + self._member_pos.take(rows, axis=0),
        )

    def checkin(self, rows: np.ndarray) -> np.ndarray:
        """One check-in on each of ``rows`` — distinct, each with a free
        worker and at least one membership: every membership files a
        session request, in membership order, and the row's next session
        starts.  Returns its slot per row."""
        clock = self._clock[rows]
        stamp = self._filed(rows, clock)
        clock += stamp.shape[1]
        pick = self._pick(rows, stamp)
        self._stamp[rows] = stamp
        self._stamp[rows, pick] = _UNQUEUED
        self._last_started[rows, pick] = clock
        self._clock[rows] = clock + 1
        self._running[rows] = pick
        return pick

    def enqueue_rows(self, rows: np.ndarray) -> None:
        """A check-in on each of ``rows`` — distinct, each with a session
        running — that cannot start anything: every membership still files
        its request, the running tenant's coalescing into its session (as
        :meth:`RowScheduler.enqueue` has it)."""
        clock = self._clock[rows]
        stamp = self._filed(rows, clock)
        stamp[np.arange(rows.size), self._running[rows]] = _UNQUEUED
        self._stamp[rows] = stamp
        self._clock[rows] = clock + stamp.shape[1]

    def _pick(self, rows: np.ndarray, stamp: np.ndarray) -> np.ndarray:
        """The slot each row starts next, given its queue stamps (column 0
        where nothing is queued)."""
        if self.policy == "fair_share":
            recency = np.where(
                stamp == _UNQUEUED, _UNQUEUED, self._last_started.take(rows, axis=0)
            )
            stamp = np.where(
                recency == recency.min(axis=1, keepdims=True), stamp, _UNQUEUED
            )
        return stamp.argmin(axis=1)

    def abort_rows(self, rows: np.ndarray) -> None:
        """Abandon the running session of every row of ``rows``."""
        self._running[rows] = -1

    def occupied_by(self, rows: np.ndarray, name: str) -> bool:
        """Does any of ``rows`` run, or hold a queued request for, a
        session of ``name``?  (A drain's quiescence read.)"""
        slot = self._slot_of.get(name)
        return slot is not None and bool(
            np.any(self._running[rows] == slot)
            or np.any(self._stamp[rows, slot] != _UNQUEUED)
        )

    # -- the health record's per-tenant tally ------------------------------------
    def count_session(self, row: int, name: str) -> None:
        """``row``'s device was configured for a round of ``name``."""
        self._sessions[row, self.slot(name)] += 1

    def session_counts(self, rows: int) -> np.ndarray:
        """The tally of the first ``rows`` rows, ``(rows x tenant-slot)``."""
        return self._sessions[:rows]

    def sessions(self, row: int) -> dict[str, int]:
        """Sessions ``row``'s device has started, per tenant it has
        started any for."""
        counts = self._sessions[row].tolist()
        return {name: count for name, count in zip(self.tenants, counts) if count}


class RowScheduler:
    """One device's worker queue: row ``row`` of a :class:`ColumnScheduler`,
    behind the API of the scalar reference ``MultiTenantScheduler``
    (``tests/reference/scheduler.py``; the session path and the lifecycle
    plane call it per device)."""

    __slots__ = ("_columns", "_row")

    def __init__(self, scheduler: ColumnScheduler, row: int):
        self._columns = scheduler
        self._row = row

    @property
    def policy(self) -> str:
        return self._columns.policy

    @property
    def running(self) -> str | None:
        slot = self._columns._running.item(self._row)
        return self._columns.tenants[slot] if slot >= 0 else None

    @property
    def memberships(self) -> tuple[str, ...]:
        """The tenants the device belongs to, in attach order."""
        return tuple(self._ordered(self._columns._member_pos))

    @property
    def queue_depth(self) -> int:
        stamps = self._columns._stamp[self._row].tolist()
        return len(stamps) - stamps.count(_UNQUEUED)

    @property
    def queue(self) -> list[str]:
        """Queued tenants in the order their requests were filed."""
        return self._ordered(self._columns._stamp)

    def _ordered(self, column: np.ndarray) -> list[str]:
        """The tenants whose cell in this row of ``column`` is set, by
        ascending cell value."""
        values = column[self._row]
        tenants = self._columns.tenants
        return [
            tenants[slot]
            for slot in np.argsort(values, kind="stable").tolist()
            if values[slot] != _UNQUEUED
        ]

    def is_queued(self, population_name: str) -> bool:
        slot = self._columns._slot_of.get(population_name)
        return slot is not None and bool(
            self._columns._stamp[self._row, slot] != _UNQUEUED
        )

    def enqueue(self, population_name: str) -> bool:
        cols, row = self._columns, self._row
        slot = cols.slot(population_name)
        if cols._stamp[row, slot] != _UNQUEUED or cols._running[row] == slot:
            return False
        cols._stamp[row, slot] = cols._clock[row]
        cols._clock[row] += 1
        return True

    def try_start(self) -> str | None:
        cols, row = self._columns, self._row
        if cols._running[row] >= 0 or not self.queue_depth:
            return None
        slot = cols._pick(np.array([row]), cols._stamp[row : row + 1])[0]
        cols._stamp[row, slot] = _UNQUEUED
        cols._last_started[row, slot] = cols._clock[row]
        cols._clock[row] += 1
        cols._running[row] = slot
        return cols.tenants[slot]

    def finish(self, population_name: str) -> None:
        if self.running != population_name:
            raise RuntimeError(
                f"finish({population_name!r}) but running={self.running!r}"
            )
        self._columns._running[self._row] = -1

    def abort(self) -> str | None:
        running = self.running
        if running is not None:
            self._columns._running[self._row] = -1
        return running

    def remove(self, population_name: str) -> bool:
        queued = self.is_queued(population_name)
        if queued:
            self._columns._stamp[self._row, self._columns.slot(population_name)] = _UNQUEUED
        return queued
