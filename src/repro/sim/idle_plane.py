"""Vectorized idle-device plane: the fleet's idle majority as numpy rows.

The paper's populations are millions of devices of which, at any moment,
the overwhelming majority are idle — merely flipping eligibility or
counting down to a check-in.  Simulating that majority as full actors
costs one timer (plus cancel churn) per device per transition; this
module instead keeps every device as a row — Lo et al.'s *client
registry* — of fleet-wide arrays: its eligibility and next flip, its
next check-in and pace-steering window, whether it is in a session and,
while WAITING, at which Selector since when (Sec. 4.2's Selector pool is
those plus a small ``(selector, tenant-slot)`` count array), what a
Selector's screen reads of it, its profile and link (from which a
``DeviceProfile`` / ``NetworkConditions`` is built on read) and its
record (Sec. 5's health counters: ``device.health``, ``device.eligible``
and ``device.state`` read them, a ``DeviceActor`` keeps no copy).  Its
on-device worker queue (Sec. 11) is its row of a
:class:`~repro.device.scheduler.ColumnScheduler`.

A sweep reads and writes, for each due row, the eleven fields of
:attr:`VectorizedIdlePlane._RECORD` — its flip, check-in and window
times, time zone, stream key and counter, check-in tally, Selector,
eligibility, session and membership flags — so they are one 64-byte,
cache-line-aligned record per row (:func:`repro.sim.columns.resize`),
and each attribute a view of its field.  The one exception is
``_next_event_t``, the earlier of a row's next flip and check-in: the
due scan and the re-arm read all of it every sweep, so it is a
contiguous column of its own, as is everything a sweep does not touch
(:attr:`VectorizedIdlePlane._COLUMNS`).

The plane advances by batched sweeps: one :class:`~repro.sim.event_loop.
Sweeper` event per sweep boundary (the earliest pending transition
fleet-wide) instead of one timer per device.  Within a sweep, due
*flips* are processed before due *check-ins*, so a device that loses
eligibility exactly at a sweep boundary never checks in at that instant.

A sweep's check-ins are array work end to end: the worker queues pick
each due row's session, the row's pick draw resolves its Selector, and
each Selector gives one admission verdict per (selector, tenant) group —
the only time a check-in is judged.  A bounced row is pace-steered by
vector writes; an admitted row WAITs, as columns, at its Selector, which
offers it to a round (:meth:`repro.actors.selector.Selector.admitted`).
Every way out of WAITING but selection — its deadline, a flip to
ineligible, a Selector crash, a drain, a round that is full — is vector
writes too.  A device is a :class:`~repro.device.actor.DeviceActor` only
from when a round takes its row to when its session ends and the actor
hands the row back (:mod:`repro.device.table`).  Determinism: every draw
a device makes *while the plane owns it* (initial eligibility, flip
resample, first check-in stagger, wake jitter, selector pick,
pace-window sample, every hang-up's delay) comes from its counter-keyed
row stream (:class:`repro.sim.rng.RowDraws`), a whole batch of rows per
call — the same seed yields a byte-identical run — and its session
stream serves its sessions only.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from operator import index as as_index
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.device.actor import DeviceHealthStats, DeviceState
from repro.device.scheduler import ColumnScheduler, JobSchedule
from repro.device.table import DeviceTable
from repro.sim import columns
from repro.sim.diurnal import DiurnalModel, sample_transitions
from repro.sim.event_loop import SECONDS_PER_HOUR, EventLoop, Sweeper
from repro.sim.network import NetworkConditions
from repro.sim.population import DeviceProfile
from repro.sim.rng import RowDraws

if TYPE_CHECKING:
    from repro.actors.kernel import Actor, ActorRef
    from repro.device.actor import DeviceActor
    from repro.device.attestation import AttestationService

_INF = float("inf")

#: Seconds (uniform) before a row whose Selector's stream broke — a crash,
#: or a retired route — tries again.
RESET_RETRY_S = (30.0, 180.0)
#: Seconds (uniform) a row that wakes with no pace window pending waits
#: before it checks in, and the least first-check-in stagger (at fleet
#: start and at an attach's kick: uniform up to the row's job interval).
WAKE_JITTER_S = (1.0, 120.0)
FIRST_CHECKIN_MIN_S = 1.0
#: Rows a fleet start draws for at a time.
START_CHUNK_ROWS = 4096

#: The column that holds each :class:`DeviceProfile` field, in field order,
#: and each :class:`NetworkConditions` field.
_PROFILE_COLUMNS = tuple(f"_{name}" for name in DeviceProfile._fields)
_LINK_COLUMNS = ("_downlink_bytes_per_s", "_uplink_bytes_per_s", "_rtt_s")


class VectorizedIdlePlane:
    """Fleet-wide vectorized idle state, advanced by batched sweeps.

    ``sweep_interval_s`` quantizes sweep boundaries: transitions fire at
    the next multiple of it at-or-after their exact sampled time (never
    early).  Coarser buckets batch more devices per sweep — one loop
    event and one array scan amortized over all of them — at the cost of
    up to one bucket of added latency per idle transition, which is
    negligible against the hour-scale idle dynamics.  Set it to ``0`` for
    exact-time sweeps (one sweep per distinct transition time).

    The plane runs the device side of a check-in for every idle row, so
    it is handed what that needs of the fleet: ``selectors`` (the live
    Selector list — a respawn swaps refs in place), ``actor_of`` (a
    Selector ref's live actor, ``None`` once crashed), the
    ``shard_router`` (``None``: every Selector serves every tenant), the
    ``attestation`` service, the on-device ``scheduler_policy``, the
    ``job`` a hang-up waits out and the ``waiting_timeout_s`` after which
    a WAITING row hangs up.  ``devices`` is the fleet's
    :class:`~repro.device.table.DeviceTable`: :meth:`forward` builds a
    row's ``DeviceActor``, :meth:`session_ended` drops it, and so does a
    hang-up first (:meth:`release`).  Without one the plane keeps a table
    of its own, of the hand-built devices seated in it.
    """

    #: The fields a sweep touches for each due row: one 64-byte record per
    #: row (63 bytes used; widest first, so each field is aligned).
    #: ``next_checkin_t`` is ``inf`` while ineligible, membership-less or
    #: in a session, a WAITING row's hang-up deadline; ``_waiting_at`` a
    #: WAITING row's Selector index (``len(selectors)`` — nowhere — once
    #: forwarded, or when its check-in was lost on the way), else -1.
    _RECORD: tuple[columns.Column, ...] = (
        ("next_flip_t", np.float64, _INF),
        ("next_checkin_t", np.float64, _INF),
        ("pending_window_t", np.float64, -_INF),
        ("_tz_offset_hours", np.float64, 0.0),
        ("_row_key", np.uint64, 0),
        ("_draw_count", np.uint64, 0),
        ("_health_checkins", np.int64, 0),
        ("_waiting_at", np.int32, -1),
        ("eligible", np.bool_, False),
        ("active", np.bool_, False),
        ("_has_memberships", np.bool_, False),
    )
    #: The other per-row arrays, one column each.  Construction and growth
    #: size both tables through :func:`repro.sim.columns.resize`.
    _COLUMNS: tuple[columns.Column, ...] = (
        # min(next_flip_t, next_checkin_t) per row, kept on every write.
        ("_next_event_t", np.float64, _INF),
        # When a WAITING row connected.
        ("connected_at_s", np.float64, 0.0),
        # The device's profile, a column per ``DeviceProfile`` field (the
        # time zone's is in the record): a Selector's screen reads the
        # runtime version — the profile's own column, not a copy.
        ("_device_id", np.int64, 0),
        ("_speed_factor", np.float64, 0.0),
        ("_memory_mb", np.int64, 0),
        ("_os_version", np.int64, 0),
        ("_runtime_version", np.int64, 0),
        ("_genuine", np.bool_, False),
        # The device's job cadence (its first check-in is staggered over it).
        ("_job_interval_s", np.float64, 0.0),
        # Attestation verdict per device, from its enrollment's token
        # round: the verdict is deterministic per device, so no check-in
        # pays the hashing again.
        ("_attestation_ok", np.bool_, False),
        # The device's link, sampled once per device: its
        # ``NetworkConditions`` is built from these when it is constructed.
        ("_downlink_bytes_per_s", np.float64, 0.0),
        ("_uplink_bytes_per_s", np.float64, 0.0),
        ("_rtt_s", np.float64, 0.0),
        # The rest of its health record (the per-tenant session tally is
        # the scheduler's): training time, upload failures retried, and
        # sessions dropped for them.
        ("train_seconds", np.float64, 0.0),
        ("upload_retries", np.int32, 0),
        ("upload_retries_exhausted", np.int32, 0),
    )

    def __init__(
        self,
        loop: EventLoop,
        draws: RowDraws,
        diurnal: DiurnalModel,
        selectors: list["ActorRef"],
        actor_of: Callable[["ActorRef"], "Actor | None"],
        attestation: "AttestationService",
        shard_router=None,  # system.sharding.ShardRouter; None = unsharded
        scheduler_policy: str = "fifo",
        capacity: int = 0,
        sweep_interval_s: float = 15.0,
        devices: DeviceTable | None = None,
        job: JobSchedule | None = None,
        waiting_timeout_s: float = 1800.0,
    ):
        self._loop = loop
        self._draws = draws
        #: The availability law every row flips under (one per fleet).
        self._diurnal = diurnal
        self._selectors = selectors
        self._actor_of = actor_of
        self._attestation = attestation
        self._shard_router = shard_router
        self._sweeper = Sweeper(loop, self._sweep)
        self.sweep_interval_s = float(sweep_interval_s)
        self._resize(int(capacity))
        #: The on-device worker queue (Sec. 11) of every row.
        self.scheduler = ColumnScheduler(scheduler_policy, rows=int(capacity))
        #: Per tenant slot of the scheduler: the indices into ``selectors``
        #: of the Selectors that serve it, and how many there are.
        self._pools: list[tuple[int, ...]] = []
        self._pool_size = np.zeros(0)
        #: WAITING rows per ``(selector, tenant slot)``; the last row is
        #: nowhere's.  Sized with the pools.
        self._waiting = np.zeros((1, 0), np.int64)
        self._job = job or JobSchedule()
        self.waiting_timeout_s = float(waiting_timeout_s)
        #: ``count -> lost mask``, drawn for every batch of check-ins a
        #: Selector admits (the fault plane's message drops), or ``None``.
        self.checkin_fault: Callable[[int], np.ndarray] | None = None
        self._devices = devices if devices is not None else DeviceTable()
        #: Rows ``[0, _started)`` have drawn their initial eligibility;
        #: the sweep armed by :meth:`start` starts those up to ``_start_to``
        #: ``START_CHUNK_ROWS`` at a time.
        self._started = self._start_to = 0
        #: True while a sweep is running: per-device touches skip re-arming
        #: the sweeper (the sweep's final rearm covers them all at once).
        self._sweeping = False
        #: Census tallies, kept by the writes that change them so that
        #: telemetry never recounts the fleet-sized arrays.  (An active
        #: row is always eligible: losing eligibility hands it back.)
        self._eligible_count = 0
        self._active_count = 0
        #: Session errors by reason, fleet-wide (no reader wants them per
        #: device).
        self.errors_by_reason: Counter[str] = Counter()
        # -- counters (observability; see ROADMAP.md "Performance") ----------
        self.sweeps = 0
        self.flips = 0
        self.checkins_dispatched = 0
        self.checkins_fast_rejected = 0
        #: Admitted check-ins: rows that began to WAIT.
        self.materializations = 0

    # -- enrollment ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._devices)

    def adopt_rows(
        self,
        profiles: Mapping[str, Sequence],
        job_interval_s: float,
        links: tuple[Sequence[float], Sequence[float], Sequence[float]],
    ) -> None:
        """Enroll one row per device, none with a device object yet:
        everything the plane needs of an idle device, as column writes.
        ``profiles`` holds one sequence per :class:`DeviceProfile` field,
        keyed by its name (what :func:`~repro.sim.population.
        build_population` draws); ``links`` is each row's ``(downlink,
        uplink, rtt)``, as :meth:`~repro.sim.network.NetworkModel.
        sample_conditions_batch` draws them."""
        first = len(self._devices)
        stop = first + len(profiles["device_id"])
        if stop > self.next_flip_t.size:
            self._grow(stop)
        self._devices.extend(stop - first)
        rows = slice(first, stop)
        for name, column in zip(DeviceProfile._fields, _PROFILE_COLUMNS):
            getattr(self, column)[rows] = profiles[name]
        for column, values in zip(_LINK_COLUMNS, links):
            getattr(self, column)[rows] = values
        device_ids = self._device_id[rows]
        self._row_key[rows] = self._draws.keys(device_ids)
        self._job_interval_s[rows] = job_interval_s
        # One real token round per device, at enrollment: the verdict is
        # deterministic, so every screen reads it instead of re-hashing.
        self._attestation_ok[rows] = self._attestation.attest(
            device_ids.tolist(), self._genuine[rows].tolist()
        )

    def _grow(self, minimum: int) -> None:
        size = max(minimum, 2 * max(self.next_flip_t.size, 16))
        self._resize(size)
        self.scheduler.grow(size)

    def _resize(self, size: int) -> None:
        columns.resize(self, self._RECORD, (size,), record="_record")
        columns.resize(self, self._COLUMNS, (size,))

    # A field view pickles as an array of its own: the record is pickled
    # once, and a restore binds the views to it again.
    def __getstate__(self) -> dict:
        return {k: v for k, v in vars(self).items() if k not in self._record.dtype.names}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        columns.resize(self, self._RECORD, self._record.shape, record="_record")

    # -- per-row transitions (a device's entry points) --------------------------
    def _quantize(self, t: float) -> float:
        """The sweep boundary at-or-after ``t`` (never before it)."""
        q = self.sweep_interval_s
        if q <= 0.0 or t == _INF:
            return t
        return -(-t // q) * q  # ceil(t / q) * q without an import

    def _touch(self, i: int) -> None:
        """Refresh the combined next-event time for row ``i`` and keep the
        sweeper armed no later than its sweep boundary."""
        t = min(self.next_flip_t[i], self.next_checkin_t[i])
        self._next_event_t[i] = t
        if t < _INF:
            self.wake_by(t)

    def _job_delay(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Each of ``rows``' jittered job interval at uniform draw ``u``
        (:meth:`JobSchedule.delay_at` over its ``_job_interval_s``)."""
        base = self._job_interval_s[rows]
        lo = base * (1.0 - self._job.jitter_fraction)
        return lo + (base * (1.0 + self._job.jitter_fraction) - lo) * u

    def _draw(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """Each of ``rows``' (distinct) next draw: two uniforms in [0, 1)."""
        drawn = self._draw_count[rows]
        self._draw_count[rows] = drawn + np.uint64(1)
        return self._draws.uniform_pair(self._row_key[rows], drawn)

    def start(self) -> None:
        """Fleet start (and a hand-built device's spawn): every row enrolled
        and not yet started starts at the sweep armed for this instant —
        one heap entry, however many rows; none, for a device constructed
        after its row started."""
        self._start_to = len(self._devices)
        if self._started < self._start_to:
            self._sweeper.arm(self._loop.now)

    def _start_rows(self, rows: np.ndarray, now: float) -> None:
        """Initial eligibility, first flip and first check-in stagger of
        ``rows`` (a sweep starts rows ``START_CHUNK_ROWS`` at a time: a row's
        draws are its own, so the chunks are unobservable)."""
        model, tz = self._diurnal, self._tz_offset_hours[rows] * SECONDS_PER_HOUR
        u_eligible, u_stagger = self._draw(rows)
        eligible = u_eligible < model.eligible_fraction(now + tz)
        self.eligible[rows] = eligible
        self._eligible_count += int(np.count_nonzero(eligible))
        self.next_flip_t[rows] = now + sample_transitions(
            model, now, tz, ~eligible, -np.log1p(-self._draw(rows)[0])
        )
        members = eligible & self._has_memberships[rows]
        self._stagger_first_checkin(rows[members], u_stagger[members], now)
        self._book(rows, self.next_checkin_t[rows])

    def _stagger_first_checkin(self, rows: np.ndarray, u, now: float) -> np.ndarray:
        """First check-ins, uniform over one job interval from ``now``."""
        least = FIRST_CHECKIN_MIN_S
        checkin_t = now + (least + (self._job_interval_s[rows] - least) * u)
        self._book(rows, checkin_t)
        return checkin_t

    def _book(self, rows, checkin_t) -> np.ndarray:
        """``rows``' next check-ins are ``checkin_t``; returns their next
        events (each row's earlier of that and its next flip)."""
        self.next_checkin_t[rows] = checkin_t
        event_t = self._next_event_t[rows] = np.minimum(self.next_flip_t[rows], checkin_t)
        return event_t

    def kick_rows(self, rows: np.ndarray) -> None:
        """``rows`` (distinct) just gained a membership on a live fleet:
        those idling eligible with no check-in on the books draw a first
        one by the fleet-start law (uniform over one job interval), so a
        rollout reaches its cohort within that interval.  Rows with a
        check-in pending, asleep or in a session pick the membership up
        at their next check-in, flip or session end."""
        idle = self.eligible[rows] & ~self.active[rows]
        rows = rows[idle & (self.next_checkin_t[rows] == _INF)]
        if rows.size:
            u = self._draw(rows)[1]
            self.wake_by(float(self._stagger_first_checkin(rows, u, self._loop.now).min()))

    def schedule_checkin(self, i: int, delay: float) -> None:
        """Row ``i`` (idle) attempts a check-in ``delay`` seconds from now."""
        self.next_checkin_t[i] = self._loop.now + max(delay, 0.0)
        self._touch(i)

    def session_ended(self, i: int, back_in: Callable[[], float] | None = None) -> None:
        """The actor handed the device back: if still eligible it checks in
        ``back_in()`` seconds out (the session's last draw); its object goes."""
        self._active_count -= bool(self.active[i])
        self.active[i] = False
        self.next_checkin_t[i] = _INF
        self._touch(i)
        if back_in is not None and self.eligible[i]:
            self.schedule_checkin(i, back_in())
        self._devices.close(i)

    def memberships_changed(self, rows: np.ndarray) -> None:
        """The scheduler's membership columns of ``rows`` were rewritten
        (an attach or a drain: the lifecycle plane's one write).  A row
        whose last tenant left stops counting down to a check-in and is
        swept only for its flips (no re-arming: no next event moved
        earlier); one that gained a tenant on a live fleet is kicked by
        the lifecycle plane (:meth:`kick_rows`)."""
        has = self.scheduler.membership_count(rows) > 0
        self._has_memberships[rows] = has
        self._book(rows[~has], _INF)
        self.pending_window_t[rows[~has]] = -_INF

    # -- the sweep ---------------------------------------------------------------
    def _sweep(self) -> None:
        now = self._loop.now
        self.sweeps += 1
        self._sweeping = True
        try:
            for first in range(self._started, self._start_to, START_CHUNK_ROWS):
                last = min(first + START_CHUNK_ROWS, self._start_to)
                self._start_rows(np.arange(first, last), now)
            self._started = self._start_to
            self._run_sweep(now)
        finally:
            self._sweeping = False
        self._rearm()

    def _run_sweep(self, now: float) -> None:
        due = (self._next_event_t <= now).nonzero()[0]
        # One draw per due row: a flip spends it on (hazard, wake jitter),
        # a check-in on (selector pick, pace-window sample), a WAITING
        # row's deadline on its hang-up delay.
        u_first, u_second = self._draw(due)
        # Flips first: a device that loses eligibility exactly at a sweep
        # boundary must not also check in at that boundary.
        flips = self.next_flip_t[due] <= now
        rows = due[flips]
        if rows.size:
            self._flip_rows(rows, u_first[flips], u_second[flips], now)
        checkins = self.next_checkin_t[due] <= now
        rows, u_first, u_second = due[checkins], u_first[checkins], u_second[checkins]
        waiting = self._waiting_at[rows] >= 0
        if np.count_nonzero(waiting):
            # No round took them in time: they hang up and come back a
            # jittered job interval later.
            self.release(rows[waiting], self._job_delay(rows[waiting], u_first[waiting]))
            rows, u_first, u_second = rows[~waiting], u_first[~waiting], u_second[~waiting]
        if rows.size:
            self._checkin_rows(rows, u_first, u_second, now)

    def _flip_rows(
        self, rows: np.ndarray, u_hazard: np.ndarray, u_jitter: np.ndarray, now: float
    ) -> None:
        """Toggle eligibility for every row whose flip is due, resample
        all their next flips in one inversion of the tabulated hazard,
        and book the wakers' next check-ins."""
        devices = self._devices
        self.flips += rows.size
        eligible = ~self.eligible[rows]
        self.eligible[rows] = eligible
        self._eligible_count += 2 * int(np.count_nonzero(eligible)) - rows.size
        flip_t = now + sample_transitions(
            self._diurnal,
            now,
            self._tz_offset_hours[rows] * SECONDS_PER_HOUR,
            ~eligible,
            -np.log1p(-u_hazard),
        )
        self.next_flip_t[rows] = flip_t
        # A waking member returns at its pace window if one is still
        # ahead, else after a short jitter; a row that fell asleep or has
        # no tenant has no check-in (nor has a row in a session: it was
        # awake, so it fell asleep).
        window = self.pending_window_t[rows]
        lo, hi = WAKE_JITTER_S
        checkin_t = np.where(
            eligible & self._has_memberships[rows],
            np.where(window > now, window, now + (lo + (hi - lo) * u_jitter)),
            _INF,
        )
        self.next_checkin_t[rows] = checkin_t
        in_session = self.active[rows]
        if np.count_nonzero(in_session):
            asleep, u_asleep = rows[in_session], u_jitter[in_session]
            waiting = self._waiting_at[asleep] >= 0
            # A WAITING row hangs up; its job comes back at its normal
            # cadence, not at the next eligibility window.
            self.release(
                asleep[waiting], self._job_delay(asleep[waiting], u_asleep[waiting]), True
            )
            # A participating device's actor interrupts its session and
            # hands the row back via session_ended — in device-index
            # order, which fixes the shared actors/latency stream.
            for i in asleep[~waiting].tolist():
                devices[i].on_eligibility_lost()
        self._next_event_t[rows] = np.minimum(flip_t, checkin_t)

    def _checkin_rows(
        self, rows: np.ndarray, u_pick: np.ndarray, u_window: np.ndarray, now: float
    ) -> None:
        """Dispatch every due check-in as array work: the worker queues
        pick each row's session, its pick draw its Selector, and each
        Selector screens its rows a (selector, tenant) group at a time.
        Bounced rows are pace-steered by vector writes, admitted ones
        WAIT (:meth:`_wait_rows`); no ``DeviceActor`` is visited.  Each
        row's next check-in is written once: by the way it leaves."""
        # Eligible and not in a session (an active row is always eligible).
        go = self.eligible[rows] != self.active[rows]
        if np.count_nonzero(go) != rows.size:
            self._book(rows[~go], _INF)
            rows, u_pick, u_window = rows[go], u_pick[go], u_window[go]
            if not rows.size:
                return
        self.checkins_dispatched += rows.size
        self.pending_window_t[rows] = -_INF
        member = self._has_memberships[rows]
        ready = member & self.scheduler.free(rows)
        if np.count_nonzero(ready) != rows.size:
            # A member whose worker is busy with another tenant's session
            # retries after it; a row with no tenant wants nothing.
            self._book(rows[~member], _INF)
            busy = member & ~ready
            self._retry_busy(rows[busy], u_pick[busy], now)
            rows, u_pick, u_window = rows[ready], u_pick[ready], u_window[ready]
            if not rows.size:
                return
        slot = self.scheduler.checkin(rows)
        if len(self._pools) != len(self.scheduler.tenants):
            self._resolve_pools()
        # The Selector a row checks in to: ``pool[int(pick * len(pool))]``
        # over its tenant's pool.  Rows are grouped by (tenant, Selector),
        # device-index order kept within a group.
        choice = (u_pick * self._pool_size[slot]).astype(np.intp)
        group = slot * len(self._selectors) + choice
        order = group.argsort(kind="stable")
        group, rows, u_window = group[order], rows[order], u_window[order]
        held, at, spans, sizes = self._screen_groups(
            group.tolist(),
            ((group[1:] != group[:-1]).nonzero()[0] + 1).tolist(),
            self._attestation_ok[rows].tolist(),
            self._runtime_version[rows].tolist(),
        )
        # The attempt counts on the device's health record, admitted or not.
        self._health_checkins[rows] += 1
        if held:
            slots = group[held] // len(self._selectors)
            self._wait_rows(rows[held], slots, np.array(at), now)
        if len(held) < rows.size:
            bounced = slice(None)
            if held:
                bounced = np.ones(rows.size, dtype=bool)
                bounced[held] = False
            if len(set(spans)) == 1:  # one pace window: it is two scalars
                earliest, latest = spans[0]
            else:
                earliest, latest = np.repeat(np.array(spans), sizes, axis=0)[bounced].T
            self._bounce_rows(rows[bounced], earliest, latest, u_window[bounced], now)

    def _retry_busy(self, rows: np.ndarray, u_pick: np.ndarray, now: float) -> None:
        """``rows``' workers are busy: their memberships still file their
        requests, and the next check-in is one jittered job interval out,
        on the draw the Selector pick would have used."""
        self.scheduler.enqueue_rows(rows)
        self._book(rows, now + self._job_delay(rows, u_pick))

    def _resolve_pools(self) -> None:
        """Selector pools for the tenant slots registered since last time
        (placement is a pure function of the name), and their WAITING
        counts."""
        router = self._shard_router
        everyone = tuple(range(len(self._selectors)))
        for name in self.scheduler.tenants[len(self._pools):]:
            self._pools.append(
                everyone if router is None else router.selector_indices_for(name)
            )
        self._pool_size = np.array([float(len(pool)) for pool in self._pools])
        waiting = np.zeros((len(self._selectors) + 1, len(self._pools)), np.int64)
        old = self._waiting
        waiting[: old.shape[0], : old.shape[1]] = old
        self._waiting = waiting

    def _screen_groups(
        self, group: list[int], edges: list[int], attested: list[bool], versions: list[int]
    ) -> tuple[list[int], list[int], list[tuple[float, float]], list[int]]:
        """One admission verdict per (selector, tenant) group of a sweep's
        check-ins (sorted by group; a group starts at each of ``edges``).

        Returns the admitted rows — their positions, and for each the
        index of the Selector it waits at — and, per group, the
        ``(earliest, latest)`` of the pace window its bounced rows are
        steered into and its size.  Per-group work is scalar Python on
        the route; nothing here is per row except for the admitted.
        """
        tenants, pools, selectors = self.scheduler.tenants, self._pools, self._selectors
        width = len(selectors)
        held: list[int] = []
        at: list[int] = []
        spans, sizes = [], []
        for start, stop in zip([0, *edges], [*edges, len(group)]):
            slot, choice = divmod(group[start], width)
            index = pools[slot][choice]
            # A crashed Selector, or a stand-in without the screen: the
            # check-ins are lost on the way (the rows wait, nowhere, for
            # their deadlines).
            screen = getattr(self._actor_of(selectors[index]), "fast_checkin_decision", None)
            if screen is None:
                taken, window, index = range(stop - start), None, width
            else:
                taken, window = screen(
                    tenants[slot], attested[start:stop], versions[start:stop]
                )
            held.extend(start + j for j in taken)
            at.extend([index] * len(taken))
            spans.append(
                (window.earliest_s, window.latest_s) if window is not None else (_INF, _INF)
            )
            sizes.append(stop - start)
        return held, at, spans, sizes

    def _wait_rows(
        self, rows: np.ndarray, slots: np.ndarray, at: np.ndarray, now: float
    ) -> None:
        """The screen admitted ``rows`` for their running ``slots``: each
        opens its stream and WAITs at its Selector ``at`` — nowhere, when
        its check-in is lost on the way — until a round takes it or its
        deadline, ``waiting_timeout_s`` out, hangs it up.  Each Selector
        then hears of its new rows, once per group (a forwarding route
        offers them to its round at once)."""
        nowhere = len(self._selectors)
        if self.checkin_fault is not None:
            live = (at != nowhere).nonzero()[0]
            at[live[self.checkin_fault(live.size)]] = nowhere
        self.materializations += rows.size
        self._active_count += rows.size
        self.active[rows] = True
        self._waiting_at[rows] = at
        self.connected_at_s[rows] = now
        self._book(rows, now + self.waiting_timeout_s)
        # One (selector, tenant) group after another, each in row order.
        groups: dict[tuple[int, int], list[int]] = {}
        for row, slot, index in zip(rows.tolist(), slots.tolist(), at.tolist()):
            groups.setdefault((slot, index), []).append(row)
        tenants, waiting = self.scheduler.tenants, self._waiting
        for (slot, index), group in sorted(groups.items()):
            waiting[index, slot] += len(group)
            if index != nowhere:
                self._actor_of(self._selectors[index]).admitted(
                    tenants[slot], np.array(group)
                )

    # -- WAITING rows: the Selector pools as columns -------------------------------
    def pooled(self, selector: int) -> np.ndarray:
        """The rows WAITING at Selector ``selector``, in row order."""
        return (self._waiting_at[: len(self)] == selector).nonzero()[0]

    def pools(self, selectors: Sequence[int], name: str) -> list[np.ndarray]:
        """The rows WAITING for tenant ``name`` at each of ``selectors``,
        each pool in row order: one scan of the tenant's rows for all."""
        slot = self.scheduler._slot_of.get(name, -2)
        rows = (self.scheduler._running[: len(self)] == slot).nonzero()[0]
        at = self._waiting_at[rows]
        order = at.argsort(kind="stable")
        rows, at = rows[order], at[order]
        starts, ends = at.searchsorted(np.add.outer([0, 1], selectors)).tolist()
        return [rows[lo:hi] for lo, hi in zip(starts, ends)]

    def connected(self, selectors: list[int], name: str) -> int:
        """How many rows WAIT for tenant ``name`` at the Selectors whose
        indices are ``selectors``."""
        slot = self.scheduler._slot_of.get(name, -1)
        waiting = self._waiting
        if not 0 <= slot < waiting.shape[1]:
            return 0
        return sum(map(waiting.item, selectors, [slot] * len(selectors)))

    def _move(self, rows: np.ndarray, to: int) -> None:
        """Re-home WAITING ``rows`` at ``to`` (``-1``: they stop waiting)."""
        slots = self.scheduler._running[rows]
        np.subtract.at(self._waiting, (self._waiting_at[rows], slots), 1)
        if to >= 0:
            np.add.at(self._waiting, (to, slots), 1)
        self._waiting_at[rows] = to

    def forward(self, rows: np.ndarray) -> list["DeviceActor"]:
        """Pooled ``rows`` were forwarded to a round: each leaves its pool
        and waits on, nowhere, for its configuration (its deadline still
        running); their devices, built now (profiles in one pass)."""
        self._move(rows, len(self._selectors))
        return list(map(self._devices.open, rows.tolist(), self.profiles(rows)))

    def begin_session(self, i: int) -> str | None:
        """Row ``i``'s configuration arrived: if the row still waits for
        it, it is PARTICIPATING from now and the session's tenant is
        returned; ``None`` if it hung up meanwhile — and then its device
        goes, unless the row is in a session or was forwarded again."""
        nowhere = len(self._selectors)
        if self._waiting_at[i] != nowhere:
            if not self.active[i] or self._waiting_at[i] >= 0:
                self._devices.close(i)
            return None
        slot = self.scheduler._running.item(i)
        self._waiting[nowhere, slot] -= 1
        self._waiting_at[i] = -1
        self.next_checkin_t[i] = _INF
        self._next_event_t[i] = self.next_flip_t[i]
        return self.scheduler.tenants[slot]

    def release(
        self, rows: np.ndarray, delay: np.ndarray, window: bool = False, wake: bool = True
    ) -> np.ndarray:
        """WAITING ``rows`` hang up: each leaves its pool, frees its worker
        and, if still eligible, checks in again ``delay`` seconds from now
        — opening a pace window then too, when ``window``.  A forwarded
        row's device goes: a configuration that comes later builds one to
        turn it away.  Returns their next events, which the sweep wakes by
        unless ``wake`` is False (then the caller wakes it: :meth:`wake_by`)."""
        forwarded = rows[self._waiting_at[rows] == len(self._selectors)]
        self._move(rows, -1)
        self.scheduler.abort_rows(rows)
        self.active[rows] = False
        self._active_count -= rows.size
        reconnect_at = self._loop.now + delay
        if window:
            self.pending_window_t[rows] = reconnect_at
        event_t = self._book(rows, np.where(self.eligible[rows], reconnect_at, _INF))
        if wake and event_t.size:
            self.wake_by(float(event_t.min()))
        for i in forwarded.tolist():
            self._devices.close(i)
        return event_t

    def wake_by(self, t: float) -> None:
        """Keep the sweeper armed no later than ``t``'s sweep boundary (a
        sweep's final re-arm covers what it writes)."""
        if not self._sweeping:
            self._sweeper.arm(self._quantize(t))

    def hang_up(self, rows: np.ndarray) -> None:
        """WAITING ``rows`` hang up and come back a jittered job interval
        later, each at its own row draw."""
        self.release(rows, self._job_delay(rows, self._draw(rows)[0]))

    def bounce(self, rows: np.ndarray, earliest, latest, wake: bool = True) -> np.ndarray:
        """WAITING ``rows`` are turned away (a drain, a full round) into pace
        windows ``earliest``..``latest`` (per row, or one for all), each at its
        own row draw (:meth:`release`)."""
        reconnect_at = earliest + (latest - earliest) * self._draw(rows)[0]
        return self.release(rows, np.maximum(reconnect_at - self._loop.now, 1.0), True, wake)

    def reset(self, rows: np.ndarray) -> None:
        """WAITING ``rows``' Selector stream broke: they retry another one
        ``RESET_RETRY_S`` later, each at its own row draw."""
        lo, hi = RESET_RETRY_S
        self.release(rows, lo + (hi - lo) * self._draw(rows)[0])

    def _bounce_rows(
        self, rows: np.ndarray, earliest, latest, u_window: np.ndarray, now: float
    ) -> None:
        """The device half of a rejection for every screened-out row: the
        worker is released and the row returns inside its pace window
        (``earliest`` / ``latest``: per row, or one for all)."""
        self.checkins_fast_rejected += rows.size
        self.scheduler.abort_rows(rows)
        reconnect_at = earliest + (latest - earliest) * u_window
        self.pending_window_t[rows] = reconnect_at
        self._book(rows, now + np.maximum(reconnect_at - now, 1.0))

    def _rearm(self) -> None:
        t = self._next_event_t.min() if self._next_event_t.size else _INF
        if t < _INF:
            self._sweeper.arm(self._quantize(t))

    # -- observability -----------------------------------------------------------
    def profile(self, i: int) -> DeviceProfile:
        """Row ``i``'s profile, as the record its device holds."""
        return self.profiles(slice(i, i + 1))[0]

    def profiles(self, rows: np.ndarray | slice) -> list[DeviceProfile]:
        """``rows``' profiles, built in one bulk pass: one ``tolist`` per
        column (a numpy-scalar conversion per field per row is the slow
        way)."""
        return list(map(DeviceProfile._make, zip(*(
            getattr(self, column)[rows].tolist() for column in _PROFILE_COLUMNS
        ))))

    def conditions(self, i: int) -> NetworkConditions:
        """Row ``i``'s link, as the record its device holds."""
        return NetworkConditions(
            self._downlink_bytes_per_s.item(i),
            self._uplink_bytes_per_s.item(i),
            self._rtt_s.item(i),
        )

    def health(self, i: int) -> DeviceHealthStats:
        """Row ``i``'s health record, as the value ``device.health`` is."""
        by_population = self.scheduler.sessions(i)
        return DeviceHealthStats(
            checkins=int(self._health_checkins[i]),
            sessions_started=sum(by_population.values()),
            train_seconds=float(self.train_seconds[i]),
            upload_retries=int(self.upload_retries[i]),
            upload_retries_exhausted=int(self.upload_retries_exhausted[i]),
            sessions_by_population=by_population,
        )

    def state(self, i: int) -> DeviceState:
        """Row ``i``'s lifecycle state, read off its columns."""
        if not self.eligible[i]:
            return DeviceState.SLEEPING
        if not self.active[i]:
            return DeviceState.IDLE
        return DeviceState.WAITING if self._waiting_at[i] >= 0 else DeviceState.PARTICIPATING

    def state_counts(self) -> dict[DeviceState, int]:
        """Fleet state census from the running tallies and the WAITING
        counts: no row is scanned, no device visited."""
        waiting = int(self._waiting.sum())
        return {
            DeviceState.SLEEPING: len(self._devices) - self._eligible_count,
            DeviceState.IDLE: self._eligible_count - self._active_count,
            DeviceState.WAITING: waiting,
            DeviceState.PARTICIPATING: self._active_count - waiting,
        }

    def sessions_of(self, rows: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Those of ``rows`` (distinct) in a session of tenant ``name``:
        the WAITING ones and the participating ones."""
        slot = self.scheduler._slot_of.get(name, -2)
        rows = rows[self.active[rows] & (self.scheduler._running[rows] == slot)]
        waiting = self._waiting_at[rows] >= 0
        return rows[waiting], rows[~waiting]

    def participating_rows(self) -> np.ndarray:
        """The rows in a round's session, in row order: each has its
        device (built when the round took the row), so they are found
        among the table's few live rows, not by a scan of the fleet."""
        live = np.array(self._devices.live_rows(), np.intp)
        return live[self.active[live] & (self._waiting_at[live] < 0)]

    def participating_devices(self) -> list["DeviceActor"]:
        devices = self._devices
        return [devices[i] for i in self.participating_rows().tolist()]


class ProfileTable(Sequence):
    """``Sequence[DeviceProfile]`` over a plane's rows, read-only.

    A profile is built from the plane's columns on read: indexing builds
    one, iterating or slicing builds one per row (in one bulk pass).  To
    read a field of every row without building any, take its
    :meth:`column`.
    """

    __slots__ = ("_plane",)

    def __init__(self, plane: VectorizedIdlePlane):
        self._plane = plane

    def __len__(self) -> int:
        return len(self._plane)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._plane.profiles(np.arange(len(self))[index])
        return self._plane.profile(range(len(self))[as_index(index)])

    def __iter__(self):
        return iter(self[:])

    def column(self, name: str) -> np.ndarray:
        """Field ``name`` of every row's profile, in row order: a
        read-only view of the plane's column."""
        if name not in DeviceProfile._fields:
            raise KeyError(f"DeviceProfile has no field {name!r}")
        view = getattr(self._plane, f"_{name}")[: len(self)]
        view.flags.writeable = False
        return view
