"""Vectorized idle-device plane: the fleet's idle majority as numpy rows.

The paper's populations are millions of devices of which, at any moment,
the overwhelming majority are idle — merely flipping eligibility or
counting down to a check-in.  Simulating that majority as full actors
costs one timer (plus cancel churn) per device per transition; this
module instead keeps every idle device as a row in fleet-wide arrays:

* ``next_flip_t``   — absolute time of the next eligibility transition;
* ``eligible``      — the current eligibility bit;
* ``next_checkin_t``— absolute time of the next check-in attempt
  (``inf`` while ineligible, membership-less, or materialized);
* ``pending_window_t`` — pace-steering window start (device must not
  check in before it);
* ``active``        — the device is *materialized*: it is WAITING at a
  Selector or PARTICIPATING in a round, under actor control;
* the on-device worker queue (Sec. 11) of every row, as the
  ``(rows x tenant-slot)`` columns of a :class:`~repro.device.scheduler.
  ColumnScheduler`, and what a Selector's screen reads of a device (its
  attestation verdict — one real token round per device, at enrollment —
  and its FL runtime version);
* the device's profile (id, time zone, speed, memory, OS and runtime
  versions, genuineness) and its link conditions (downlink, uplink, rtt),
  from which a ``DeviceProfile`` / ``NetworkConditions`` is built on read
  — a constructed device holds one, a row holds none;
* the device's record (Sec. 5's health counters): check-ins, training
  seconds and upload retries per row, sessions per ``(row, tenant slot)``
  in the scheduler, errors by reason fleet-wide.  ``device.health``,
  ``device.eligible`` and ``device.state`` read these columns; a
  ``DeviceActor`` keeps no copy.

The plane advances by batched sweeps: one :class:`~repro.sim.event_loop.
Sweeper` event per sweep boundary (the earliest pending transition
fleet-wide) instead of one timer per device.  Within a sweep, due
*flips* are processed before due *check-ins*, so a device that loses
eligibility exactly at a sweep boundary never checks in at that instant.

A sweep's check-ins are array work end to end: the worker queues pick
each due row's session, the row's pick draw resolves its Selector, and
each Selector gives one admission verdict per (selector, tenant) group —
the only time a check-in is judged; an admitted row holds a reserved
pool slot.  A bounced row is pace-steered by vector writes; a device only
materializes as a full :class:`~repro.device.actor.DeviceActor`
interaction when a Selector admits it — which, the first time, is also
when the ``DeviceActor`` is *constructed*: until then the device is only
its row (:mod:`repro.device.table`) — and when its session ends (report,
rejection, timeout, interruption) the actor hands the device back to the
plane.  Determinism: every draw a device makes
*while the plane owns it* (initial eligibility, flip resample, first
check-in stagger, wake jitter, selector pick, rejected-window sample)
comes from its counter-keyed row stream (:class:`repro.sim.rng.RowDraws`),
a whole batch of rows per call — the same seed yields a byte-identical
run, and the device's own generator serves its sessions only.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from operator import index as as_index
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.device.actor import DeviceHealthStats, DeviceState
from repro.device.idle import first_checkin_delay, wake_jitter
from repro.device.scheduler import ColumnScheduler, RowScheduler
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

#: The column that holds each :class:`DeviceProfile` field, in field order.
_PROFILE_COLUMNS = tuple(f"_{name}" for name in DeviceProfile._fields)


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
    ``shard_router`` that says which Selectors serve which tenant
    (``None``: all of them), the ``attestation`` service that vouches
    for each row once, at enrollment, and the fleet's on-device
    ``scheduler_policy``.

    A row needs no device object until a Selector admits one of its
    check-ins: ``devices`` is the fleet's :class:`~repro.device.table.
    DeviceTable`, which constructs a row's ``DeviceActor`` the first time
    the dispatch (or anyone else) asks for it.  Without one the plane
    keeps a table of its own, of the devices :meth:`adopt` seats in it.
    """

    #: Every per-row array, declared once: construction and growth both
    #: size them through :func:`repro.sim.columns.resize`.
    _COLUMNS: tuple[columns.Column, ...] = (
        ("next_flip_t", np.float64, _INF),
        ("next_checkin_t", np.float64, _INF),
        ("pending_window_t", np.float64, -_INF),
        # min(next_flip_t, next_checkin_t) per device, maintained on every
        # write so a sweep scans one array, not two.
        ("_next_event_t", np.float64, _INF),
        ("eligible", np.bool_, False),
        ("active", np.bool_, False),
        ("_has_memberships", np.bool_, False),
        # The device's profile, one column per ``DeviceProfile`` field
        # (``profile(row)`` builds the record).  A sweep reads the time
        # zone, a Selector's screen the runtime version (plan
        # compatibility) — the profile's own column, not a copy.
        ("_device_id", np.int64, 0),
        ("_tz_offset_hours", np.float64, 0.0),
        ("_speed_factor", np.float64, 0.0),
        ("_memory_mb", np.int64, 0),
        ("_os_version", np.int64, 0),
        ("_runtime_version", np.int64, 0),
        ("_genuine", np.bool_, False),
        # The device's job cadence (its first check-in is staggered over it).
        ("_job_interval_s", np.float64, 0.0),
        # Each row's counter-keyed stream: key and draws made so far.
        ("_row_key", np.uint64, 0),
        ("_draw_count", np.uint64, 0),
        # Attestation verdict per device, from its enrollment's token
        # round: the verdict is deterministic per device, so no check-in
        # pays the hashing again.
        ("_attestation_ok", np.bool_, False),
        # The device's link, sampled once per device: its
        # ``NetworkConditions`` is built from these when it is constructed.
        ("_downlink_bytes_per_s", np.float64, 0.0),
        ("_uplink_bytes_per_s", np.float64, 0.0),
        ("_rtt_s", np.float64, 0.0),
        # The device's health record (its per-tenant session tally is the
        # scheduler's): check-in attempts, bounced ones included, ...
        ("_health_checkins", np.int64, 0),
        ("train_seconds", np.float64, 0.0),
        # ... upload failures retried, and sessions dropped for them.
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
        columns.resize(self, self._COLUMNS, (int(capacity),))
        #: The on-device worker queue (Sec. 11) of every row.
        self.scheduler = ColumnScheduler(scheduler_policy, rows=int(capacity))
        #: Per tenant slot of the scheduler: the indices into ``selectors``
        #: of the Selectors that serve it, and how many there are.
        self._pools: list[tuple[int, ...]] = []
        self._pool_size = np.zeros(0)
        self._devices = devices if devices is not None else DeviceTable()
        #: Rows ``[0, _started)`` have drawn their initial eligibility;
        #: the sweep armed by :meth:`start` starts those up to ``_start_to``
        #: as one batch.
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
        (
            self._downlink_bytes_per_s[rows],
            self._uplink_bytes_per_s[rows],
            self._rtt_s[rows],
        ) = links
        device_ids = self._device_id[rows]
        self._row_key[rows] = self._draws.keys(device_ids)
        self._job_interval_s[rows] = job_interval_s
        # One real token round per device, at enrollment: the verdict is
        # deterministic, so every screen reads it instead of re-hashing.
        issue, verify = self._attestation.issue_token, self._attestation.verify
        self._attestation_ok[rows] = [
            verify(issue(device_id, genuine))
            for device_id, genuine in zip(
                device_ids.tolist(), self._genuine[rows].tolist()
            )
        ]

    def adopt(self, device: "DeviceActor", memberships: Sequence[str] = ()) -> None:
        """Enroll a hand-built device — a batch of one row, its object
        already there, a member of ``memberships`` in that order.

        Must be called before the device actor is spawned
        (``DeviceActor.on_start`` starts the row): it hands the device the
        plane, its row index and the row's view of the worker queue.
        """
        index = len(self._devices)
        link = device.conditions
        self.adopt_rows(
            {name: [value] for name, value in device.profile._asdict().items()},
            device.job.base_interval_s,
            ([link.downlink_bytes_per_s], [link.uplink_bytes_per_s], [link.rtt_s]),
        )
        self._devices.seat(index, device)
        device.plane, device.row = self, index
        device.scheduler = RowScheduler(self.scheduler, index)
        row = np.array([index])
        for name in memberships:
            self.scheduler.enroll(row, name)
        self.memberships_changed(row)

    def _grow(self, minimum: int) -> None:
        size = max(minimum, 2 * max(self.next_flip_t.size, 16))
        columns.resize(self, self._COLUMNS, (size,))
        self.scheduler.grow(size)

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
        if t < _INF and not self._sweeping:
            self._sweeper.arm(self._quantize(t))

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

    def _start_rows(self, now: float) -> None:
        """Initial eligibility, first flip and first check-in stagger of
        every row started since the last sweep, as one batch."""
        rows = np.arange(self._started, self._start_to)
        self._started = self._start_to
        model, tz = self._diurnal, self._tz_offset_hours[rows] * SECONDS_PER_HOUR
        u_eligible, u_stagger = self._draw(rows)
        eligible = u_eligible < model.eligible_fraction_batch(now + tz)
        self.eligible[rows] = eligible
        self._eligible_count += int(np.count_nonzero(eligible))
        self.next_flip_t[rows] = now + sample_transitions(
            model, now, tz, ~eligible, -np.log1p(-self._draw(rows)[0])
        )
        members = eligible & self._has_memberships[rows]
        self._stagger_first_checkin(rows[members], u_stagger[members], now)
        self._next_event_t[rows] = np.minimum(
            self.next_flip_t[rows], self.next_checkin_t[rows]
        )

    def _stagger_first_checkin(self, rows: np.ndarray, u: np.ndarray, now: float) -> None:
        """First check-ins, uniform over one job interval from ``now``."""
        self.next_checkin_t[rows] = now + first_checkin_delay(
            self._job_interval_s[rows], u
        )

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
            self._stagger_first_checkin(rows, self._draw(rows)[1], self._loop.now)
            checkin_t = self.next_checkin_t[rows]
            self._next_event_t[rows] = np.minimum(self.next_flip_t[rows], checkin_t)
            if not self._sweeping:
                self._sweeper.arm(self._quantize(float(checkin_t.min())))

    def schedule_checkin(self, i: int, delay: float) -> None:
        """Row ``i`` (idle) attempts a check-in ``delay`` seconds from now."""
        self.next_checkin_t[i] = self._loop.now + max(delay, 0.0)
        self._touch(i)

    def set_pending_window(self, i: int, reconnect_at_s: float) -> None:
        """Pace steering: no check-in of row ``i`` before ``reconnect_at_s``."""
        self.pending_window_t[i] = reconnect_at_s

    def session_started(self, i: int) -> None:
        """Row ``i`` materialized: its device is WAITING at a Selector.
        Only a sweep's dispatch materializes a row, and it has already
        retired the row's check-in."""
        self._active_count += not self.active[i]
        self.active[i] = True
        self.materializations += 1

    def session_ended(self, i: int) -> None:
        """The actor handed the device back; the device schedules its next
        check-in (if eligible) right after this call."""
        self._active_count -= bool(self.active[i])
        self.active[i] = False
        self.next_checkin_t[i] = _INF
        self._touch(i)

    def memberships_changed(self, rows: np.ndarray) -> None:
        """The scheduler's membership columns of ``rows`` were rewritten
        (an attach or a drain: the lifecycle plane's one write).  A row
        whose last tenant left stops counting down to a check-in and is
        swept only for its flips (no re-arming: no next event moved
        earlier); one that gained a tenant on a live fleet is kicked by
        the lifecycle plane (:meth:`kick_rows`)."""
        has = self.scheduler.membership_count(rows) > 0
        self._has_memberships[rows] = has
        rows = rows[~has]
        self.next_checkin_t[rows] = _INF
        self.pending_window_t[rows] = -_INF
        self._next_event_t[rows] = self.next_flip_t[rows]

    # -- the sweep ---------------------------------------------------------------
    def _sweep(self) -> None:
        now = self._loop.now
        self.sweeps += 1
        self._sweeping = True
        try:
            if self._started < self._start_to:
                self._start_rows(now)
            self._run_sweep(now)
        finally:
            self._sweeping = False
        self._rearm()

    def _run_sweep(self, now: float) -> None:
        due = np.nonzero(self._next_event_t <= now)[0]
        # One draw per due row: a flip spends it on (hazard, wake jitter),
        # a check-in on (selector pick, pace-window sample).
        u_first, u_second = self._draw(due)
        # Flips first: a device that loses eligibility exactly at a sweep
        # boundary must not also check in at that boundary.
        flips = self.next_flip_t[due] <= now
        rows = due[flips]
        if rows.size:
            self._flip_rows(rows, u_first[flips], u_second[flips], now)
        checkins = self.next_checkin_t[due] <= now
        rows = due[checkins]
        if rows.size:
            self._checkin_rows(rows, u_first[checkins], u_second[checkins], now)

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
        # no tenant has no check-in (nor has a materialized row: it was
        # awake, so it fell asleep).
        window = self.pending_window_t[rows]
        checkin_t = np.where(
            eligible & self._has_memberships[rows],
            np.where(window > now, window, now + wake_jitter(u_jitter)),
            _INF,
        )
        self.next_checkin_t[rows] = checkin_t
        was_active = self.active[rows]
        if np.count_nonzero(was_active):
            # The actor interrupts its session and hands the row back via
            # session_ended — in device-index order, which fixes the
            # shared actors/latency stream.
            for i in rows[was_active & ~eligible].tolist():
                devices[i].on_eligibility_lost()
        self._next_event_t[rows] = np.minimum(flip_t, checkin_t)

    def _checkin_rows(
        self, rows: np.ndarray, u_pick: np.ndarray, u_window: np.ndarray, now: float
    ) -> None:
        """Dispatch every due check-in as array work: the worker queues
        pick each row's session, its pick draw its Selector, and each
        Selector screens its rows a (selector, tenant) group at a time.
        Bounced rows are pace-steered by vector writes; only the admitted
        few touch their ``DeviceActor`` — in device-index order (it fixes
        the shared actors/latency stream)."""
        self.next_checkin_t[rows] = _INF
        self._next_event_t[rows] = self.next_flip_t[rows]
        # Eligible and not in a session (an active row is always eligible).
        go = self.eligible[rows] != self.active[rows]
        if np.count_nonzero(go) != rows.size:
            rows, u_pick, u_window = rows[go], u_pick[go], u_window[go]
        self.checkins_dispatched += rows.size
        self.pending_window_t[rows] = -_INF
        member = self._has_memberships[rows]
        ready = member & self.scheduler.free(rows)
        if np.count_nonzero(ready) != rows.size:
            # A member whose worker is busy with another tenant's session
            # retries after it; a row with no tenant wants nothing.
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
        held, admitted, spans, sizes = self._screen_groups(
            group.tolist(),
            (np.flatnonzero(group[1:] != group[:-1]) + 1).tolist(),
            rows.tolist(),
            self._attestation_ok[rows].tolist(),
            self._runtime_version[rows].tolist(),
        )
        # The attempt counts on the device's health record, admitted or not.
        self._health_checkins[rows] += 1
        if len(held) < rows.size:
            windows = np.repeat(np.array(spans), sizes, axis=0)
            if held:
                bounced = np.ones(rows.size, dtype=bool)
                bounced[held] = False
                rows, windows, u_window = rows[bounced], windows[bounced], u_window[bounced]
            self._bounce_rows(rows, windows[:, 0], windows[:, 1], u_window, now)
        # Materialize in global device-index order, whatever the grouping
        # (device indices are distinct: the sort never compares past them).
        devices = self._devices
        admitted.sort()
        for i, tenant, selector in admitted:
            devices[i]._attempt_screened_checkin(tenant, selector)

    def _retry_busy(self, rows: np.ndarray, u_pick: np.ndarray, now: float) -> None:
        """``rows``' workers are busy: their memberships still file their
        requests, and the next check-in is one jittered job interval out,
        on the draw the Selector pick would have used."""
        self.scheduler.enqueue_rows(rows)
        checkin_t = now + np.array([
            max(self._devices[i].job.delay_at(u), 0.0)
            for i, u in zip(rows.tolist(), u_pick.tolist())
        ])
        self.next_checkin_t[rows] = checkin_t
        self._next_event_t[rows] = np.minimum(self.next_flip_t[rows], checkin_t)

    def _resolve_pools(self) -> None:
        """Selector pools for the tenant slots registered since last time
        (placement is a pure function of the name)."""
        router = self._shard_router
        everyone = tuple(range(len(self._selectors)))
        for name in self.scheduler.tenants[len(self._pools):]:
            self._pools.append(
                everyone if router is None else router.selector_indices_for(name)
            )
        self._pool_size = np.array([float(len(pool)) for pool in self._pools])

    def _screen_groups(
        self,
        group: list[int],
        edges: list[int],
        rows: list[int],
        attested: list[bool],
        versions: list[int],
    ) -> tuple[list[int], list[tuple], list[tuple[float, float]], list[int]]:
        """One admission verdict per (selector, tenant) group of a sweep's
        check-ins (sorted by group; a group starts at each of ``edges``).

        Returns the admitted rows — their positions, and ``(device index,
        tenant, selector ref)`` for each — and, per group, the
        ``(earliest, latest)`` of the pace window its bounced rows are
        steered into and its size.  Per-group work is scalar Python on
        the route; nothing here is per row except for the admitted.
        """
        tenants, pools, selectors = self.scheduler.tenants, self._pools, self._selectors
        width = len(selectors)
        held: list[int] = []
        admitted: list[tuple] = []
        spans, sizes = [], []
        for start, stop in zip([0, *edges], [*edges, len(rows)]):
            slot, choice = divmod(group[start], width)
            tenant = tenants[slot]
            selector = selectors[pools[slot][choice]]
            # A crashed Selector, or a stand-in without the screen: the
            # rows materialize, and a crashed one's check-ins are lost in
            # delivery (the devices' waiting timeouts hand them back).
            screen = getattr(self._actor_of(selector), "fast_checkin_decision", None)
            if screen is None:
                taken, window = range(stop - start), None
            else:
                taken, window = screen(
                    tenant, attested[start:stop], versions[start:stop]
                )
            for j in taken:
                held.append(start + j)
                admitted.append((rows[start + j], tenant, selector))
            spans.append(
                (window.earliest_s, window.latest_s) if window is not None else (_INF, _INF)
            )
            sizes.append(stop - start)
        return held, admitted, spans, sizes

    def _bounce_rows(
        self,
        rows: np.ndarray,
        earliest: np.ndarray,
        latest: np.ndarray,
        u_window: np.ndarray,
        now: float,
    ) -> None:
        """The device half of a rejection for every screened-out row: the
        worker is released and the row returns inside its pace window."""
        self.checkins_fast_rejected += rows.size
        self.scheduler.abort_rows(rows)
        reconnect_at = earliest + (latest - earliest) * u_window
        checkin_t = now + np.maximum(reconnect_at - now, 1.0)
        self.pending_window_t[rows] = reconnect_at
        self.next_checkin_t[rows] = checkin_t
        self._next_event_t[rows] = np.minimum(self.next_flip_t[rows], checkin_t)

    def _rearm(self) -> None:
        t = self._next_event_t.min() if self._next_event_t.size else _INF
        if t < _INF:
            self._sweeper.arm(self._quantize(t))

    # -- observability -----------------------------------------------------------
    def profile(self, i: int) -> DeviceProfile:
        """Row ``i``'s profile, as the record its constructed device holds."""
        return self.profiles(slice(i, i + 1))[0]

    def profiles(self, rows: np.ndarray | slice) -> list[DeviceProfile]:
        """``rows``' profiles, built in one bulk pass: one ``tolist`` per
        column (a numpy-scalar conversion per field per row is the slow
        way)."""
        return list(map(DeviceProfile._make, zip(*(
            getattr(self, column)[rows].tolist() for column in _PROFILE_COLUMNS
        ))))

    def conditions(self, i: int) -> NetworkConditions:
        """Row ``i``'s link, as the record its constructed device holds."""
        return NetworkConditions(
            float(self._downlink_bytes_per_s[i]),
            float(self._uplink_bytes_per_s[i]),
            float(self._rtt_s[i]),
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

    def state_counts(
        self, active: list["DeviceActor"] | None = None
    ) -> dict[DeviceState, int]:
        """Fleet state census without touching idle rows or devices.

        Idle/sleeping counts come from the running tallies; only the
        (few) materialized devices — ``active``, when the caller already
        holds :meth:`active_devices` — are consulted for their actor state.
        """
        counts = {state: 0 for state in DeviceState}
        counts[DeviceState.SLEEPING] = len(self._devices) - self._eligible_count
        counts[DeviceState.IDLE] = self._eligible_count - self._active_count
        for device in self.active_devices() if active is None else active:
            counts[device.state] += 1
        return counts

    def active_devices(self) -> list["DeviceActor"]:
        """The currently materialized devices (WAITING/PARTICIPATING) —
        each constructed, at the latest, by the dispatch that admitted it."""
        devices = self._devices.rows()
        return [devices[i] for i in np.nonzero(self.active)[0].tolist()]


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
