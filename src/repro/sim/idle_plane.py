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
  Selector or PARTICIPATING in a round, under actor control.

The plane advances by batched sweeps: one :class:`~repro.sim.event_loop.
Sweeper` event per sweep boundary (the earliest pending transition
fleet-wide) instead of one timer per device.  Within a sweep, due
*flips* are processed before due *check-ins*, so a device that loses
eligibility exactly at a sweep boundary never checks in at that instant.

A device only materializes as a full :class:`~repro.device.actor.
DeviceActor` interaction at the moment it actually checks in; when its
session ends (report, rejection, timeout, interruption), the actor hands
the device back to the plane.  Determinism: every draw a device makes
*while the plane owns it* (initial eligibility, flip resample, first
check-in stagger, wake jitter, selector pick, rejected-window sample)
comes from its counter-keyed row stream (:class:`repro.sim.rng.RowDraws`),
a whole batch of rows per call — the same seed yields a byte-identical
run, and the device's own generator serves its sessions only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.device.actor import DeviceState
from repro.device.idle import first_checkin_delay, wake_jitter
from repro.sim.diurnal import DiurnalModel, sample_transitions
from repro.sim.event_loop import SECONDS_PER_HOUR, EventLoop, Sweeper
from repro.sim.rng import RowDraws

if TYPE_CHECKING:
    from repro.device.actor import DeviceActor

_INF = float("inf")


class PlaneIdleDriver:
    """A device's handle into the shared plane (one per enrolled device).

    Implements the :class:`repro.device.idle.IdleDriver` contract by
    delegating every operation to the plane row ``index``.
    """

    __slots__ = ("_plane", "_index")

    def __init__(self, plane: "VectorizedIdlePlane", index: int):
        self._plane = plane
        self._index = index

    def start(self) -> None:
        self._plane._start_device(self._index)

    def schedule_checkin(self, delay: float) -> None:
        self._plane._schedule_checkin(self._index, delay)

    def set_pending_window(self, reconnect_at_s: float) -> None:
        self._plane.pending_window_t[self._index] = reconnect_at_s

    def session_started(self) -> None:
        self._plane._session_started(self._index)

    def session_ended(self) -> None:
        self._plane._session_ended(self._index)

    def membership_changed(self) -> None:
        self._plane._membership_changed(self._index)

    def kick_first_checkin(self) -> None:
        self._plane._kick_first_checkin(self._index)


class VectorizedIdlePlane:
    """Fleet-wide vectorized idle state, advanced by batched sweeps.

    ``sweep_interval_s`` quantizes sweep boundaries: transitions fire at
    the next multiple of it at-or-after their exact sampled time (never
    early).  Coarser buckets batch more devices per sweep — one loop
    event and one array scan amortized over all of them — at the cost of
    up to one bucket of added latency per idle transition, which is
    negligible against the hour-scale idle dynamics.  Set it to ``0`` for
    exact-time sweeps (one sweep per distinct transition time).
    """

    def __init__(
        self,
        loop: EventLoop,
        draws: RowDraws,
        diurnal: DiurnalModel,
        capacity: int = 0,
        sweep_interval_s: float = 15.0,
    ):
        self._loop = loop
        self._draws = draws
        #: The availability law every row flips under (one per fleet).
        self._diurnal = diurnal
        self._sweeper = Sweeper(loop, self._sweep)
        self.sweep_interval_s = float(sweep_interval_s)
        n = int(capacity)
        self.next_flip_t = np.full(n, _INF)
        self.next_checkin_t = np.full(n, _INF)
        self.pending_window_t = np.full(n, -_INF)
        #: min(next_flip_t, next_checkin_t) per device, maintained on every
        #: write so a sweep scans one array, not two.
        self._next_event_t = np.full(n, _INF)
        self.eligible = np.zeros(n, dtype=bool)
        self.active = np.zeros(n, dtype=bool)
        self._has_memberships = np.zeros(n, dtype=bool)
        self._tz_offset_s = np.zeros(n)
        #: Each row's counter-keyed stream: key and draws made so far.
        self._row_key = np.zeros(n, dtype=np.uint64)
        self._draw_count = np.zeros(n, dtype=np.uint64)
        #: Cached attestation verdict per device (-1 unknown, 0 fail,
        #: 1 pass): token issue/verify is deterministic per device, so the
        #: screen only pays the hashing once.
        self._attestation_ok = np.full(n, -1, dtype=np.int8)
        self._devices: list["DeviceActor"] = []
        #: Rows started since the last sweep; the next one (armed for the
        #: same instant) starts them as one batch.
        self._starting: list[int] = []
        #: True while a sweep is running: per-device touches skip re-arming
        #: the sweeper (the sweep's final rearm covers them all at once).
        self._sweeping = False
        #: Census tallies, kept by the writes that change them so that
        #: telemetry never recounts the fleet-sized arrays.  (An active
        #: row is always eligible: losing eligibility hands it back.)
        self._eligible_count = 0
        self._active_count = 0
        # -- counters (observability; see ROADMAP.md "Performance") ----------
        self.sweeps = 0
        self.flips = 0
        self.checkins_dispatched = 0
        self.checkins_fast_rejected = 0
        self.materializations = 0

    # -- enrollment ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._devices)

    def adopt(self, device: "DeviceActor") -> PlaneIdleDriver:
        """Enroll a device; returns the driver to install as ``device.idle``.

        Must be called before the device actor is spawned (the driver's
        ``start`` hook runs from ``DeviceActor.on_start``).
        """
        index = len(self._devices)
        self._devices.append(device)
        if index >= self.next_flip_t.size:
            self._grow(index + 1)
        self._has_memberships[index] = bool(device.memberships)
        self._tz_offset_s[index] = device.profile.tz_offset_hours * SECONDS_PER_HOUR
        # One real token round per device, at enrollment: the verdict is
        # deterministic, so every screen reuses it instead of re-hashing.
        # The service's verified/rejected counters are restored so they
        # keep counting *check-ins* (the screen bumps them per screened
        # attempt, the message path per arrival), not enrollments.
        service = device.attestation
        counters = (service.verified_count, service.rejected_count)
        token = service.issue_token(device.device_id, device.profile.genuine)
        self._attestation_ok[index] = int(service.verify(token))
        service.verified_count, service.rejected_count = counters
        driver = PlaneIdleDriver(self, index)
        device.idle = driver
        return driver

    def _grow(self, minimum: int) -> None:
        size = max(minimum, 2 * max(self.next_flip_t.size, 16))

        def extend(arr: np.ndarray, fill) -> np.ndarray:
            out = np.full(size, fill, dtype=arr.dtype)
            out[: arr.size] = arr
            return out

        self.next_flip_t = extend(self.next_flip_t, _INF)
        self.next_checkin_t = extend(self.next_checkin_t, _INF)
        self.pending_window_t = extend(self.pending_window_t, -_INF)
        self._next_event_t = extend(self._next_event_t, _INF)
        self.eligible = extend(self.eligible, False)
        self.active = extend(self.active, False)
        self._has_memberships = extend(self._has_memberships, False)
        self._tz_offset_s = extend(self._tz_offset_s, 0.0)
        self._row_key = extend(self._row_key, 0)
        self._draw_count = extend(self._draw_count, 0)
        self._attestation_ok = extend(self._attestation_ok, -1)

    # -- per-device transitions (driver entry points) ---------------------------
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

    def _start_device(self, i: int) -> None:
        self._starting.append(i)
        self._sweeper.arm(self._loop.now)

    def _start_rows(self, now: float) -> None:
        """Fleet start as one batch: initial eligibility, first flip and
        first check-in stagger of every row started since the last sweep."""
        devices = self._devices
        rows = np.array(self._starting, dtype=np.intp)
        self._starting.clear()
        self._row_key[rows] = self._draws.keys(
            np.array([devices[i].device_id for i in rows.tolist()])
        )
        model, tz = self._diurnal, self._tz_offset_s[rows]
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
        interval = np.array([self._devices[i].job.base_interval_s for i in rows.tolist()])
        self.next_checkin_t[rows] = now + first_checkin_delay(interval, u)

    def _kick_first_checkin(self, i: int) -> None:
        """:meth:`IdleDriver.kick_first_checkin` for row ``i``."""
        if (
            self.eligible[i]
            and not self.active[i]
            and self.next_checkin_t[i] == _INF
        ):
            row = np.array([i])
            self._stagger_first_checkin(row, self._draw(row)[1], self._loop.now)
            self._touch(i)

    def _schedule_checkin(self, i: int, delay: float) -> None:
        self.next_checkin_t[i] = self._loop.now + max(delay, 0.0)
        self._touch(i)

    def _session_started(self, i: int) -> None:
        """Row ``i`` materialized.  Only a sweep's dispatch materializes a
        row, and it has already retired the row's check-in."""
        self._active_count += not self.active[i]
        self.active[i] = True
        self.materializations += 1

    def _session_ended(self, i: int) -> None:
        """The actor handed the device back; the device schedules its next
        check-in (if eligible) right after this call."""
        self._active_count -= bool(self.active[i])
        self.active[i] = False
        self.next_checkin_t[i] = _INF
        self._touch(i)

    def _membership_changed(self, i: int) -> None:
        """Refresh row ``i``'s membership bit after an attach/drain.

        A device whose last tenant left stops counting down to a check-in
        (its row stays swept only for eligibility flips); a device that
        just gained its first tenant is kicked by the lifecycle plane via
        ``kick_first_checkin`` — the membership-array update contract.
        """
        has = bool(self._devices[i].memberships)
        self._has_memberships[i] = has
        if not has:
            self.next_checkin_t[i] = _INF
            self.pending_window_t[i] = -_INF
            self._touch(i)

    # -- the sweep ---------------------------------------------------------------
    def _sweep(self) -> None:
        now = self._loop.now
        self.sweeps += 1
        self._sweeping = True
        try:
            if self._starting:
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
            self._diurnal, now, self._tz_offset_s[rows], ~eligible, -np.log1p(-u_hazard)
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
            for i, now_eligible in zip(
                rows[was_active].tolist(), eligible[was_active].tolist()
            ):
                devices[i].eligible = now_eligible
                if not now_eligible:
                    devices[i].on_eligibility_lost()
        self._next_event_t[rows] = np.minimum(flip_t, checkin_t)

    def _checkin_rows(
        self, rows: np.ndarray, u_pick: np.ndarray, u_window: np.ndarray, now: float
    ) -> None:
        """Dispatch every due check-in: verdicts per row, in device-index
        order (it fixes the shared actors/latency stream); the rejected
        rows' window samples and every array write once per sweep."""
        self.next_checkin_t[rows] = _INF
        self._next_event_t[rows] = self.next_flip_t[rows]
        go = self.eligible[rows] & ~self.active[rows]
        rows, u_pick, u_window = rows[go], u_pick[go], u_window[go]
        self.checkins_dispatched += rows.size
        self.pending_window_t[rows] = -_INF
        devices = self._devices
        rejected, windows = [], []
        for j, (i, cached, pick) in enumerate(zip(
            rows.tolist(), self._attestation_ok[rows].tolist(), u_pick.tolist()
        )):
            device = devices[i]
            verdict = bool(cached) if cached >= 0 else None
            window = device._attempt_screened_checkin(verdict, pick)
            if window is None:
                continue
            rejected.append(j)
            windows.append(window)
            if verdict is not None:
                # Keep AttestationService counters per check-in (as the
                # message path does) without re-hashing: the cached
                # verdict stands in for the verify() this screen skipped.
                # Admitted devices are counted at arrival.
                if verdict:
                    device.attestation.verified_count += 1
                else:
                    device.attestation.rejected_count += 1
        if not rejected:
            return
        self.checkins_fast_rejected += len(rejected)
        rows = rows[rejected]
        earliest = np.array([w.earliest_s for w in windows])
        latest = np.array([w.latest_s for w in windows])
        reconnect_at = earliest + (latest - earliest) * u_window[rejected]
        checkin_t = now + np.maximum(reconnect_at - now, 1.0)
        self.pending_window_t[rows] = reconnect_at
        self.next_checkin_t[rows] = checkin_t
        self._next_event_t[rows] = np.minimum(self.next_flip_t[rows], checkin_t)

    def _rearm(self) -> None:
        t = self._next_event_t.min() if self._next_event_t.size else _INF
        if t < _INF:
            self._sweeper.arm(self._quantize(t))

    # -- observability -----------------------------------------------------------
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
        """The currently materialized devices (WAITING/PARTICIPATING)."""
        devices = self._devices
        return [devices[i] for i in np.nonzero(self.active)[0].tolist()]
