"""The idle half of a device's lifecycle, split out of the actor.

A device spends almost all of its life *not* training: sleeping
(ineligible), or idle between check-ins.  That half of the state machine
— eligibility flips, the periodic check-in timer, the pace-steering
pending window — is owned by an :class:`IdleDriver`, while the
:class:`~repro.device.actor.DeviceActor` itself only runs the active
session pipeline (WAITING → PARTICIPATING → reporting).

Two drivers implement the contract:

* :class:`ActorIdleDriver` (this module) — the per-device, timer-based
  machine: every device owns its own eligibility-flip and check-in
  timers on the event loop.  This is the measurable baseline plane.
* ``PlaneIdleDriver`` (:mod:`repro.sim.idle_plane`) — a thin handle into
  the fleet-wide vectorized idle plane, where the same state lives as
  rows in numpy arrays advanced by batched sweeps.

The check-in timer uses *lazy rescheduling*: instead of cancelling and
re-pushing a heap entry on every pace-steering nudge (which used to
flood the heap with corpses), the driver stores the next-allowed fire
time and validates it when a timer fires — a stale timer either no-ops
or re-arms once at the true due time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

from repro.device.actor import DeviceState

if TYPE_CHECKING:
    from repro.device.actor import DeviceActor

_INF = float("inf")

#: Wake-up jitter bounds (seconds) after regaining eligibility with no
#: pace window pending, and the lower bound of the fleet-start check-in
#: stagger (the upper bound is the device's job interval).
WAKE_JITTER_S = (1.0, 120.0)
FIRST_CHECKIN_MIN_S = 1.0


def wake_jitter(u):
    """The wake-up reconnect delay at uniform draw(s) ``u`` in [0, 1),
    scalar (the timer driver) or a sweep's worth (the vectorized plane)."""
    lo, hi = WAKE_JITTER_S
    return lo + (hi - lo) * u


def first_checkin_delay(job_interval_s, u):
    """The first-check-in stagger — uniform over one job interval — at
    uniform draw(s) ``u``: fleet start and the lifecycle plane's
    attach-time kick, scalar or array alike."""
    return FIRST_CHECKIN_MIN_S + (job_interval_s - FIRST_CHECKIN_MIN_S) * u


class IdleDriver(Protocol):
    """What a :class:`DeviceActor` needs from its idle machinery."""

    def start(self) -> None:
        """Sample initial eligibility, arm the flip process, and schedule
        the device's first check-in.  Called once from ``on_start``."""

    def schedule_checkin(self, delay: float) -> None:
        """Attempt a check-in ``delay`` seconds from now (device idle)."""

    def set_pending_window(self, reconnect_at_s: float) -> None:
        """Record the pace-steering window start: the device should not
        check in again before ``reconnect_at_s``."""

    def session_started(self) -> None:
        """The device materialized: it is WAITING at a Selector (or
        beyond); the idle machinery must stop firing check-ins."""

    def session_ended(self) -> None:
        """The device dematerialized back to IDLE/SLEEPING; the idle
        machinery owns it again."""

    def membership_changed(self) -> None:
        """The device's population membership set changed (a tenant was
        attached to or drained from a live fleet): refresh any membership
        view the driver keeps, and stop pending check-ins when the device
        no longer belongs to any population.  On a live fleet the caller
        follows an enrollment with :meth:`kick_first_checkin`."""

    def kick_first_checkin(self) -> None:
        """The device just gained a membership on a live fleet: if it
        idles eligible with no check-in on the books, schedule its first
        one by the fleet-start law (uniform over one job interval), so a
        rollout reaches its cohort within that interval.  Devices with a
        check-in pending, asleep or in a session pick the membership up
        at their next check-in, flip or session end."""


class ActorIdleDriver:
    """Per-device timer-based idle machine (the actor-plane baseline).

    Owns the device's eligibility-flip timer and its check-in timer, and
    keeps ``device.eligible`` / ``device.state`` in sync for the idle
    states.  Session interruption on eligibility loss is delegated back
    to the actor (:meth:`DeviceActor.on_eligibility_lost`).
    """

    __slots__ = ("_device", "_pending_window_t", "_checkin_due_t", "_armed_t")

    def __init__(self, device: "DeviceActor"):
        self._device = device
        self._pending_window_t: float | None = None
        #: When the next check-in attempt should actually happen; ``inf``
        #: means no attempt is wanted.
        self._checkin_due_t = _INF
        #: Earliest fire time among timers we know to be on the heap;
        #: ``inf`` when none is known.  The invariant is conservative —
        #: forgotten (stale) timers only ever fire *later* than this, so
        #: the worst case is one redundant no-op fire, never a missed due.
        self._armed_t = _INF

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        d = self._device
        d.eligible = d.availability.is_initially_eligible(d.now)
        self._schedule_flip()
        if d.eligible:
            d.state = DeviceState.IDLE
            if d.memberships:
                # Stagger the fleet's first check-ins across the job interval.
                self.schedule_checkin(
                    first_checkin_delay(d.job.base_interval_s, d.rng.random())
                )
        else:
            d.state = DeviceState.SLEEPING

    # -- eligibility flips ----------------------------------------------------
    def _schedule_flip(self) -> None:
        d = self._device
        if d.eligible:
            delay = d.availability.time_until_ineligible(d.now)
        else:
            delay = d.availability.time_until_eligible(d.now)
        d.schedule(delay, self._flip)

    def _flip(self) -> None:
        d = self._device
        d.eligible = not d.eligible
        self._schedule_flip()
        if not d.eligible:
            self._checkin_due_t = _INF
            d.on_eligibility_lost()
        else:
            d.state = DeviceState.IDLE
            if d.memberships:
                if (
                    self._pending_window_t is not None
                    and self._pending_window_t > d.now
                ):
                    self.schedule_checkin(self._pending_window_t - d.now)
                else:
                    self.schedule_checkin(wake_jitter(d.rng.random()))

    # -- pending window --------------------------------------------------------
    def set_pending_window(self, reconnect_at_s: float) -> None:
        self._pending_window_t = reconnect_at_s

    # -- check-in timer (lazy rescheduling) ------------------------------------
    def schedule_checkin(self, delay: float) -> None:
        d = self._device
        due = d.now + max(delay, 0.0)
        self._checkin_due_t = due
        if due < self._armed_t:
            self._armed_t = due
            d.schedule(due - d.now, self._on_checkin_timer)

    def _on_checkin_timer(self) -> None:
        # Whichever armed timer fires first invalidates our knowledge of
        # the rest; stale ones validate against the due time below.
        self._armed_t = _INF
        d = self._device
        due = self._checkin_due_t
        if due > d.now:
            if due < _INF:
                # Fired early (the due moved later after we were armed):
                # re-arm once at the true due time.
                self._armed_t = due
                d.schedule(due - d.now, self._on_checkin_timer)
            return
        self._checkin_due_t = _INF
        if d.eligible and d.state is DeviceState.IDLE and d.memberships:
            self._pending_window_t = None  # consumed by this attempt
            d._attempt_checkin()

    def session_started(self) -> None:
        # The attempt consumed the due time; nothing to stop eagerly —
        # any still-armed timer validates against due=inf and no-ops.
        self._checkin_due_t = _INF

    def session_ended(self) -> None:
        """No-op: the follow-up ``schedule_checkin`` re-arms the timer."""

    def membership_changed(self) -> None:
        # Eligibility flips consult ``device.memberships`` directly; only
        # a pending check-in needs retiring when the last tenant left (the
        # armed heap timer then validates against due=inf and no-ops).
        # The pace window dies with the last membership too — it steered
        # check-ins this device no longer makes.
        if not self._device.memberships:
            self._checkin_due_t = _INF
            self._pending_window_t = None

    def kick_first_checkin(self) -> None:
        d = self._device
        if (
            d.eligible
            and d.state is DeviceState.IDLE
            and self._checkin_due_t == _INF
        ):
            self.schedule_checkin(
                first_checkin_delay(d.job.base_interval_s, d.rng.random())
            )
