"""The two delay laws of a device's idle life.

A device spends almost all of its life *not* training: sleeping
(ineligible), or idle between check-ins.  That half of the state machine
— eligibility flips, the periodic check-in, the pace-steering pending
window — is a row of the fleet-wide :class:`~repro.sim.idle_plane.
VectorizedIdlePlane`, whose per-row entry points a
:class:`~repro.device.actor.DeviceActor` calls with its ``row``; the
actor itself only runs a round's session (PARTICIPATING → reporting).

What stays here is what the plane's sweeps and the lifecycle plane's
attach-time kick both draw from: how long a device that just woke waits
before reconnecting, and how a first check-in is staggered.
"""

from __future__ import annotations

#: Wake-up jitter bounds (seconds) after regaining eligibility with no
#: pace window pending, and the lower bound of the fleet-start check-in
#: stagger (the upper bound is the device's job interval).
WAKE_JITTER_S = (1.0, 120.0)
FIRST_CHECKIN_MIN_S = 1.0


def wake_jitter(u):
    """The wake-up reconnect delay at uniform draw(s) ``u`` in [0, 1)."""
    lo, hi = WAKE_JITTER_S
    return lo + (hi - lo) * u


def first_checkin_delay(job_interval_s, u):
    """The first-check-in stagger — uniform over one job interval — at
    uniform draw(s) ``u``: fleet start and the lifecycle plane's
    attach-time kick."""
    return FIRST_CHECKIN_MIN_S + (job_interval_s - FIRST_CHECKIN_MIN_S) * u
