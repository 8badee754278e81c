"""Three laws a fleet's check-in and commit paths rest on, as test helpers.

A check-in is judged once, by the idle plane's sweep
(``Selector.fast_checkin_decision``), which reserves a pool slot for
every row it admits; the ``DeviceCheckin`` that follows releases it.
Two laws keep that honest, and Sec. 4.2 gives the third:

* **(i) quota conservation**, on every route of every live Selector:
  ``0 <= pending_admissions <=`` the number of that (Selector, tenant)'s
  WAITING devices not in its pool — a reservation is held only by a
  device whose check-in is on its way — and ``len(pool) +
  pending_admissions <= pool_cap``;
* **(ii) every check-in finds its reservation**: a ``DeviceCheckin`` that
  reaches a hosted route from a device still waiting on it finds
  ``pending_admissions > 0``.  (A check-in whose device has already left
  WAITING — its session interrupted while the message was in flight — is
  stale: it may land on a route that no longer holds its slot);
* **(iii) one durable write per committed round**: ``store.write_count``
  equals the committed rounds plus one initial checkpoint per tenant
  incarnation, at any checkpoint-fault rate.

:func:`check_fleet_laws` checks (i) and (iii) at an instant;
:func:`reservations_checked` checks (ii) at every arrival while it is
entered; :func:`run_checked` does both over a stretch of simulated time.
"""

from contextlib import contextmanager
from unittest import mock

from repro.actors.selector import Selector
from repro.device.actor import DeviceState


def check_quota_conservation(fleet) -> None:
    """Law (i)."""
    waiting: dict[tuple[int, str], set[int]] = {}
    for device in fleet.idle_plane.active_devices():
        if device.state is DeviceState.WAITING:
            key = (device._selector.actor_id, device._active_population)
            waiting.setdefault(key, set()).add(device.device_id)
    for selector in fleet.selector_actors():
        for name, route in selector.routes.items():
            holders = waiting.get((selector.ref.actor_id, name), set()) - route.pool.keys()
            where = f"quota law at t={fleet.loop.now}, {selector.ref.name} / {name!r}"
            assert 0 <= route.pending_admissions <= len(holders), (
                f"{where}: {route.pending_admissions} reservations, "
                f"{len(holders)} waiting devices outside the pool"
            )
            assert len(route.pool) + route.pending_admissions <= route.pool_cap, (
                f"{where}: pool {len(route.pool)} + {route.pending_admissions} "
                f"reserved > cap {route.pool_cap}"
            )


def check_write_count(fleet) -> None:
    """Law (iii)."""
    committed = len(fleet.committed_rounds)
    incarnations = len(fleet.lifecycle.runtimes())
    assert fleet.store.write_count == committed + incarnations, (
        f"durable-write law at t={fleet.loop.now}: {fleet.store.write_count} "
        f"writes, {committed} committed rounds + {incarnations} initial checkpoints"
    )


def check_fleet_laws(fleet) -> None:
    check_quota_conservation(fleet)
    check_write_count(fleet)


@contextmanager
def reservations_checked():
    """Law (ii) at every ``DeviceCheckin`` delivered while entered."""
    on_checkin = Selector._on_checkin

    def checked(selector, checkin):
        route = selector.routes.get(checkin.population_name)
        device = selector.system.actor_of(checkin.device_ref)
        waiting = (
            device is not None
            and device.state is DeviceState.WAITING
            and device._selector == selector.ref
            and device._active_population == checkin.population_name
        )
        if route is not None and waiting:
            assert route.pending_admissions > 0, (
                f"reservation law at t={selector.now}: device "
                f"{checkin.device_id}'s check-in reached {selector.ref.name} / "
                f"{checkin.population_name!r} with no reservation"
            )
        on_checkin(selector, checkin)

    with mock.patch.object(Selector, "_on_checkin", checked):
        yield


def run_checked(fleet, seconds: float, step_s: float = 600.0) -> None:
    """Advance ``fleet`` by ``seconds`` in ``step_s`` steps — the same
    trajectory as one ``run_for`` — with law (ii) at every arrival and
    (i) and (iii) after every step."""
    end = fleet.loop.now + seconds
    with reservations_checked():
        while fleet.loop.now < end:
            fleet.run_for(min(step_s, end - fleet.loop.now))
            check_fleet_laws(fleet)
