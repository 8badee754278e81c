"""Laws a fleet's check-in and commit paths rest on, as test helpers.

A check-in is judged once, by the idle plane's sweep
(``Selector.fast_checkin_decision``); every row it admits WAITs as idle-plane
columns — ``_waiting_at`` (its Selector, or nowhere once forwarded or
lost on the way) and the worker's running slot (its tenant) — counted per
``(selector, tenant slot)`` in ``_waiting``, which is what a Selector's
``connected_count_for`` reads.  Two laws keep that honest, Sec. 4.2
gives the third, and Sec. 4.1's ephemeral actors the fourth:

* **(i) pool conservation**: the per-``(selector, tenant)`` counts equal a
  recount of the columns, and no route of a live Selector holds more than
  its ``pool_cap`` waiting rows;
* **(ii) a waiting row is a row**: every WAITING row is active, eligible
  and has a session's tenant, and no device object of it is in a round's
  session (it has none, or one built for the round it was forwarded to);
* **(iii) one durable write per committed round**: ``store.write_count``
  equals the committed rounds plus one initial checkpoint per tenant
  incarnation, at any checkpoint-fault rate;
* **(iv) a device is an object only in a session**: the ``DeviceActor``s
  alive are the device table's, each of a row PARTICIPATING or forwarded
  and awaiting its configuration — so there are at most that many.

:func:`check_fleet_laws` checks all four at an instant;
:func:`run_checked` checks them over a stretch of simulated time.
"""

import numpy as np

from repro.device.actor import DeviceActor


def check_pool_conservation(fleet) -> None:
    """Law (i)."""
    plane = fleet.idle_plane
    rows = len(plane)
    at = plane._waiting_at[:rows]
    waiting = at >= 0
    recount = np.zeros_like(plane._waiting)
    np.add.at(recount, (at[waiting], plane.scheduler._running[:rows][waiting]), 1)
    where = f"pool law at t={fleet.loop.now}"
    assert (recount == plane._waiting).all(), (
        f"{where}: counts {plane._waiting.tolist()}, columns say {recount.tolist()}"
    )
    for selector in fleet.selector_actors():
        for name, route in selector.routes.items():
            pooled = selector.connected_count_for(name)
            assert pooled == plane.pooled(selector.index, name).size, (
                f"{where}, {selector.ref.name} / {name!r}: count {pooled} "
                "is not its rows"
            )
            assert pooled <= route.pool_cap, (
                f"{where}, {selector.ref.name} / {name!r}: pool {pooled} "
                f"> cap {route.pool_cap}"
            )


def check_waiting_rows(fleet) -> None:
    """Law (ii)."""
    plane = fleet.idle_plane
    rows = np.flatnonzero(plane._waiting_at[: len(plane)] >= 0)
    where = f"waiting-row law at t={fleet.loop.now}"
    assert plane.active[rows].all() and plane.eligible[rows].all(), where
    assert (plane.scheduler._running[rows] >= 0).all(), where
    devices = fleet.devices.rows()
    for i in rows.tolist():
        device = devices[i]
        assert device is None or device._aggregator is None, (
            f"{where}: row {i} waits, but its device is in a session"
        )


def check_write_count(fleet) -> None:
    """Law (iii)."""
    committed = len(fleet.committed_rounds)
    incarnations = len(fleet.lifecycle.runtimes())
    assert fleet.store.write_count == committed + incarnations, (
        f"durable-write law at t={fleet.loop.now}: {fleet.store.write_count} "
        f"writes, {committed} committed rounds + {incarnations} initial checkpoints"
    )


def check_resident_devices(fleet) -> None:
    """Law (iv)."""
    plane = fleet.idle_plane
    live = {i for i, device in enumerate(fleet.devices.rows()) if device is not None}
    alive = [
        actor.row
        for ref in fleet.actors.living_actors()
        if isinstance(actor := fleet.actors.actor_of(ref), DeviceActor)
    ]
    in_session = plane.participating_rows()
    forwarded = np.flatnonzero(plane._waiting_at[: len(plane)] == len(fleet.selectors))
    where = f"residency law at t={fleet.loop.now}"
    assert sorted(alive) == sorted(live), where
    assert len(live) <= in_session.size + forwarded.size, where
    assert live <= set(in_session.tolist()) | set(forwarded.tolist()), where


def check_fleet_laws(fleet) -> None:
    check_pool_conservation(fleet)
    check_waiting_rows(fleet)
    check_write_count(fleet)
    check_resident_devices(fleet)


def run_checked(fleet, seconds: float, step_s: float = 600.0) -> None:
    """Advance ``fleet`` by ``seconds`` in ``step_s`` steps — the same
    trajectory as one ``run_for`` — with every law checked after every
    step."""
    end = fleet.loop.now + seconds
    while fleet.loop.now < end:
        fleet.run_for(min(step_s, end - fleet.loop.now))
        check_fleet_laws(fleet)
