"""A hand-built ``DeviceActor`` on an idle plane: the one-row case of
``VectorizedIdlePlane.adopt_rows``, with the object seated until its
session is over and its memberships written to its row.  No fleet does
this — a fleet enrolls its rows in bulk and builds a row's device for a
session — but a unit test drives one device through a one-row plane
(``tests/device/test_actor.py``, ``tests/sim/test_idle_plane.py``).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.device.scheduler import RowScheduler


def adopt(plane, device, memberships: Sequence[str] = ()) -> None:
    """Enroll ``device`` as ``plane``'s next row, a member of
    ``memberships``.  Call it before the device actor is spawned
    (``DeviceActor.on_start`` starts the row): it hands the device the
    plane, its row index and the row's view of the worker queue."""
    index = len(plane)
    link = device.conditions
    plane.adopt_rows(
        {name: [value] for name, value in device.profile._asdict().items()},
        device.job.base_interval_s,
        ([link.downlink_bytes_per_s], [link.uplink_bytes_per_s], [link.rtt_s]),
    )
    plane._devices.seat(index, device)
    device.plane, device.row = plane, index
    device.scheduler = RowScheduler(plane.scheduler, index)
    row = np.array([index])
    for name in memberships:
        plane.scheduler.enroll(row, name)
    plane.memberships_changed(row)
