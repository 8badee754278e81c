"""Devices are rows until they are admitted — held by count and by byte.

The paper's fleet is ~10^7 devices with ~10^4 live at a time (Sec. 9): a
device that has never been admitted must cost a row of the idle plane's
columns, not a Python object.  On an idle-majority fleet (the regime of
``tests/system/test_checkin_budget.py``, five times the rows):

* no ``DeviceActor`` exists after ``.build()``, nor after the sweep that
  starts the fleet;
* after a simulated day the devices that exist are only rows in a
  session — a row a Selector admits WAITs as columns, and a session's
  device goes when it is over — one was built per session and per
  configuration turned away, and reporting on the fleet builds none;
* what ``.build()`` allocates per row — profile and link columns, the
  tenant's trainer and every other column included — stays under a
  stated budget, and its traced peak stays within a smaller one of what
  it keeps;
* every check-in is still on its device's health record, read through a
  walk that builds a look at every row and keeps none.

Counts and traced bytes, so it cannot flake.
"""

import gc
import tracemalloc

import numpy as np

from repro import FLFleet, RoundConfig, TaskConfig
from repro.actors.coordinator import CoordinatorConfig
from repro.core.pace import PaceConfig
from repro.device.actor import DeviceActor
from repro.device.scheduler import JobSchedule
from repro.nn.models import LogisticRegression
from repro.sim.population import PopulationConfig

ROWS = 20_000
#: Traced bytes ``.build()`` may allocate per row.  The floor — what a
#: never-admitted row keeps — measures 0.35 kB (353 B): the idle plane's
#: columns (157 B, of which the profile's seven fields are 49 B and the
#: link's three 24 B: a ``DeviceProfile`` / ``NetworkConditions`` is
#: built only for a constructed device), the worker-queue columns (40 B),
#: the tenant's slotted ``SyntheticTrainer`` (88 B) and its slot in the
#: tenant's trainer list (8 B) and the tenant's member-row array (8 B);
#: ~40 B is not attributed to a row.  It was 361 B while the device table
#: held an 8 B entry per row, 0.64 kB while every row held a
#: ``DeviceProfile`` object and the tenant a member-id set and a trainer
#: dict, 0.95 kB while every row held a ``NetworkConditions`` and the
#: three records each an instance dict; one ``DeviceActor`` per row, with
#: its row handles and mailbox, was ~3.7 kB.
BUILD_BYTES_PER_ROW = 400
#: Traced bytes per row the peak during ``.build()`` may exceed what the
#: build keeps.  It measures 24 B: the tenant's factory gets its members'
#: ``DeviceProfile``s a chunk at a time (~0.25 kB a profile, one chunk
#: live) and the fleet is attested in one batched round.  It was 263 B
#: while the build held every row's profile in one list.
BUILD_PEAK_BYTES_PER_ROW = 64


def build_fleet():
    params = LogisticRegression(input_dim=4, n_classes=3).init(
        np.random.default_rng(0)
    )
    task = TaskConfig(
        task_id="train/pop",
        population_name="pop",
        round_config=RoundConfig(target_participants=10),
    )
    return (
        FLFleet.builder()
        .seed(2019)
        .devices(PopulationConfig(num_devices=ROWS))
        .selectors(1)
        .coordinator(CoordinatorConfig(pipelining=False, inter_round_gap_s=2700.0))
        .pace(PaceConfig(
            round_period_s=2700.0,
            small_population_threshold=500,
            max_reconnect_delay_s=7200.0,
        ))
        .job(JobSchedule(3600.0, 0.5))
        .waiting_timeout(3600.0)
        .population("pop", tasks=[task], model=params)
        .build()
    )


def device_objects(fleet) -> int:
    """``DeviceActor``s this fleet holds: seated in its table, or known
    to its actor system."""
    seated = sum(device is not None for device in fleet.devices.rows())
    spawned = sum(
        isinstance(fleet.actors.actor_of(ref), DeviceActor)
        for ref in fleet.actors.living_actors()
    )
    assert seated == spawned
    return seated


def test_a_never_admitted_device_is_only_a_row(monkeypatch):
    #: One entry per configuration a device received: did it start a session?
    started = []
    configure = DeviceActor._attempt_screened_checkin

    def recording(self, message):
        in_session = self._aggregator is not None
        configure(self, message)
        started.append(not in_session and self._aggregator is not None)

    monkeypatch.setattr(DeviceActor, "_attempt_screened_checkin", recording)

    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        fleet = build_fleet()
        gc.collect()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # (c) the build's bytes per row, and its peak's.
    assert (after - before) / ROWS <= BUILD_BYTES_PER_ROW
    assert (peak - after) / ROWS <= BUILD_PEAK_BYTES_PER_ROW

    # (a) rows only: after the build, and after the sweep that starts them.
    plane = fleet.idle_plane
    assert len(fleet.devices) == len(plane) == ROWS
    assert device_objects(fleet) == 0
    fleet.run_for(0.0)
    assert plane.sweeps == 1 and plane._started == ROWS
    assert 0 < np.count_nonzero(plane.eligible) < ROWS
    assert device_objects(fleet) == 0

    # (b) a day on: the devices that exist are rows in a session — in a
    # round, or forwarded to one and waiting for its configuration — and
    # one was built per session and per configuration turned away.
    fleet.run_days(1.0)
    assert plane.checkins_fast_rejected > 4 * plane.materializations > 0
    resident = device_objects(fleet)
    in_session = set(plane.participating_rows().tolist())
    forwarded = set(np.flatnonzero(plane._waiting_at == len(fleet.selectors)).tolist())
    live = {i for i, device in enumerate(fleet.devices.rows()) if device is not None}
    assert in_session <= live <= in_session | forwarded
    assert resident == len(live) <= len(in_session) + len(forwarded)
    sessions = sum(p.device_sessions for p in fleet.report().populations)
    assert sum(started) == sessions > 0
    assert fleet.devices.constructions == sessions + started.count(False)
    assert resident < sessions // 4
    # ... and reporting on the fleet leaves the rest as rows.
    report = fleet.report()
    health = fleet.health_report()
    assert report.rounds_committed >= 10 and report.health == health
    assert health.sessions["count"] == ROWS
    assert sum(health.sessions_by_os_version.values()) == sum(
        p.device_sessions for p in report.populations
    )
    assert device_objects(fleet) == resident

    # (d) every attempt is on its device's health record — read through a
    # walk that builds a look at every row it reads, and keeps none.
    assert sum(d.health.checkins for d in fleet.devices) == (
        plane.checkins_fast_rejected + plane.materializations
    )
    assert device_objects(fleet) == resident
    assert fleet.report() == report
