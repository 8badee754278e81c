"""The tenancy law and the record law: a device's tenancy and its record
each have one home.

Memberships are the idle plane's columns (``ColumnScheduler._member_pos``),
trainers the tenant's ``PopulationRuntime.trainers``; a ``DeviceActor``
holds neither, only views of both.  Hypothesis drives short scripts of
attach / run / drain / re-attach / snapshot → restore on a small sharded
fleet, forcing some devices into objects at random, and after every step
— and inside every drain, while the tenant is DRAINING — every row must
satisfy:

* the tenants read off its ``_member_pos`` are exactly the ATTACHED
  tenants that list the device, in attach order, positions compact from 0;
* ``_has_memberships == (membership_count > 0)``, and a row with no
  tenant has no check-in on the books once its drain has retired;
* a constructed device's ``memberships`` is its row;
* a trainer resolves for (device, tenant) iff the tenant is ATTACHED or
  DRAINING and lists the device — through the lifecycle plane and through
  the device's own ``trainer_of`` alike;

and its record — what it has tallied and what it mirrors of its row — is
the plane's columns (``check_record``):

* sessions per ``(row, tenant slot)`` are the ``CHECKIN`` records the
  ``EventLog`` holds for that device in that tenant's round-id ranges
  (both are written at ``ConfigureDevice``), and their sum over rows is
  the tenant's ``PopulationReport.device_sessions``;
* ``checkins >= sessions_started``, and ``train_seconds > 0`` only where
  a session started;
* a constructed device's ``health`` is its row, field for field, and its
  ``eligible`` / ``state`` agree with ``plane.eligible`` / ``plane.active``.

The same scripts hold the check-in and commit laws of ``fleet_laws`` —
Selector pool conservation, waiting rows that are only rows, and the
durable-write law — after every step and inside every drain.
"""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleet_laws import check_fleet_laws
from repro import FLFleet, PopulationSpec, RoundConfig, TaskConfig
from repro.analytics.events import EVENTS, DeviceEvent
from repro.device.actor import DeviceActor, DeviceHealthStats, DeviceState
from repro.device.runtime import SyntheticTrainer
from repro.device.scheduler import _UNQUEUED, JobSchedule
from repro.nn.models import LogisticRegression
from repro.sim.network import NetworkConditions
from repro.sim.population import DeviceProfile, PopulationConfig
from repro.system.lifecycle import ROUND_ID_STRIDE, PopulationLifecycle, PopulationState

DEVICES = 60
TENANTS = ("t0", "t1", "t2")
INIT = LogisticRegression(input_dim=4, n_classes=3).init(np.random.default_rng(0))
_INF = float("inf")


def spec_for(name):
    task = TaskConfig(
        task_id=f"{name}/train",
        population_name=name,
        round_config=RoundConfig(
            target_participants=4, selection_timeout_s=60, reporting_timeout_s=120,
        ),
    )
    return PopulationSpec(
        name=name, tasks=[task], initial_params=INIT, membership_fraction=0.6
    )


def build_fleet():
    return (
        FLFleet.builder()
        .seed(11)
        .devices(PopulationConfig(num_devices=DEVICES))
        .selectors(4)
        .selector_shards(2)
        .device_scheduler("fair_share")
        .job(JobSchedule(300.0, 0.5))
        .add_spec(spec_for("t0"))
        .build()
    )


def check_law(fleet, retired=True):
    """``retired``: no drain is under way (inside one, a device that just
    finished its last session for the draining tenant may have booked a
    check-in that the drain's retirement clears)."""
    plane = fleet.idle_plane
    columns = plane.scheduler
    hosted = fleet.lifecycle.active  # ATTACHED and DRAINING, in attach order
    rows = np.arange(DEVICES)
    count = columns.membership_count(rows)
    assert (plane._has_memberships[:DEVICES] == (count > 0)).all()
    for i, device in enumerate(fleet.devices.rows()):
        position = columns._member_pos[i]
        slots = np.flatnonzero(position != _UNQUEUED)
        slots = slots[np.argsort(position[slots])]
        assert position[slots].tolist() == list(range(slots.size))
        tenants = tuple(columns.tenants[slot] for slot in slots.tolist())
        assert tenants == tuple(
            name for name, runtime in hosted.items()
            if runtime.state is PopulationState.ATTACHED and i in runtime.members
        )
        if not tenants and retired:
            assert plane.next_checkin_t[i] == _INF
        if device is not None:
            assert device.memberships == tenants
        for name in TENANTS:
            listed = name in hosted and i in hosted[name].members
            if listed:
                trainer = fleet.lifecycle.trainer_of(i, name)
                position = hosted[name].members.tolist().index(i)
                assert trainer is hosted[name].trainers[position]
                assert device is None or device.trainer_of(name) is trainer
            else:
                with pytest.raises(KeyError):
                    fleet.lifecycle.trainer_of(i, name)
                if device is not None:
                    with pytest.raises(KeyError):
                        device.trainer_of(name)


def check_record(fleet):
    """What every row has tallied, against the log and the report; what
    every constructed device reads, against its row."""
    plane = fleet.idle_plane
    columns = plane.scheduler
    tally = columns.session_counts(DEVICES)
    assert tally.shape[1] == len(columns.tenants)
    # The log's CHECKIN records, counted per (device, tenant slot): a
    # round id names its tenant incarnation, an incarnation its name.
    slot_of_index = {
        runtime.index: columns._slot_of[runtime.name]
        for runtime in fleet.lifecycle.runtimes()
    }
    log = fleet.event_log.rows()
    log = log[log["event"] == EVENTS.index(DeviceEvent.CHECKIN)]
    logged = np.zeros_like(tally)
    slots = [slot_of_index[i] for i in (log["round_id"] // ROUND_ID_STRIDE).tolist()]
    np.add.at(logged, (log["device_id"], slots), 1)
    assert (tally == logged).all()
    for population in fleet.report().populations:
        slot = columns._slot_of[population.name]
        assert population.device_sessions == tally[:, slot].sum()
    started = tally.sum(axis=1)
    assert (plane._health_checkins[:DEVICES] >= started).all()
    assert not (plane.train_seconds[:DEVICES][started == 0] > 0).any()
    for i, device in enumerate(fleet.devices.rows()):
        if device is None:
            continue
        assert device.health == DeviceHealthStats(
            checkins=plane._health_checkins[i],
            sessions_started=started[i],
            train_seconds=plane.train_seconds[i],
            upload_retries=plane.upload_retries[i],
            upload_retries_exhausted=plane.upload_retries_exhausted[i],
            sessions_by_population={
                name: count
                for name, count in zip(columns.tenants, tally[i].tolist()) if count
            },
        )
        assert device.eligible == plane.eligible[i]
        in_session = device.state in (DeviceState.WAITING, DeviceState.PARTICIPATING)
        assert in_session == plane.active[i]
        if not in_session:
            idle = DeviceState.IDLE if plane.eligible[i] else DeviceState.SLEEPING
            assert device.state is idle


def test_device_slots_are_pinned():
    """What a ``DeviceActor`` holds, as an assertion: state creeping back
    onto the object (a tally, a copy of a column, a WAITING state) is a
    reviewed edit to this list.  Nothing carries between sessions: a
    session's object goes when it is over, and its stale timers are
    turned away by ``_aggregator`` being ``None``."""
    assert set(DeviceActor.__slots__) == {
        # what it was built with (``_link``: a hand-built device's link;
        # a fleet's reads its row's link columns)
        "profile", "network", "_link", "trainer_of", "compute",
        "event_log", "_rng", "job", "ack_timeout_s", "upload_retry",
        # where its record and its idle life are
        "plane", "row", "scheduler",
        # the session it is in, and its stream for the session
        "_active_population", "_round_id", "_aggregator", "_ack_timeout_event",
        "_stream",
    }
    # ... and no instance dict for anything else to land in.
    assert all("__slots__" in vars(cls) for cls in DeviceActor.__mro__[:-1])


def test_per_row_record_slots_are_pinned():
    """What the fleet keeps per row outside the columns — a trainer per
    tenant — and the records a constructed device is handed (its profile
    and its link), as an assertion: a new field is a reviewed edit to this
    list, and none of them can bring an instance dict back to every row."""
    profile = DeviceProfile(
        device_id=0, tz_offset_hours=0.0, speed_factor=1.0, memory_mb=4096,
        os_version=28, runtime_version=10, genuine=True,
    )
    # A profile is a tuple built on read: its fields are its items.
    assert type(profile)._fields == (
        "device_id", "tz_offset_hours", "speed_factor", "memory_mb",
        "os_version", "runtime_version", "genuine",
    )
    assert type(profile).__slots__ == ()
    assert not hasattr(profile, "__dict__")
    records = [
        (NetworkConditions(1e6, 1e5, 0.1), (
            "downlink_bytes_per_s", "uplink_bytes_per_s", "rtt_s",
        )),
        (SyntheticTrainer(num_parameters=4), (
            "num_parameters", "mean_examples", "examples_sigma",
            "update_compression_ratio", "_zero_delta",
        )),
    ]
    for record, slots in records:
        assert type(record).__slots__ == slots
        assert not hasattr(record, "__dict__")


steps = st.one_of(
    st.tuples(st.just("attach"), st.sampled_from(TENANTS), st.sampled_from((0.2, 0.6, 1.0))),
    st.tuples(st.just("run"), st.integers(30, 1500)),
    st.tuples(st.just("drain"), st.sampled_from(TENANTS), st.sampled_from((0.0, 90.0, 900.0))),
    st.tuples(st.just("snapshot")),
    st.tuples(
        st.just("force"), st.lists(st.integers(0, DEVICES - 1), min_size=1, max_size=12)
    ),
)


@given(st.lists(steps, min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_tenancy_has_one_home(script):
    fleet = build_fleet()
    check_law(fleet)
    check_record(fleet)
    check_fleet_laws(fleet)
    quiet = PopulationLifecycle._is_quiet
    draining_seen = []

    def probing(lifecycle, runtime):
        # Every drain polls at least once while its tenant is DRAINING.
        assert runtime.state is PopulationState.DRAINING
        check_law(lifecycle.fleet, retired=False)
        check_record(lifecycle.fleet)
        check_fleet_laws(lifecycle.fleet)
        draining_seen.append(runtime.name)
        return quiet(lifecycle, runtime)

    drains = 0
    with tempfile.TemporaryDirectory() as scratch, mock.patch.object(
        PopulationLifecycle, "_is_quiet", probing
    ):
        for number, (kind, *args) in enumerate(script):
            hosted = fleet.population_names
            if kind == "attach":
                name, fraction = args
                if name in hosted:
                    continue
                fleet.attach_population(spec_for(name), membership=fraction)
            elif kind == "run":
                fleet.run_for(float(args[0]))
            elif kind == "drain":
                name, deadline_s = args
                if name not in hosted:
                    continue
                fleet.drain_population(name, deadline_s=deadline_s)
                drains += 1
            elif kind == "snapshot":
                path = Path(scratch) / f"fleet-{number}.snapshot"
                fleet.snapshot(path)
                fleet = FLFleet.restore(path)
            else:
                for index in args[0]:
                    assert fleet.devices[index].device_id == index
            check_law(fleet)
            check_record(fleet)
            check_fleet_laws(fleet)
    assert len(draining_seen) >= drains
