"""Vectorized idle-plane edge cases and fleet-level determinism."""

import pickle

import numpy as np
import pytest

from repro import FLFleet, FaultPlan, PopulationSpec
from repro.actors.kernel import Actor, ActorSystem
from repro.actors import messages as msg
from repro.analytics.events import EventLog
from repro.core.config import ClientTrainingConfig, RoundConfig, TaskConfig
from repro.core.pace import ReconnectWindow
from repro.device.actor import DeviceActor, DeviceState
from repro.device.attestation import AttestationService
from repro.device.runtime import ComputeModel, SyntheticTrainer
from repro.device.scheduler import JobSchedule
from repro.nn.models import MLPClassifier
from repro.sim.diurnal import DiurnalModel
from repro.sim.event_loop import EventLoop
from repro.sim.idle_plane import VectorizedIdlePlane
from repro.sim.network import NetworkConditions, NetworkModel
from repro.sim.population import DeviceProfile, PopulationConfig
from repro.sim.rng import RngRegistry
from repro.system import ActorCrashSchedule, DeviceInterruptSchedule, MessageFaultConfig


class StubServer(Actor):
    """Collects the reports devices send.  No fast check-in screen: an
    admitted check-in waits, nowhere, for a ``ConfigureDevice``."""

    def __init__(self):
        self.reports = []

    def receive(self, sender, message):
        if isinstance(message, msg.DeviceReport):
            self.reports.append(message)


class RejectingServer(StubServer):
    """A selector stand-in whose fast screen always bounces devices."""

    def __init__(self, window: ReconnectWindow):
        super().__init__()
        self.window = window
        self.screened = 0

    def fast_checkin_decision(self, population_name, attestation_ok, runtime_versions):
        self.screened += len(attestation_ok)
        return (), self.window


#: Scripted eligibility laws.  The plane resamples every flip from its
#: fleet-wide diurnal model, so a test scripts the *law*: a device that
#: starts eligible and (to any horizon a test runs) stays so, and one
#: that flips about once a simulated minute.
ALWAYS_ELIGIBLE = DiurnalModel(
    amplitude=0.0, base_eligible_fraction=1.0, mean_eligible_minutes=1e9
)
FLIPS_EVERY_MINUTE = DiurnalModel(
    amplitude=0.0, base_eligible_fraction=0.5, mean_eligible_minutes=1.0
)


def make_harness(diurnal):
    loop = EventLoop()
    rngs = RngRegistry(0)
    system = ActorSystem(loop, rngs.stream("lat"), mean_latency_s=0.001)
    server = StubServer()
    server_ref = system.spawn(server, "stub")
    plane = VectorizedIdlePlane(
        loop, rngs.row_draws("rows"), diurnal,
        selectors=[server_ref], actor_of=system.actor_of,
        attestation=AttestationService(), capacity=4,
    )
    return loop, system, plane, server, server_ref, rngs


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.setattr("repro.device.actor.COMPUTE_ERROR_PROB", 0.0)
    return make_harness(ALWAYS_ELIGIBLE)


def make_device(system, plane, rngs, memberships=("pop",), **kwargs):
    profile = DeviceProfile(
        device_id=len(plane), tz_offset_hours=0.0, speed_factor=1.0,
        memory_mb=4096, os_version=28, runtime_version=10, genuine=True,
    )
    network = NetworkModel(transfer_failure_prob=0.0)
    rng = rngs.stream(f"dev/{profile.device_id}")
    device = DeviceActor(
        profile=profile,
        network=network,
        conditions=network.sample_conditions(rng),
        trainer_of={
            name: SyntheticTrainer(num_parameters=10) for name in memberships
        }.__getitem__,
        compute=ComputeModel(examples_per_second=100.0, setup_overhead_s=1.0),
        event_log=EventLog(),
        rng=rng,
        job=JobSchedule(600.0, 0.1),
        **kwargs,
    )
    plane.adopt(device, memberships)
    system.spawn(device, profile.name)
    system.loop.run(until=system.loop.now)  # the plane starts the row
    return device


def test_flip_to_ineligible_exactly_at_sweep_boundary_suppresses_checkin(harness):
    loop, system, plane, server, server_ref, rngs = harness
    plane.sweep_interval_s = 15.0
    boundary = 600.0  # a multiple of the sweep interval
    device = make_device(system, plane, rngs)
    # Force the flip and the check-in due time onto the same boundary.
    plane.next_flip_t[0] = boundary
    plane.schedule_checkin(device.row, boundary - loop.now)
    loop.run(until=boundary + 60.0)
    # The flip is processed first within the sweep: the device went
    # ineligible at the boundary, so the simultaneous check-in never fires.
    assert plane.materializations == 0 and device.health.checkins == 0
    assert not plane.eligible[0] and not plane.active[0]
    assert plane.next_checkin_t[0] == float("inf")
    assert plane.flips >= 1 and plane.checkins_dispatched == 0


def test_zero_membership_device_never_checks_in_but_keeps_flipping():
    loop, system, plane, server, server_ref, rngs = make_harness(FLIPS_EVERY_MINUTE)
    device = make_device(system, plane, rngs, memberships=())
    loop.run(until=3000.0)
    assert plane.flips >= 8           # kept flipping, a minute or so apart
    assert plane.checkins_dispatched == 0
    assert device.health.checkins == 0
    assert plane.next_checkin_t[0] == float("inf")
    assert not plane.active[0]


def make_configure(round_id, agg_ref):
    from repro.core.checkpoint import FLCheckpoint
    from repro.core.config import SecAggConfig, TaskKind
    from repro.core.plan import generate_plan
    from repro.nn.models import LogisticRegression

    plan = generate_plan(
        task_id="t", kind=TaskKind.TRAINING,
        client_config=ClientTrainingConfig(), secagg=SecAggConfig(),
        model_nbytes=100,
    )
    model = LogisticRegression(input_dim=2, n_classes=2)
    ckpt = FLCheckpoint.from_params(
        model.init(np.random.default_rng(0)), "pop", "t", 0
    )
    return msg.ConfigureDevice(
        round_id=round_id, task_id="t", plan=plan, checkpoint=ckpt,
        aggregator=agg_ref,
    )


def test_stale_waiting_timer_does_not_break_rematerialized_device(harness):
    loop, system, plane, server, server_ref, rngs = harness
    device = make_device(system, plane, rngs)
    loop.run(until=700.0)
    assert device.state is DeviceState.WAITING
    first_deadline = plane.next_checkin_t[0]
    # Run a full session so the device hands itself back to the plane...
    system.tell(device.ref, make_configure(5, server_ref))
    while not server.reports and loop.now < 5000.0:
        loop.run(until=loop.now + 5.0)
    system.tell(device.ref, msg.ReportAck(round_id=5, accepted=True))
    loop.run(until=loop.now + 10.0)
    assert device.health.sessions_started == 1
    # ... then wait again promptly.
    plane.schedule_checkin(device.row, 1.0)
    loop.run(until=loop.now + 120.0)
    assert device.state is DeviceState.WAITING
    assert plane.active[0]
    # The first wait's deadline passes: the new wait has its own, later
    # one, and is not hung up.
    assert plane.next_checkin_t[0] > first_deadline
    loop.run(until=first_deadline + 60.0)
    assert device.state is DeviceState.WAITING
    assert plane.active[0]
    assert device.scheduler.running == "pop"
    # A configuration that arrives for a wait that hung up is turned away.
    loop.run(until=plane.next_checkin_t[0] + 60.0)
    assert device.state is DeviceState.IDLE
    system.tell(device.ref, make_configure(6, server_ref))
    loop.run(until=loop.now + 10.0)
    assert device.state is DeviceState.IDLE and device.health.sessions_started == 1


def test_fast_rejected_device_never_materializes(harness):
    loop, system, plane, server, _ref, rngs = harness
    window = ReconnectWindow(5000.0, 5100.0)
    rejecting = RejectingServer(window)
    plane._selectors[0] = system.spawn(rejecting, "rejecting")
    device = make_device(system, plane, rngs)
    loop.run(until=700.0)
    assert rejecting.screened == 1
    assert plane.materializations == 0       # no stream was ever opened
    assert device.state is not DeviceState.WAITING  # never left the plane
    assert not plane.active[0]
    assert plane.checkins_fast_rejected == 1
    assert device.health.checkins == 1       # the attempt still counts
    # The pace window gates the retry.
    assert 5000.0 <= plane.next_checkin_t[0] <= 5101.0
    assert plane.pending_window_t[0] >= 5000.0


def _row_arrays(plane):
    """Every array on the plane or its scheduler that is one entry (or one
    row) per device — found by shape, not by the column tables."""
    capacity = plane.next_flip_t.shape[0]
    return {
        (owner_name, name): value
        for owner_name, owner in (("plane", plane), ("scheduler", plane.scheduler))
        for name, value in vars(owner).items()
        if isinstance(value, np.ndarray) and value.shape[:1] == (capacity,)
    }


def test_health_read_is_pure_and_the_health_record_is_complete(harness):
    """Reading a row's record (what ``device.health`` does) writes no
    column, a row that has done nothing reads as a fresh
    ``DeviceHealthStats`` field for field, and the value is frozen: the
    columns are the record's one home, so a tally is a column write."""
    from dataclasses import FrozenInstanceError, asdict

    from repro.device.actor import DeviceHealthStats

    loop, system, plane, server, server_ref, rngs = harness
    device = make_device(system, plane, rngs)
    plane._health_checkins[0] = 7
    arrays = _row_arrays(plane)
    before = {key: value.copy() for key, value in arrays.items()}
    health = device.health
    for key, column in before.items():
        assert (arrays[key] == column).all(), key
    assert health == plane.health(0)
    assert asdict(health) == {**asdict(DeviceHealthStats()), "checkins": 7}
    with pytest.raises(FrozenInstanceError):
        health.checkins += 1
    plane._health_checkins[0] += 1
    plane.train_seconds[0] += 2.5
    plane.scheduler.count_session(0, "pop")
    assert asdict(device.health) == {
        **asdict(DeviceHealthStats()), "checkins": 8, "train_seconds": 2.5,
        "sessions_started": 1, "sessions_by_population": {"pop": 1},
    }


def assert_one_record(plane):
    """Every field a sweep touches per due row is a view of one record of
    64-byte, cache-line-aligned rows; ``_next_event_t``, which the due scan
    and the re-arm read whole, is a contiguous column outside it, and so
    is every other column."""
    record = plane._record
    assert record.dtype.itemsize == 64 and record.ctypes.data % 64 == 0
    assert set(record.dtype.names) == {name for name, *_ in plane._RECORD}
    for name, *_ in plane._RECORD:
        view, offset = getattr(plane, name), record.dtype.fields[name][1]
        assert view.ctypes.data == record.ctypes.data + offset, name
        assert view.strides == (64,) and view.shape == record.shape, name
        assert np.shares_memory(view, record) and view.flags.aligned, name
    for name, *_ in plane._COLUMNS:
        column = getattr(plane, name)
        assert column.flags.c_contiguous, name
        assert not np.shares_memory(column, record), name
    assert plane._next_event_t.flags.c_contiguous


def test_growing_past_capacity_mid_run_keeps_every_column():
    loop, system, plane, server, _ref, rngs = make_harness(FLIPS_EVERY_MINUTE)
    assert_one_record(plane)
    capacity = plane.next_flip_t.shape[0]
    first = [
        make_device(system, plane, rngs, memberships=("pop", "other"))
        for _ in range(capacity)
    ]
    loop.run(until=1800.0)  # flips, check-ins, sessions: no column is at its fill
    before = {key: value.copy() for key, value in _row_arrays(plane).items()}
    table = plane._COLUMNS + plane._RECORD
    declared = {("plane", name) for name, *_ in table} | {("plane", "_record")} | {
        ("scheduler", name)
        for name, *_ in plane.scheduler._ROW_COLUMNS + plane.scheduler._SLOT_COLUMNS
    }
    assert set(before) == declared  # nothing per-row is allocated by hand

    late = [make_device(system, plane, rngs) for _ in range(3 * capacity)]
    after = _row_arrays(plane)
    assert set(after) == declared
    assert_one_record(plane)
    for key, old in before.items():
        new = after[key]
        assert new.shape[0] >= len(plane) > capacity, key
        assert new.dtype == old.dtype and new.shape[1:] == old.shape[1:], key
        np.testing.assert_array_equal(new[:capacity], old, err_msg=str(key))
    fills = {("plane", name): fill for name, _, fill in table}
    for (owner, name), fill in fills.items():
        np.testing.assert_array_equal(
            after[owner, name][len(plane):], fill, err_msg=name
        )
    # A snapshot carries the record once, and a restore binds the views
    # to its own record again; both copies then run the same.
    state = plane.__getstate__()
    assert "_record" in state and not {name for name, *_ in plane._RECORD} & set(state)
    twin_loop, twin_plane = pickle.loads(pickle.dumps((loop, plane)))
    assert_one_record(twin_plane)
    for name, *_ in table:
        np.testing.assert_array_equal(getattr(twin_plane, name), getattr(plane, name))
    # The grown fleet keeps running: the late rows flip and check in too.
    loop.run(until=5400.0)
    twin_loop.run(until=5400.0)
    assert all(plane._draw_count[i] > 0 for i in range(len(plane)))
    assert plane.materializations == sum(d.health.checkins for d in first + late)
    assert sum(d.health.checkins for d in late) > 0
    assert twin_plane._record.tobytes() == plane._record.tobytes()
    assert twin_plane._next_event_t.tobytes() == plane._next_event_t.tobytes()


def test_a_hand_built_devices_link_is_written_to_its_row(harness):
    loop, system, plane, server, _ref, rngs = harness
    devices = [make_device(system, plane, rngs) for _ in range(3)]
    assert len({d.conditions.downlink_bytes_per_s for d in devices}) == 3
    for device in devices:
        assert plane.conditions(device.row) == device.conditions


# ---------------------------------------------------------------------------
# fleet-level: determinism and the census


def build_fleet(seed: int, devices: int):
    model = MLPClassifier(input_dim=8, hidden_dims=(16,), n_classes=4)
    params = model.init(np.random.default_rng(0))
    task = TaskConfig(
        task_id="t",
        population_name="pop",
        round_config=RoundConfig(target_participants=15),
        client_config=ClientTrainingConfig(epochs=1, batch_size=8),
    )
    return (
        FLFleet.builder()
        .seed(seed)
        .devices(PopulationConfig(num_devices=devices))
        .population("pop", tasks=[task], model=params)
        .build()
    )


def test_vectorized_plane_is_deterministic():
    runs = []
    for _ in range(2):
        fleet = build_fleet(seed=7, devices=150)
        fleet.run_days(0.15)
        runs.append(fleet.report())
    assert runs[0] == runs[1]


def test_a_constructed_devices_link_is_its_rows_draw():
    """A fleet keeps each row's link as plane columns, drawn by one
    ``network/conditions`` batch; the device constructed for a row gets
    exactly that row's draw, whenever it is constructed."""
    fleet = build_fleet(seed=5, devices=40)
    down, up, rtt = fleet.config.network.sample_conditions_batch(
        40, RngRegistry(5).stream("network/conditions")
    )
    assert fleet.devices.constructions == 0
    for i in (39, 0, 17):
        assert fleet.devices[i].conditions == NetworkConditions(down[i], up[i], rtt[i])


def test_plane_state_counts_match_device_states():
    fleet = build_fleet(seed=3, devices=120)
    plane = fleet.idle_plane
    for _ in range(6):
        fleet.run_days(0.012)
        counts = plane.state_counts()
        # A recount of the arrays, and of the devices in a round's session.
        waiting = plane._waiting_at[:120] >= 0
        truth = {
            DeviceState.SLEEPING: int((~plane.eligible[:120]).sum()),
            DeviceState.IDLE: int((plane.eligible & ~plane.active).sum()),
            DeviceState.WAITING: int(waiting.sum()),
            DeviceState.PARTICIPATING: len(plane.participating_devices()),
        }
        assert counts == truth
        assert not (waiting & ~plane.active[:120]).any()
        for device in plane.participating_devices():
            assert device.state is DeviceState.PARTICIPATING
            assert device._aggregator is not None
        assert sum(counts.values()) == 120
        # The running tallies equal a recount of the arrays.
        assert plane._eligible_count == int(plane.eligible.sum())
        assert plane._active_count == int(plane.active.sum())
        assert not (plane.active & ~plane.eligible).any()


# ---------------------------------------------------------------------------
# the participating rows: the device table's live rows, not a fleet scan


def scanned_participants(plane):
    """The rows in a round's session, by a scan of every row."""
    return np.flatnonzero(plane.active & (plane._waiting_at < 0))


CHAOS = FaultPlan(
    crashes=(ActorCrashSchedule("selector", mean_interval_s=1800.0),),
    messages=MessageFaultConfig(drop_prob=0.01, delay_prob=0.02, delay_mean_s=2.0),
    device_interrupts=DeviceInterruptSchedule(mean_interval_s=600.0),
)


def spec_for(name, target, membership):
    task = TaskConfig(
        task_id=f"{name}/train", population_name=name,
        round_config=RoundConfig(
            target_participants=target, selection_timeout_s=60, reporting_timeout_s=150
        ),
    )
    params = MLPClassifier(input_dim=8, hidden_dims=(16,), n_classes=4).init(
        np.random.default_rng(0)
    )
    return PopulationSpec(
        name=name, tasks=[task], initial_params=params, membership_fraction=membership
    )


def test_participating_rows_are_the_live_rows_in_a_session(tmp_path, monkeypatch):
    """At every telemetry sample of a chaos fleet — through an attach, a
    snapshot → restore and a drain — the participating rows read off the
    device table's live rows are exactly those a scan of every row finds."""
    sizes = []
    sample_fleet = FLFleet._sample_fleet

    def _sample_fleet(self):  # named as the method: the loop pickles it by name
        rows = self.idle_plane.participating_rows()
        assert rows.dtype == np.intp
        assert rows.tolist() == scanned_participants(self.idle_plane).tolist()
        sizes.append(rows.size)
        sample_fleet(self)

    monkeypatch.setattr(FLFleet, "_sample_fleet", _sample_fleet)
    fleet = (
        FLFleet.builder()
        .seed(41)
        .devices(PopulationConfig(num_devices=300))
        .selectors(4)
        .selector_shards(2)
        .job(JobSchedule(900.0, 0.5))
        .sample_interval(60.0)
        .faults(CHAOS)
        .add_spec(spec_for("secure", 10, 1.0))
        .add_spec(spec_for("plain", 6, 0.5))
        .build()
    )
    fleet.run_for(3600.0)
    fleet.attach_population(spec_for("late", 6, 0.5))
    fleet.run_for(1800.0)
    fleet.snapshot(tmp_path / "fleet.snapshot")
    fleet = FLFleet.restore(tmp_path / "fleet.snapshot")
    fleet.run_for(1800.0)
    fleet.drain_population("plain", deadline_s=900.0)
    fleet.run_for(1800.0)
    assert len(sizes) >= 150 and sum(sizes) > 0  # one a minute, 2.5 hours
    assert fleet.report().recovery.device_interrupts > 0


def test_a_seated_device_is_a_participant_only_in_its_session(harness):
    """A hand-built device is the table's live row from ``adopt`` on; it
    counts as participating only while its session runs."""
    loop, system, plane, server, server_ref, rngs = harness
    idle = make_device(system, plane, rngs)
    device = make_device(system, plane, rngs)
    assert plane._devices.live_rows() == [0, 1]
    loop.run(until=700.0)
    assert device.state is DeviceState.WAITING
    assert plane.participating_rows().tolist() == [] == scanned_participants(plane).tolist()
    system.tell(device.ref, make_configure(5, server_ref))
    loop.run(until=loop.now + 2.0)
    assert device.state is DeviceState.PARTICIPATING
    assert idle.state is not DeviceState.PARTICIPATING
    assert plane.participating_rows().tolist() == [1]
    assert scanned_participants(plane).tolist() == [1]
    while not server.reports and loop.now < 5000.0:
        loop.run(until=loop.now + 5.0)
    system.tell(device.ref, msg.ReportAck(round_id=5, accepted=True))
    loop.run(until=loop.now + 10.0)
    assert plane.participating_rows().tolist() == [] == scanned_participants(plane).tolist()


def test_a_due_checkin_that_cannot_go_books_none():
    """A due check-in of a row asleep or with no tenant leaves the sweep
    with no check-in booked — its one write on that way out — so the
    plane's next event is its next flip and the sweeps move on."""
    loop, system, plane, server, server_ref, rngs = make_harness(
        DiurnalModel(amplitude=0.0, base_eligible_fraction=1e-12, mean_eligible_minutes=1e9)
    )
    asleep = make_device(system, plane, rngs)
    loop2, system2, plane2, *_, rngs2 = make_harness(ALWAYS_ELIGIBLE)
    tenantless = make_device(system2, plane2, rngs2, memberships=())
    for plane, device, loop in ((plane, asleep, loop), (plane2, tenantless, loop2)):
        plane.schedule_checkin(device.row, 30.0)
        assert loop.run(until=600.0, max_events=50) < 50  # no sweep re-runs
        assert plane.checkins_dispatched <= 1 and device.health.checkins == 0
        assert plane.next_checkin_t[0] == float("inf")
        assert plane._next_event_t[0] == plane.next_flip_t[0] > 600.0
