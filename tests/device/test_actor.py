"""DeviceActor unit tests: the participation pipeline against stub actors.

The device under test is a hand-built ``DeviceActor`` whose idle half is
a one-row ``VectorizedIdlePlane`` (``plane.adopt(device, ("pop",))``
writes its membership and hands the device ``plane`` / ``row``):
eligibility is scripted through the plane's law and the row's
``next_flip_t`` column, and what the device tallies is read where it
lives — the plane's columns (``device.health``) and the ``EventLog``.
The stub "Selector" has no screen, so an admitted check-in waits,
nowhere, for the ``ConfigureDevice`` a test sends — as a row a Selector
forwarded does.
"""

import numpy as np
import pytest

from repro.actors.kernel import Actor, ActorSystem
from repro.actors import messages as msg
from repro.analytics.events import DeviceEvent, EventLog
from repro.analytics.session_shapes import session_shape
from repro.core.checkpoint import FLCheckpoint
from repro.core.config import ClientTrainingConfig, SecAggConfig, TaskKind
from repro.core.pace import ReconnectWindow
from repro.core.plan import generate_plan
from repro.device.actor import DeviceActor, DeviceState
from repro.device.attestation import AttestationService
from repro.device.runtime import ComputeModel, SyntheticTrainer
from repro.device.scheduler import JobSchedule
from repro.nn.models import LogisticRegression
from repro.sim.diurnal import DiurnalModel
from repro.sim.event_loop import EventLoop
from repro.sim.idle_plane import VectorizedIdlePlane
from repro.sim.network import NetworkModel
from repro.sim.population import DeviceProfile
from repro.sim.rng import RngRegistry


class StubServer(Actor):
    """Collects whatever devices send; scripted responses."""

    def __init__(self):
        self.reports: list[msg.DeviceReport] = []
        self.drops: list[msg.DeviceDropped] = []

    def receive(self, sender, message):
        if isinstance(message, msg.DeviceReport):
            self.reports.append(message)
        elif isinstance(message, msg.DeviceDropped):
            self.drops.append(message)


#: Scripted eligibility laws (the plane resamples every flip from its
#: fleet-wide diurnal model, so a test scripts the *law*): a device that
#: starts eligible and, left alone, stays so to any horizon a test runs;
#: and one that (to the draw's resolution) starts ineligible and stays so.
ALWAYS_ELIGIBLE = DiurnalModel(
    amplitude=0.0, base_eligible_fraction=1.0, mean_eligible_minutes=1e9
)
NEVER_ELIGIBLE = DiurnalModel(
    amplitude=0.0, base_eligible_fraction=1e-12, mean_eligible_minutes=1e9
)


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.setattr("repro.device.actor.COMPUTE_ERROR_PROB", 0.0)
    loop = EventLoop()
    rngs = RngRegistry(0)
    system = ActorSystem(loop, rngs.stream("lat"), mean_latency_s=0.001)
    server = StubServer()
    server_ref = system.spawn(server, "stub")
    return loop, system, server, server_ref, rngs


def build_device(rngs, event_log=None, trainers=None, **kwargs):
    profile = DeviceProfile(
        device_id=1, tz_offset_hours=0.0, speed_factor=1.0, memory_mb=4096,
        os_version=28, runtime_version=10, genuine=True,
    )
    network = NetworkModel(transfer_failure_prob=0.0)
    rng = rngs.stream("dev")
    return DeviceActor(
        profile=profile,
        network=network,
        conditions=network.sample_conditions(rng),
        trainer_of=(
            trainers or {"pop": SyntheticTrainer(num_parameters=10)}
        ).__getitem__,
        compute=ComputeModel(examples_per_second=100.0, setup_overhead_s=1.0),
        event_log=event_log if event_log is not None else EventLog(),
        rng=rng,
        job=JobSchedule(600.0, 0.1),
        **kwargs,
    )


def make_device(
    system, server_ref, rngs, law=ALWAYS_ELIGIBLE, eligible_until=None, **kwargs
):
    """One device on a one-row plane under ``law``; ``eligible_until``
    books the row's loss of eligibility at that instant."""
    device = build_device(rngs, **kwargs)
    plane = VectorizedIdlePlane(
        system.loop, rngs.row_draws("rows"), law,
        selectors=[server_ref], actor_of=system.actor_of,
        attestation=AttestationService(), job=device.job,
    )
    plane.adopt(device, ("pop",))
    ref = system.spawn(device, "device-1")
    system.loop.run(until=system.loop.now)  # the plane starts the row
    if eligible_until is not None:
        plane.next_flip_t[0] = eligible_until
        plane._touch(0)
    return device, ref


def logged(log, round_id, event):
    """How many ``event`` records the log holds for the device's session
    in ``round_id``."""
    return sum(1 for record in log.session(1, round_id) if record.event is event)


def make_configure(round_id, agg_ref):
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


def test_eligible_device_checks_in(harness):
    loop, system, server, server_ref, rngs = harness
    device, _ = make_device(system, server_ref, rngs)
    loop.run(until=700.0)
    plane = device.plane
    assert plane.checkins_dispatched == plane.materializations == 1
    assert device.health.checkins == 1
    assert device.state is DeviceState.WAITING
    # Its session's tenant is its worker's, and it waits for a round.
    assert device.scheduler.running == "pop"
    assert plane.next_checkin_t[0] == plane.connected_at_s[0] + plane.waiting_timeout_s


def test_ineligible_device_sleeps(harness):
    loop, system, server, server_ref, rngs = harness
    device, _ = make_device(system, server_ref, rngs, law=NEVER_ELIGIBLE)
    loop.run(until=5000.0)
    assert device.plane.checkins_dispatched == 0
    assert device.state is DeviceState.SLEEPING


def run_until_report(loop, server, deadline=5000.0):
    """Advance in small steps so the ack can be sent before any timeout."""
    while not server.reports and loop.now < deadline:
        loop.run(until=loop.now + 5.0)


def test_full_participation_pipeline(harness):
    loop, system, server, server_ref, rngs = harness
    log = EventLog()
    device, device_ref = make_device(
        system, server_ref, rngs, event_log=log
    )
    loop.run(until=700.0)
    # Server configures the device for round 5.
    system.tell(device_ref, make_configure(5, server_ref))
    run_until_report(loop, server)
    assert len(server.reports) == 1
    report = server.reports[0]
    assert report.round_id == 5
    assert report.weight > 0
    # Ack the report: session completes with the Table 1 success shape.
    system.tell(device_ref, msg.ReportAck(round_id=5, accepted=True))
    loop.run(until=loop.now + 10.0)
    assert session_shape(log.session(1, 5)) == "-v[]+^"
    assert logged(log, 5, DeviceEvent.UPLOAD_COMPLETED) == 1
    assert device.state is DeviceState.IDLE
    health = device.health
    assert health.sessions_started == 1 and health.sessions_by_population == {"pop": 1}
    assert health.train_seconds > 0 and health.checkins >= 1


def test_rejected_report_logs_hash_shape(harness):
    loop, system, server, server_ref, rngs = harness
    log = EventLog()
    device, device_ref = make_device(
        system, server_ref, rngs, event_log=log
    )
    loop.run(until=700.0)
    system.tell(device_ref, make_configure(3, server_ref))
    run_until_report(loop, server)
    system.tell(device_ref, msg.ReportAck(round_id=3, accepted=False))
    loop.run(until=loop.now + 10.0)
    assert session_shape(log.session(1, 3)) == "-v[]+#"
    assert logged(log, 3, DeviceEvent.UPLOAD_REJECTED) == 1


def test_ack_timeout_treated_as_rejection(harness):
    loop, system, server, server_ref, rngs = harness
    log = EventLog()
    device, device_ref = make_device(
        system, server_ref, rngs, event_log=log,
        ack_timeout_s=30.0,
    )
    loop.run(until=700.0)
    system.tell(device_ref, make_configure(2, server_ref))
    loop.run(until=2000.0)  # no ack ever arrives
    assert session_shape(log.session(1, 2)) == "-v[]+#"
    # Finished (possibly already re-checked-in for the next round).
    assert device.state in (DeviceState.IDLE, DeviceState.WAITING)


def test_interruption_mid_training(harness):
    loop, system, server, server_ref, rngs = harness
    log = EventLog()
    # Eligibility vanishes shortly after training starts.
    # A slow trainer, so the interruption lands mid-round.
    slow = SyntheticTrainer(num_parameters=10, mean_examples=5000.0)
    device, device_ref = make_device(
        system, server_ref, rngs, eligible_until=710.0, event_log=log,
        trainers={"pop": slow},
    )
    loop.run(until=700.0)
    assert device.state is DeviceState.WAITING
    system.tell(device_ref, make_configure(4, server_ref))
    loop.run(until=5000.0)
    shape = session_shape(log.session(1, 4))
    assert shape == "-v[!"
    assert server.drops and server.drops[0].reason == "eligibility_change"
    assert device.state is DeviceState.SLEEPING
    assert logged(log, 4, DeviceEvent.INTERRUPTED) == 1


def test_checkin_rejection_respects_pace_window(harness):
    loop, system, server, server_ref, rngs = harness
    device, device_ref = make_device(system, server_ref, rngs)
    loop.run(until=700.0)
    first_checkins = device.health.checkins
    window = ReconnectWindow(loop.now + 500.0, loop.now + 510.0)
    device.plane.bounce(np.array([device.row]), window)  # a round is full
    assert device.state is DeviceState.IDLE and device.scheduler.running is None
    loop.run(until=loop.now + 400.0)
    assert device.health.checkins == first_checkins  # still away
    loop.run(until=loop.now + 200.0)
    assert device.health.checkins == first_checkins + 1  # retried in window


def test_waiting_device_disconnects_when_ineligible(harness):
    loop, system, server, server_ref, rngs = harness
    device, _ = make_device(system, server_ref, rngs, eligible_until=800.0)
    loop.run(until=700.0)
    assert device.state is DeviceState.WAITING
    loop.run(until=900.0)
    assert device.state is DeviceState.SLEEPING
    plane = device.plane
    # Hung up: worker free, no longer counted anywhere, and its job back at
    # the normal cadence (540-660 s out, the device's jittered interval).
    assert device.scheduler.running is None and not plane.active[0]
    assert plane.state_counts()[DeviceState.WAITING] == 0
    assert 800.0 + 540.0 <= plane.pending_window_t[0] <= 815.0 + 660.0


def test_download_failure_logs_error(harness):
    loop, system, server, server_ref, rngs = harness
    log = EventLog()
    device, device_ref = make_device(
        system, server_ref, rngs, event_log=log
    )
    device.network = NetworkModel(transfer_failure_prob=1.0)
    loop.run(until=700.0)
    system.tell(device_ref, make_configure(6, server_ref))
    loop.run(until=1500.0)
    assert session_shape(log.session(1, 6)) == "-*"
    assert server.drops and server.drops[0].reason == "network_download"


def test_device_spawned_without_a_plane_row_says_so(harness):
    loop, system, server, server_ref, rngs = harness
    with pytest.raises(RuntimeError, match="VectorizedIdlePlane.adopt"):
        system.spawn(build_device(rngs), "device-1")
