"""ActorIdleDriver: lazy check-in rescheduling (no cancel+re-push churn)."""

from repro.actors.kernel import Actor, ActorSystem
from repro.actors import messages as msg
from repro.analytics.events import EventLog
from repro.device.actor import DeviceActor, DeviceState
from repro.device.attestation import AttestationService
from repro.device.runtime import ComputeModel, SyntheticTrainer
from repro.device.scheduler import JobSchedule
from repro.sim.event_loop import EventLoop
from repro.sim.network import NetworkModel
from repro.sim.population import DeviceProfile
from repro.sim.rng import RngRegistry


class StubServer(Actor):
    def __init__(self):
        self.checkins = []

    def receive(self, sender, message):
        if isinstance(message, msg.DeviceCheckin):
            self.checkins.append(message)


class AlwaysEligible:
    def is_initially_eligible(self, wall_time_s):
        return True

    def time_until_ineligible(self, wall_time_s, fast=False):
        return 1e9

    def time_until_eligible(self, wall_time_s, fast=False):
        return 1e9


def make_harness():
    loop = EventLoop()
    rngs = RngRegistry(0)
    system = ActorSystem(loop, rngs.stream("lat"), mean_latency_s=0.001)
    server = StubServer()
    server_ref = system.spawn(server, "stub")
    profile = DeviceProfile(
        device_id=1, tz_offset_hours=0.0, speed_factor=1.0, memory_mb=4096,
        os_version=28, runtime_version=10, genuine=True,
    )
    network = NetworkModel(transfer_failure_prob=0.0)
    rng = rngs.stream("dev")
    device = DeviceActor(
        profile=profile,
        availability=AlwaysEligible(),
        network=network,
        conditions=network.sample_conditions(rng),
        selectors=[server_ref],
        population_name="pop",
        trainer=SyntheticTrainer(num_parameters=10),
        compute=ComputeModel(),
        attestation=AttestationService(),
        event_log=EventLog(),
        rng=rng,
        job=JobSchedule(600.0, 0.1),
    )
    system.spawn(device, "device-1")
    return loop, server, device


def test_rescheduling_later_reuses_the_armed_timer():
    loop, server, device = make_harness()
    loop.run(until=1.0)
    heap_before = loop.heap_size
    dead_before = loop.heap_size - len(loop)
    # Pace steering pushes the due time out repeatedly: no cancels, no
    # new heap entries — the armed timer revalidates at fire time.  (The
    # initial staggered check-in is armed somewhere in [1, 600], so every
    # delay here is strictly later than the armed timer.)
    for delay in (1000.0, 1200.0, 1500.0):
        device.idle.schedule_checkin(delay)
    assert loop.heap_size == heap_before
    assert loop.heap_size - len(loop) == dead_before
    # Short of the final due time: the armed (superseded) timers have
    # fired and revalidated without attempting.
    loop.run(until=1500.0)
    assert server.checkins == []
    # At the final due time the one real check-in happens.
    loop.run(until=1600.0)
    assert len(server.checkins) == 1
    assert device.state is DeviceState.WAITING


def test_rescheduling_earlier_arms_once_without_cancelling():
    loop, server, device = make_harness()
    loop.run(until=1.0)
    device.idle.schedule_checkin(900.0)
    dead_before = loop.heap_size - len(loop)
    device.idle.schedule_checkin(20.0)  # earlier: one extra entry, no cancel
    assert loop.heap_size - len(loop) == dead_before
    loop.run(until=200.0)
    assert len(server.checkins) == 1  # fired at the earlier due time
    # The superseded timers fire later and must no-op harmlessly.
    loop.run(until=2000.0)
    assert len(server.checkins) == 1


def test_timer_checkin_spends_one_uniform_on_the_shared_laws():
    """The timer driver's check-in makes the same single idle-side draw
    the vectorized plane makes per row, and spends it by the same laws:
    a busy on-device queue backs off `job.delay_at(u)`, a free one picks
    Selector `pool[int(u * len(pool))]`."""
    import copy

    loop, server, device = make_harness()
    loop.run(until=1.0)
    device.selectors.append(device.system.spawn(StubServer(), "stub-2"))
    # Another tenant's session holds the on-device worker queue.
    device.scheduler.enqueue("other")
    assert device.scheduler.try_start() == "other"
    twin = copy.deepcopy(device.rng)
    device._attempt_checkin()
    assert device.state is DeviceState.IDLE
    assert device.idle._checkin_due_t == loop.now + device.job.delay_at(
        float(twin.random())
    )
    device.scheduler.finish("other")
    device._attempt_checkin()
    assert device.state is DeviceState.WAITING
    assert device._selector is device.selectors[int(float(twin.random()) * 2)]
