"""Actor kernel: delivery, lifecycle, supervision (its one mechanism,
``Restart``), failure injection."""

import pickle

import numpy as np

from repro.actors.kernel import Actor, ActorSystem, Restart
from repro.sim.event_loop import EventLoop


class Recorder(Actor):
    def __init__(self):
        self.received = []
        self.started = False
        self.stopped_crashed = None

    def on_start(self):
        self.started = True

    def on_stop(self, crashed):
        self.stopped_crashed = crashed

    def receive(self, sender, message):
        self.received.append((sender, message))


def make_system():
    loop = EventLoop()
    system = ActorSystem(loop, np.random.default_rng(0), mean_latency_s=0.001)
    return loop, system


def test_spawn_runs_on_start():
    loop, system = make_system()
    actor = Recorder()
    ref = system.spawn(actor, "r")
    assert actor.started
    assert ref.alive


def test_message_delivery_with_latency():
    loop, system = make_system()
    actor = Recorder()
    ref = system.spawn(actor, "r")
    system.tell(ref, "hello")
    assert actor.received == []  # not yet delivered
    loop.run()
    assert actor.received == [(None, "hello")]
    assert loop.now > 0


def test_messages_to_same_actor_preserve_order_with_equal_latency():
    loop = EventLoop()
    system = ActorSystem(loop, np.random.default_rng(0), mean_latency_s=0.0)
    actor = Recorder()
    ref = system.spawn(actor, "r")
    for i in range(10):
        system.tell(ref, i)
    loop.run()
    assert [m for _, m in actor.received] == list(range(10))


def test_messages_to_dead_actor_dropped():
    loop, system = make_system()
    actor = Recorder()
    ref = system.spawn(actor, "r")
    system.tell(ref, "x")
    system.stop(ref)
    loop.run()
    assert actor.received == []
    assert system.messages_dropped == 1
    assert not ref.alive


def test_crash_and_stop_tell_on_stop_which_it_was():
    loop, system = make_system()
    crashed, stopped = Recorder(), Recorder()
    crashed_ref = system.spawn(crashed, "c")
    stopped_ref = system.spawn(stopped, "s")
    system.crash(crashed_ref)
    system.stop(stopped_ref)
    assert crashed.stopped_crashed is True
    assert stopped.stopped_crashed is False
    assert not crashed_ref.alive and not stopped_ref.alive
    assert system.crashes_injected == 1


def test_scheduled_work_skipped_after_death():
    loop, system = make_system()

    class Ticker(Actor):
        def __init__(self):
            self.ticks = 0

        def on_start(self):
            self.schedule(1.0, self.tick)

        def tick(self):
            self.ticks += 1
            self.schedule(1.0, self.tick)

        def receive(self, sender, message):
            pass

    ticker = Ticker()
    ref = system.spawn(ticker, "t")
    loop.run(until=3.5)
    assert ticker.ticks == 3
    system.crash(ref)
    loop.run(until=10.0)
    assert ticker.ticks == 3  # guarded schedule stops after death


def test_termination_hook_runs():
    loop, system = make_system()
    released = []
    system.on_actor_terminated(released.append)
    ref = system.spawn(Recorder(), "r")
    system.stop(ref)
    assert released == [ref]


# -- restarts ---------------------------------------------------------------------


class Respawner:
    """A restart's ``respawn``: logs (time, dead ref) and spawns a fresh
    Recorder under the dead name."""

    def __init__(self, system):
        self.system = system
        self.calls = []

    def __call__(self, dead_ref):
        self.calls.append((self.system.loop.now, dead_ref))
        self.system.spawn(Recorder(), dead_ref.name)


def test_restart_fires_once_at_crash_time_plus_delay():
    loop = EventLoop()
    system = ActorSystem(loop, np.random.default_rng(0), mean_latency_s=0.0)
    for delay in (0.0, 2.5):
        respawner = Respawner(system)
        ref = system.spawn(Recorder(), "r", restart=Restart(delay, respawner))
        loop.run_for(1.0)
        crashed_at = loop.now
        system.crash(ref)
        loop.run_for(10.0)
        assert respawner.calls == [(crashed_at + delay, ref)]


def test_graceful_stop_drops_the_restart():
    loop, system = make_system()
    respawner = Respawner(system)
    ref = system.spawn(Recorder(), "r", restart=Restart(1.0, respawner))
    system.stop(ref)
    system.crash(ref)  # already gone: nothing to restart
    loop.run()
    assert respawner.calls == []


def test_restart_owned_by_a_dead_actor_does_not_fire():
    loop, system = make_system()
    owner = system.spawn(Recorder(), "owner")
    respawner = Respawner(system)
    ref = system.spawn(Recorder(), "r", restart=Restart(1.0, respawner, owner=owner))
    system.crash(ref)
    system.stop(owner)
    loop.run()
    assert respawner.calls == []


def test_pending_restart_survives_snapshot_restore():
    loop, system = make_system()
    respawner = Respawner(system)
    ref = system.spawn(Recorder(), "r", restart=Restart(5.0, respawner))
    loop.run_for(1.0)
    system.crash(ref)
    restored = pickle.loads(pickle.dumps(respawner))
    restored.system.loop.run()
    ((at, dead),) = restored.calls
    assert (at, dead.actor_id, dead.name) == (6.0, ref.actor_id, "r")
    assert respawner.calls == []  # the original never ran
    # The restored system spawned the replacement.
    assert [r.name for r in restored.system.living_actors()] == ["r"]
