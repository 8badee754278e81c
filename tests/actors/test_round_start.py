"""A round's start offers it its shard's pools in one pass (a
``RoundStart`` to the shard's first live Selector), and the sweep's
in-round admissions go through the same drain as a single group.  The drain one
Selector at a time that it replaced (``tests/reference/selection.py``) is
its oracle: on generated shards — Selectors x pooled rows, any demand
including none, rows no plan serves, a crashed Selector, a Selector that
does not host the tenant, a dead master — both must make the same
forwards in the same order, turn away the same rows into the same
windows, leave every Selector's stream and counters where the other
does, and hand ``EventLoop.schedule_at`` the same ``(time, callback)``
sequence."""

from dataclasses import asdict, fields, is_dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import selection as reference
from repro.actors.kernel import Actor, ActorRef, ActorSystem
from repro.actors.selector import Forwarding, PopulationRoute, RoundStart, Selector
from repro.core.pace import PaceConfig, PaceSteering
from repro.device.attestation import AttestationService
from repro.device.table import DeviceTable
from repro.sim.diurnal import DiurnalModel
from repro.sim.event_loop import EventLoop
from repro.sim.idle_plane import VectorizedIdlePlane
from repro.sim.network import NetworkModel
from repro.sim.population import PopulationConfig, build_population
from repro.sim.rng import RngRegistry

#: A round starts on a tick; the window a round-full row is turned into
#: and the master's timeouts are measured from here.
NOW = 7 * 3600.0


class Plans:
    """Runtime 3 has no plan for the task (its rows stay pooled)."""

    def plan_for_task(self, task_id, runtime_version):
        return None if runtime_version == 3 else f"{task_id}@{runtime_version}"

    def plan_for_runtime(self, runtime_version):
        return f"v{runtime_version}"


class Store:
    def latest(self, population_name):
        return f"checkpoint/{population_name}"


class Device(Actor):
    def __init__(self, profile):
        self.device_id = profile.device_id

    def receive(self, sender, message):
        pass


class Master(Actor):
    """A selecting round that wants ``wants`` devices; filling it arms a
    timeout, as a real master's reporting timeout is armed."""

    def __init__(self, wants: int):
        self.wants = wants
        self.admitted: list[int] = []

    @property
    def demand(self) -> int:
        return self.wants - len(self.admitted)

    def admit_device(self, device_id, device_ref):
        self.admitted.append(device_id)
        if len(self.admitted) == self.wants:
            self.schedule(15.0, self.receive, None, "reporting timeout")
        return self.ref

    def receive(self, sender, message):
        pass


def norm(value):
    """A value as something two separately built fleets can compare."""
    if isinstance(value, ActorRef):
        return ("ref", value.actor_id)
    if is_dataclass(value):
        return (type(value).__name__, *(norm(getattr(value, f.name)) for f in fields(value)))
    if isinstance(value, tuple):
        return tuple(map(norm, value))
    if isinstance(value, dict):
        return {k: norm(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    owner = getattr(value, "__self__", None)
    if owner is not None:
        return (value.__qualname__, norm(getattr(owner, "ref", type(owner).__name__)))
    return value


@st.composite
def shards(draw):
    selectors = draw(st.integers(1, 5))
    rows = draw(st.integers(1, 60))
    row = st.integers(0, rows - 1)
    return dict(
        selectors=selectors,
        rows=rows,
        seed=draw(st.integers(0, 2**16)),
        # -1: not waiting; ``selectors``: nowhere (forwarded, or lost).
        at=draw(st.lists(st.integers(-1, selectors), min_size=rows, max_size=rows)),
        other=draw(st.sets(row)),
        versions=draw(st.lists(st.sampled_from([1, 2, 3]), min_size=rows, max_size=rows)),
        crashed=draw(st.sets(st.integers(0, selectors - 1), max_size=selectors - 1)),
        unrouted=draw(st.sets(st.integers(0, selectors - 1))),
        wants=draw(st.integers(0, 25)),
        dead_master=draw(st.integers(0, 4)) == 0,
        late=draw(st.lists(row, unique=True)),
        late_at=draw(st.integers(0, selectors - 1)),
    )


def build(shard):
    """The shard's Selectors over a plane of pooled rows, and a master."""
    loop = EventLoop(NOW)
    rngs = RngRegistry(shard["seed"])
    system = ActorSystem(loop, rngs.stream("actors/latency"))
    first_device = system.reserve_ids(shard["rows"])
    refs: list = []

    def construct(i, profile):
        device = Device(profile)
        system.spawn(device, f"device-{i}", first_device + i)
        return device

    devices = DeviceTable(construct)
    plane = VectorizedIdlePlane(
        loop, rngs.row_draws("rows"), DiurnalModel(), selectors=refs,
        actor_of=system.actor_of, attestation=AttestationService(),
        capacity=shard["rows"], devices=devices,
    )
    count = shard["rows"]
    plane.adopt_rows(
        build_population(PopulationConfig(num_devices=count), rngs),
        3600.0,
        NetworkModel().sample_conditions_batch(count, rngs.stream("links")),
    )
    plane._runtime_version[:count] = shard["versions"]
    plane.eligible[:count] = True  # a WAITING row is awake
    other = np.zeros(count, bool)
    other[list(shard["other"])] = True
    everyone = np.arange(count)
    plane.scheduler.enroll(everyone[~other], "pop")
    plane.scheduler.enroll(everyone[other], "other")
    plane.memberships_changed(everyone)
    pace = PaceSteering(PaceConfig(round_period_s=10.0), DiurnalModel())
    selectors = []
    for i in range(shard["selectors"]):
        selector = Selector(Store(), rngs.stream(f"selector/{i}"), plane, i)
        refs.append(system.spawn(selector, f"selector/{i}"))
        for name in ("pop", "other"):
            if name == "other" or i not in shard["unrouted"]:
                # Spread windows (a large population), of two widths.
                selector.add_route(PopulationRoute(
                    name, pace, Plans(), 6_000 * (1 + i % 2), selection_goal=4,
                    wake=lambda: None,
                ))
        selectors.append(selector)
    at = np.array(shard["at"])
    waiting = (at >= 0) & ~np.isin(everyone, shard["late"])
    rows = everyone[waiting]
    slots = plane.scheduler.checkin(rows)
    plane._resolve_pools()
    plane._wait_rows(rows, slots, at[waiting].astype(np.int32), NOW - 60.0)
    for i in sorted(shard["crashed"]):
        system.crash(refs[i])
    master = Master(shard["wants"])
    master_ref = system.spawn(master, "master")
    if shard["dead_master"]:
        system.stop(master_ref)
    schedule_at = loop.schedule_at
    scheduled = []

    def spy(when, fn, *args):
        scheduled.append((when, norm(fn), norm(args)))
        return schedule_at(when, fn, *args)

    loop.schedule_at = spy
    instruction = Forwarding(1, "pop/train", shard["wants"], master_ref, "pop")
    live = [s for i, s in enumerate(selectors) if i not in shard["crashed"]]
    return plane, live, master, instruction, scheduled


def admit_late(plane, shard):
    """Rows the sweep admits at a Selector while the round forwards (at a
    crashed one, the check-ins are lost on the way)."""
    rows = np.array(sorted(shard["late"]), np.intp)
    if rows.size:
        slots = plane.scheduler.checkin(rows)
        plane._resolve_pools()
        at = shard["late_at"] if shard["late_at"] not in shard["crashed"] else shard["selectors"]
        plane._wait_rows(rows, slots, np.full(rows.size, at, np.int32), NOW)


def reference_admitted(selector):
    """``Selector.admitted`` with the reference drain behind it."""

    def admitted(name, rows):
        route = selector.routes.get(name)
        if route is not None and route.forwarding is not None:
            reference.drain(selector, route, rows)

    return admitted


def outcome(plane, selectors, master, scheduled):
    scheduler = plane.scheduler
    return dict(
        forwards=list(master.admitted),
        record=plane._record[: len(plane)].tobytes(),
        next_event=plane._next_event_t.tobytes(),
        waiting=plane._waiting.tobytes(),
        scheduler={k: v.tobytes() for k, v in vars(scheduler).items() if isinstance(v, np.ndarray)},
        live_devices=plane._devices.live_rows(),
        streams=[norm(s.rng.bit_generator.state) for s in selectors],
        routes=[
            (name, asdict(route.stats), norm(route.forwarding))
            for s in selectors for name, route in sorted(s.routes.items())
        ],
        scheduled=scheduled,
    )


@given(shards())
@settings(max_examples=80, deadline=None)
def test_one_pass_drains_as_a_drain_per_selector_would(shard):
    plane, live, master, instruction, scheduled = build(shard)
    for selector in live:
        reference.receive(selector, instruction)
        selector.admitted = reference_admitted(selector)
    admit_late(plane, shard)
    expected = outcome(plane, live, master, scheduled)

    plane, live, master, instruction, scheduled = build(shard)
    live[0].receive(None, RoundStart(instruction, tuple(live)))
    admit_late(plane, shard)
    assert outcome(plane, live, master, scheduled) == expected
