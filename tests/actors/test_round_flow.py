"""Integration: full rounds through the actor stack with a real fleet."""

import math

import numpy as np
import pytest

from repro import FLFleet, PopulationSpec, TaskConfig, RoundConfig
from repro.actors.coordinator import Coordinator, CoordinatorConfig
from repro.actors.master_aggregator import MasterAggregator
from repro.analytics.session_shapes import classify_shape
from repro.device.scheduler import JobSchedule
from repro.nn.models import LogisticRegression
from repro.sim.population import PopulationConfig


def build_fleet(
    seed=3, devices=250, target=15, job_interval=1200.0, **coordinator_kwargs
):
    task = TaskConfig(
        task_id="itest/train",
        population_name="itest",
        round_config=RoundConfig(
            target_participants=target,
            selection_timeout_s=60,
            reporting_timeout_s=120,
        ),
    )
    model = LogisticRegression(input_dim=6, n_classes=3)
    params = model.init(np.random.default_rng(0))
    fleet = (
        FLFleet.builder()
        .seed(seed)
        .devices(PopulationConfig(num_devices=devices))
        .selectors(2)
        .job(JobSchedule(job_interval, 0.5))
        .coordinator(CoordinatorConfig(**coordinator_kwargs))
        .population("itest", tasks=[task], model=params)
        .build()
    )
    return fleet, params


def test_rounds_commit_and_model_advances():
    fleet, initial = build_fleet()
    fleet.run_for(2 * 3600)
    committed = fleet.committed_rounds
    assert len(committed) >= 5
    assert not fleet.global_model().allclose(initial)
    # Exactly one persistent write per committed round, plus the init.
    assert fleet.store.write_count == len(committed) + 1


def test_completed_counts_hit_target():
    fleet, _ = build_fleet(target=10)
    fleet.run_for(2 * 3600)
    for result in fleet.committed_rounds:
        assert result.completed_count >= 10 * 0.8
        assert result.selected_count <= int(np.ceil(10 * 1.3))


def test_session_shapes_match_table_one_structure():
    fleet, _ = build_fleet()
    fleet.run_for(3 * 3600)
    shapes = fleet.session_shapes()
    total = sum(shapes.values())
    assert total > 50
    success = shapes.get("-v[]+^", 0) / total
    rejected = shapes.get("-v[]+#", 0) / total
    # Paper: 75% success, 22% rejected.  Generous bands for a small sim.
    assert success > 0.5
    assert 0.05 < rejected < 0.45
    assert success > rejected


def test_every_shape_classifiable():
    fleet, _ = build_fleet()
    fleet.run_for(3600)
    for shape in fleet.session_shapes():
        assert classify_shape(shape) in {
            "success",
            "upload_rejected",
            "interrupted",
            "network_issue",
            "model_issue",
            "error",
            "incomplete",
        }


def test_download_traffic_dominates_upload():
    """Fig. 9: plan+model down vs compressed update up."""
    fleet, _ = build_fleet()
    fleet.run_for(2 * 3600)
    meter = fleet.config.network.meter
    assert meter.downloaded_bytes > meter.uploaded_bytes


def test_drop_rate_in_plausible_band():
    fleet, _ = build_fleet()
    fleet.run_for(3 * 3600)
    assert 0.0 <= fleet.report().mean_drop_rate < 0.3


def test_non_pipelined_round_rate_is_lower():
    """No selection gap commits more rounds than a 300 s one.  This is
    not yet Sec. 4.3's overlap of selection with configuration/reporting
    (a forwarding Selector bounces what its round cannot take, so the
    pool is empty at a round's end): pipelining here only drops the gap.
    Needs abundant device supply so the pool refills faster than rounds
    complete."""
    kwargs = dict(seed=11, devices=500, target=10, job_interval=400.0)
    pipelined, _ = build_fleet(pipelining=True, **kwargs)
    gapped, _ = build_fleet(
        pipelining=False, inter_round_gap_s=300.0, **kwargs
    )
    pipelined.run_for(2 * 3600)
    gapped.run_for(2 * 3600)
    assert len(pipelined.committed_rounds) > 1.3 * len(gapped.committed_rounds)


def test_deploy_twice_rejected():
    fleet, params = build_fleet()
    again = PopulationSpec(
        name="x", tasks=[TaskConfig(task_id="x", population_name="x")],
        initial_params=params,
    )
    with pytest.raises(RuntimeError, match="already deployed"):
        fleet._install([again])


def test_fleet_sampler_records_device_states():
    fleet, _ = build_fleet()
    fleet.run_for(3600)
    participating = fleet.dashboard.series("devices/participating")
    waiting = fleet.dashboard.series("devices/waiting")
    assert len(participating) > 10
    assert max(waiting.values) > 0


def test_a_pipelined_round_starts_once_its_predecessor_is_gone(monkeypatch):
    """With pipelining the next round starts inside its predecessor's
    ``round_finished`` call: by then that round's master, leaves and shard
    nodes are dead, and when the call returns every live Selector of the
    shard holds the new round's instruction.  (A forwarding round turns
    away every row it does not take, so a pool is rarely full when a
    round ends; a start threshold of zero starts the next round at every
    end.)"""
    finishing = []  # masters inside their _finish
    predecessors_dead = []  # per master started there
    instructions_held = []  # per such round_finished call
    finish, start = MasterAggregator._finish, MasterAggregator.on_start
    round_finished = Coordinator.round_finished

    def spy_finish(master):
        finishing.append(master)
        finish(master)
        finishing.pop()

    def spy_start(master):
        if finishing:
            previous = finishing[-1]
            tree = [previous.ref, *previous.aggregators, *previous.shard_aggregators]
            predecessors_dead.append(not any(ref.alive for ref in tree))
        start(master)

    def spy_round_finished(coordinator, round_id, task_id, committed):
        round_finished(coordinator, round_id, task_id, committed)
        if coordinator.active_master is not None:
            instructions_held.append(all(
                selector.routes["itest"].forwarding.master == coordinator.active_master
                for selector in coordinator._live_selectors()
            ))

    monkeypatch.setattr(MasterAggregator, "_finish", spy_finish)
    monkeypatch.setattr(MasterAggregator, "on_start", spy_start)
    monkeypatch.setattr(Coordinator, "round_finished", spy_round_finished)
    monkeypatch.setattr(Coordinator, "_start_threshold", lambda coordinator: 0)
    fleet, _ = build_fleet()
    fleet.run_for(2 * 3600)
    assert len(predecessors_dead) >= 3 and all(predecessors_dead)
    assert instructions_held == predecessors_dead


# -- deadline-driven round scheduling ---------------------------------------------
#
# A Coordinator owns at most one pending tick, armed only at an instant a
# round can start: none while a round is active or its pool is short, one
# for the whole gap once the pool suffices.  Its Selectors' admissions
# wake it; nothing polls.


def coordinator_of(fleet):
    """The population's live Coordinator (a Sec. 4.4 replacement once the
    original crashed)."""
    return fleet.actors.actor_of(fleet.coordinators["itest"])


def pending_ticks(fleet, coordinator):
    """The live heap events holding the Coordinator's tick (it schedules
    nothing else, and no message reaches it)."""
    return [
        event
        for _, _, event in fleet.loop._heap
        if not event.cancelled
        and event.fn == coordinator._run_if_alive
        and event.args == (coordinator._tick,)
    ]


def on_grid(t, origin, tick):
    return t == origin + round((t - origin) / tick) * tick


def gapped_fleet(tick=1.0, gap=300.0, **kwargs):
    kwargs = dict(seed=11, devices=500, target=10, job_interval=400.0) | kwargs
    return build_fleet(
        pipelining=False, inter_round_gap_s=gap, tick_interval_s=tick, **kwargs
    )


def step_through(fleet, coordinator, seconds):
    """Advance ``fleet`` one event at a time for ``seconds``, yielding
    after each event whether the Coordinator's pool suffices to start a
    round, and its pending ticks."""
    threshold = coordinator._start_threshold()
    until = fleet.loop.now + seconds
    while fleet.loop.now < until and fleet.loop.step():
        yield coordinator._connected_total() >= threshold, pending_ticks(fleet, coordinator)


def test_no_tick_while_round_active_and_one_for_the_whole_gap():
    """Mid-gap, a Coordinator holds one tick — at the first grid instant
    the gap allows — if its pool has reached the threshold since the round
    ended, and none if it has not."""
    gap, tick = 300.0, 1.0
    fleet, _ = gapped_fleet(tick=tick, gap=gap)
    coordinator = coordinator_of(fleet)
    origin = coordinator._tick_origin_s
    in_round = armed = unarmed = 0
    sufficed = False
    for suffices, ticks in step_through(fleet, coordinator, 2 * 3600):
        if coordinator.active_master is not None:
            assert ticks == []
            in_round += 1
            sufficed = False
            continue
        sufficed |= suffices
        ended = coordinator.last_round_ended_at_s
        if ended is None or fleet.loop.now >= ended + gap:
            continue  # waiting for devices: tested below
        assert len(ticks) == sufficed, fleet.loop.now
        if ticks:
            (event,) = ticks
            # the first grid instant >= end + gap
            assert ended + gap <= event.time < ended + gap + tick
            assert on_grid(event.time, origin, tick)
        armed += sufficed
        unarmed += not sufficed
    assert in_round > 100 and armed > 100 and unarmed > 100, (in_round, armed, unarmed)
    assert len(fleet.committed_rounds) >= 10


@pytest.mark.parametrize("tick", [1.0, 10.0, 0.25])
def test_rounds_start_on_the_tick_grid_across_crashes(tick):
    fleet, _ = gapped_fleet(tick=tick, gap=120.0)
    origins = [coordinator_of(fleet)._tick_origin_s]
    assert origins == [0.0]
    fleet.run_for(1800.0)

    # Sec. 4.4, master: the round dies, the next starts on the same grid.
    while coordinator_of(fleet).active_master is None:
        fleet.run_for(5.0)
    fleet.actors.crash(coordinator_of(fleet).active_master)
    fleet.run_for(1800.0)
    before_respawn = len(fleet.round_results)

    # Sec. 4.4, coordinator: the lifecycle plane respawns it at the crash
    # instant; the replacement's grid starts there.
    crashed_at = fleet.loop.now
    fleet.actors.crash(fleet.coordinators["itest"])
    fleet.run_for(3600.0)
    respawned = coordinator_of(fleet)
    assert respawned is not None
    assert respawned._tick_origin_s == crashed_at
    origins.append(respawned._tick_origin_s)

    results = fleet.round_results
    assert before_respawn >= 5 and len(results) >= before_respawn + 5
    after = [r for r in results if r.started_at_s > crashed_at]
    assert len(after) >= 5
    for result in results:
        origin = origins[result.started_at_s > crashed_at]
        assert on_grid(result.started_at_s, origin, tick), result.started_at_s
        assert result.started_at_s >= origin + tick


def test_draining_coordinator_holds_no_tick():
    fleet, _ = gapped_fleet(gap=600.0)
    coordinator = coordinator_of(fleet)
    # Mid-gap, once the pool suffices (a short pool holds no tick) ...
    while coordinator.last_round_ended_at_s is None or not pending_ticks(
        fleet, coordinator
    ):
        fleet.run_for(30.0)
    assert coordinator.active_master is None
    # ... the way the lifecycle plane's drain flips it: the tick already
    # on the heap fires once, finds the gate shut, arms nothing, and the
    # Selectors' admissions wake nothing.
    coordinator.draining = True
    assert len(pending_ticks(fleet, coordinator)) == 1
    fleet.run_for(700.0)
    assert pending_ticks(fleet, coordinator) == []
    finished = coordinator.rounds_finished
    fleet.run_for(3600.0)
    assert coordinator.rounds_finished == finished
    assert pending_ticks(fleet, coordinator) == []


# Two fleets often short of devices between rounds: one with a gap after
# each round, one pipelined (a round may start the instant the last ends).
WAITING_FLEETS = {
    "gapped": dict(gap=120.0, devices=500, target=10, job_interval=400.0, seed=3),
    "pipelined": dict(gap=0.0, devices=500, target=10, job_interval=400.0, seed=3,
                      pipelining=True),
}


def waiting_fleet(kind, tick=10.0):
    kwargs = dict(WAITING_FLEETS[kind])
    fleet, _ = build_fleet(
        pipelining=kwargs.pop("pipelining", False),
        inter_round_gap_s=kwargs.pop("gap"),
        tick_interval_s=tick,
        **kwargs,
    )
    return fleet, coordinator_of(fleet)


@pytest.mark.parametrize("kind", sorted(WAITING_FLEETS))
def test_no_tick_is_pending_while_the_pool_is_short(kind):
    """Nothing polls.  A Coordinator holds a tick only once its pool has
    sufficed since the tick was armed — a tick with the pool short is one
    armed before waiting rows hung up or lost eligibility, which fires
    into the short pool and arms nothing — and it holds one whenever its
    pool suffices and nothing else blocks a round (no admission's wake is
    lost)."""
    fleet, coordinator = waiting_fleet(kind)
    short = held = 0
    sufficed_since_armed, armed = False, None
    for suffices, ticks in step_through(fleet, coordinator, 2 * 3600):
        assert len(ticks) <= 1 and coordinator._tick_pending == bool(ticks)
        if ticks and ticks[0] is not armed:
            armed, sufficed_since_armed = ticks[0], False
        sufficed_since_armed |= suffices
        if not suffices:
            short += 1
            assert not ticks or sufficed_since_armed, fleet.loop.now
        elif not coordinator._blocked():
            assert ticks, fleet.loop.now
        held += bool(ticks)
    assert short > 1000 and held > 50
    assert len(fleet.committed_rounds) >= 20


@pytest.mark.parametrize("kind", sorted(WAITING_FLEETS))
def test_rounds_start_at_the_first_instant_pool_and_gap_allow(kind):
    """Every round starts at the first grid instant at or after both the
    moment its pool reached the threshold (last, if rows left it since)
    and the end of the gap — or, pipelined, the instant the previous round
    ended, its pool sufficing then."""
    tick = 10.0
    fleet, coordinator = waiting_fleet(kind, tick=tick)
    origin, config = coordinator._tick_origin_s, coordinator.config
    gap = -math.inf if config.pipelining else config.inter_round_gap_s
    active = reached = ended = None
    pool_bound = gap_bound = 0
    for suffices, _ in step_through(fleet, coordinator, 2 * 3600):
        now, round_id = fleet.loop.now, coordinator.active_round_id
        if round_id is not None and active not in (None, round_id):
            # One round ended and the next started in this event.
            assert config.pipelining, now
        elif round_id is not None and active is None:
            ready = max(reached, ended + gap if ended is not None else reached)
            assert on_grid(now, origin, tick), now
            assert ready <= now < ready + tick, (now, reached, ended)
            pool_bound += reached >= ready
            gap_bound += reached < ready
        elif round_id is None and active is not None:
            ended = now
        active = round_id
        if active is None and not suffices:
            reached = None
        elif active is None and reached is None:
            reached = now
    # (A pipelined round rarely starts back to back: a forwarding round
    # bounces what its Selectors admit once it is full.)
    assert pool_bound >= 10 and (config.pipelining or gap_bound >= 10)
    assert len(fleet.committed_rounds) >= 20


def test_tick_grid_is_closed_form_exact_on_awkward_grids():
    """The armed instant is ``origin + k * tick`` for the smallest k that
    is at or after now and not before the gap's end — on origins and
    ticks with no exact binary form, where a quotient can round across an
    integer either way (a wake at a grid instant arms that instant).  The
    pool is stubbed to suffice."""
    from repro.actors.coordinator import Coordinator
    from repro.sim.event_loop import EventLoop

    rng = np.random.default_rng(5)
    for _ in range(400):
        origin = float(rng.uniform(0.0, 2e5))
        tick = float(rng.choice([0.1, 0.25, 0.3, 1.0, 7.0, 10.0]))
        gap = float(rng.choice([0.0, 60.0, 900.0]))
        coordinator = Coordinator.__new__(Coordinator)
        coordinator.config = CoordinatorConfig(
            tick_interval_s=tick, pipelining=False, inter_round_gap_s=gap
        )
        coordinator.draining = False
        coordinator.active_master = None
        coordinator.rounds_finished = 0
        coordinator._tick_origin_s = origin
        coordinator._connected_total = lambda: 1
        coordinator._start_threshold = lambda: 1
        j = int(rng.integers(0, 50_000))
        on_grid_now = bool(rng.integers(2))
        now = origin + j * tick if on_grid_now else origin + float(
            rng.uniform(0.0, 5e4)
        )
        ended = None if rng.integers(3) == 0 else now - float(rng.uniform(0, 2 * gap + 1))
        coordinator.last_round_ended_at_s = ended
        coordinator.loop = EventLoop(start_time=now)
        coordinator._arm_tick()
        ((when, _, _),) = coordinator.loop._heap
        k = round((when - origin) / tick)
        assert when == origin + k * tick and k >= 0
        ready = now if ended is None else max(now, ended + gap)
        assert when >= now and when >= ready
        before = origin + (k - 1) * tick
        assert before < ready  # ... and it is the first
        if on_grid_now and ready == now:
            assert k == j
