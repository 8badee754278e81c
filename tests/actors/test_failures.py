"""Failure modes (Sec. 4.4): every crash scenario keeps the system alive.

"In all failure cases the system will continue to make progress, either by
completing the current round or restarting from the results of the
previously committed round."
"""

import numpy as np
import pytest

from repro import FLFleet, TaskConfig, RoundConfig
from repro.actors.coordinator import Coordinator
from repro.device.scheduler import JobSchedule
from repro.nn.models import LogisticRegression
from repro.sim.population import PopulationConfig


def build_fleet(seed=7, selectors=3, devices=250):
    task = TaskConfig(
        task_id="ftest/train",
        population_name="ftest",
        round_config=RoundConfig(
            target_participants=15, selection_timeout_s=60, reporting_timeout_s=120
        ),
    )
    model = LogisticRegression(input_dim=4, n_classes=2)
    return (
        FLFleet.builder()
        .seed(seed)
        .devices(PopulationConfig(num_devices=devices))
        .selectors(selectors)
        .job(JobSchedule(1200.0, 0.5))
        .population("ftest", tasks=[task], model=model.init(np.random.default_rng(0)))
        .build()
    )


def run_until_active_round(fleet, max_s=7200.0):
    """Advance until a master aggregator is live; returns its ref."""
    start = fleet.loop.now
    while fleet.loop.now - start < max_s:
        fleet.loop.run_for(5.0)
        coordinator = fleet.actors.actor_of(fleet.coordinators["ftest"])
        if coordinator is not None and coordinator.active_master is not None:
            return coordinator.active_master
    raise AssertionError("no round ever started")


def test_master_aggregator_crash_fails_round_but_system_recovers():
    fleet = build_fleet()
    master_ref = run_until_active_round(fleet)
    committed_before = len(fleet.committed_rounds)
    fleet.actors.crash(master_ref)
    fleet.run_for(2 * 3600)
    # The crashed round never committed, but later rounds did.
    assert len(fleet.committed_rounds) > committed_before
    assert not master_ref.alive


def test_master_crash_is_restarted_by_its_coordinator_at_the_crash_instant(
    monkeypatch,
):
    """Sec. 4.4: "the current round ... will fail, but will then be
    restarted by the Coordinator" — the kernel Restart the Coordinator
    spawned the master with fires at the crash instant, clears the round's
    forwarding at its Selectors, and a fresh round commits."""
    calls = []
    master_crashed = Coordinator._master_crashed

    def spy(coordinator, dead_ref):
        calls.append((coordinator.now, dead_ref))
        master_crashed(coordinator, dead_ref)

    monkeypatch.setattr(Coordinator, "_master_crashed", spy)
    fleet = build_fleet()
    master_ref = run_until_active_round(fleet)
    coordinator = fleet.actors.actor_of(fleet.coordinators["ftest"])
    crashed_round = coordinator.active_round_id
    routes = [selector.routes["ftest"] for selector in fleet.selector_actors()]
    assert {route.forwarding.round_id for route in routes} == {crashed_round}
    crashed_at = fleet.loop.now
    fleet.actors.crash(master_ref)
    fleet.loop.run_for(0.0)
    assert calls == [(crashed_at, master_ref)]
    assert coordinator.active_round_id != crashed_round
    for route in routes:
        assert route.forwarding is None or route.forwarding.round_id != crashed_round
    fleet.run_for(2 * 3600)
    assert len(calls) == 1
    assert crashed_round not in [r.round_id for r in fleet.round_results]
    assert any(r.committed for r in fleet.round_results if r.round_id > crashed_round)


def test_aggregator_crash_loses_only_its_devices():
    fleet = build_fleet()
    master_ref = run_until_active_round(fleet)
    master = fleet.actors.actor_of(master_ref)
    # Crash one leaf aggregator; the master and round may still finish.
    agg_ref = master.aggregators[0]
    fleet.actors.crash(agg_ref)
    fleet.run_for(2 * 3600)
    assert len(fleet.committed_rounds) >= 1
    assert not agg_ref.alive


def test_selector_crash_only_loses_its_connections():
    fleet = build_fleet()
    fleet.run_for(1800)
    victim = fleet.selectors[0]
    fleet.actors.crash(victim)
    committed_before = len(fleet.committed_rounds)
    fleet.run_for(2 * 3600)
    assert len(fleet.committed_rounds) > committed_before


def test_coordinator_crash_respawned_exactly_once():
    fleet = build_fleet()
    fleet.run_for(1800)
    old_ref = fleet.coordinators["ftest"]
    fleet.actors.crash(old_ref)
    fleet.run_for(3600)
    # One live Coordinator owns the population lock: the replacement.
    live = [
        ref for ref in fleet.actors.living_actors()
        if ref.name.startswith("coordinator/ftest/")
    ]
    assert live == [fleet.locks.owner_of("coordinator/ftest")]
    assert live[0] != old_ref
    # Exactly one respawn, and no lock race left anything behind.
    assert fleet.report().recovery.coordinator_respawns == 1
    assert not [k for k in fleet.locks._locks if k.startswith("respawn/")]


def test_fleet_coordinators_is_live_after_a_respawn():
    fleet = build_fleet()
    fleet.run_for(1800)
    old_ref = fleet.coordinators["ftest"]
    fleet.actors.crash(old_ref)
    fleet.run_for(60)
    new_ref = fleet.coordinators["ftest"]
    assert new_ref is not None and new_ref.alive
    assert new_ref != old_ref


@pytest.mark.parametrize("selectors", [1, 2])
def test_coordinator_crashed_with_every_selector_of_its_shard_is_respawned(
    selectors,
):
    """Sec. 4.4's progress claim when nothing in the tenant's shard is left
    to notice: every Selector and the Coordinator crash at one instant.
    The Coordinator is still respawned, once, and the tenant commits
    rounds it started after the crash."""
    fleet = build_fleet(seed=3, selectors=selectors, devices=200)
    fleet.run_for(4 * 3600)
    assert fleet.committed_rounds
    crashed_at = fleet.loop.now
    for ref in fleet.shard_selectors("ftest"):
        fleet.actors.crash(ref)
    fleet.actors.crash(fleet.coordinators["ftest"])
    fleet.run_for(4 * 3600)
    assert fleet.report().recovery.coordinator_respawns == 1
    assert [r for r in fleet.committed_rounds if r.started_at_s > crashed_at]


def test_system_makes_progress_after_coordinator_crash():
    fleet = build_fleet()
    fleet.run_for(1800)
    before = len(fleet.committed_rounds)
    fleet.actors.crash(fleet.coordinators["ftest"])
    fleet.run_for(3 * 3600)
    assert len(fleet.committed_rounds) > before


def test_round_counter_monotonic_across_coordinator_respawn():
    fleet = build_fleet()
    fleet.run_for(1800)
    fleet.actors.crash(fleet.coordinators["ftest"])
    fleet.run_for(2 * 3600)
    rounds = [c.round_number for c in fleet.store.history("ftest")]
    assert rounds == sorted(rounds)
    assert len(set(rounds)) == len(rounds)
