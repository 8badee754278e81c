"""Each law of ``fleet_laws`` catches the bug it exists for.

The laws run on the tenancy scripts and the chaos fleets; here each one
is shown to hold on a lossy fleet and to fail once one bug is injected
into the code it guards — a law that cannot fail guards nothing.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleet_laws import check_fleet_laws, check_waiting_rows, run_checked
from repro import FaultPlan, FLFleet, PopulationSpec, RoundConfig, TaskConfig
from repro.core.checkpoint import CheckpointStore, CheckpointWriteError
from repro.device.actor import DeviceActor
from repro.device.scheduler import JobSchedule
from repro.device.table import DeviceTable
from repro.nn.models import LogisticRegression
from repro.sim.idle_plane import VectorizedIdlePlane
from repro.sim.population import PopulationConfig
from repro.system import CheckpointFaultConfig, MessageFaultConfig

HOURS = 3 * 3600.0


def lossy_fleet(plan: FaultPlan):
    task = TaskConfig(
        task_id="laws/train",
        population_name="laws",
        round_config=RoundConfig(
            target_participants=8, selection_timeout_s=60, reporting_timeout_s=120
        ),
    )
    model = LogisticRegression(input_dim=4, n_classes=2)
    return (
        FLFleet.builder()
        .seed(5)
        .devices(PopulationConfig(num_devices=150))
        .selectors(2)
        .job(JobSchedule(600.0, 0.5))
        .waiting_timeout(300.0)
        .faults(plan)
        .population("laws", tasks=[task], model=model.init(np.random.default_rng(0)))
        .build()
    )


def test_quota_law_catches_a_lost_checkin_keeping_its_slot(monkeypatch):
    """(i): a check-in lost on the way waits nowhere — its Selector's
    pool must not count it."""
    plan = FaultPlan(messages=MessageFaultConfig(drop_prob=0.2))
    fleet = lossy_fleet(plan)
    run_checked(fleet, HOURS)
    assert fleet.report().recovery.messages_dropped > 0

    wait_rows = VectorizedIdlePlane._wait_rows

    def keeping_slots(self, rows, slots, at, now):
        meant = at.copy()
        wait_rows(self, rows, slots, at, now)  # the fault re-homes ``at``
        lost = at != meant
        np.add.at(self._waiting, (meant[lost], slots[lost]), 1)

    monkeypatch.setattr(VectorizedIdlePlane, "_wait_rows", keeping_slots)
    with pytest.raises(AssertionError, match="pool law"):
        run_checked(lossy_fleet(plan), HOURS)


def test_reservation_law_catches_an_admission_without_a_slot(monkeypatch):
    """(i): every row the screen admits is counted in its pool."""
    fleet = lossy_fleet(FaultPlan())
    run_checked(fleet, HOURS)
    assert fleet.report().rounds_committed > 0

    wait_rows = VectorizedIdlePlane._wait_rows

    def uncounted(self, rows, slots, at, now):
        wait_rows(self, rows, slots, at, now)
        pooled = at != len(self._selectors)
        np.subtract.at(self._waiting, (at[pooled], slots[pooled]), 1)

    monkeypatch.setattr(VectorizedIdlePlane, "_wait_rows", uncounted)
    with pytest.raises(AssertionError, match="pool law"):
        run_checked(lossy_fleet(FaultPlan()), HOURS)


def test_waiting_law_catches_a_device_left_in_its_session(monkeypatch):
    """(ii): a row that waits again has no device still in a session —
    here one whose session never let go of it, kept by its table."""
    end = DeviceActor._end_session

    def sticky(device, *args):
        aggregator = device._aggregator
        end(device, *args)
        device._aggregator = aggregator

    monkeypatch.setattr(DeviceActor, "_end_session", sticky)
    monkeypatch.setattr(DeviceTable, "close", lambda table, index: None)
    fleet = lossy_fleet(FaultPlan())
    with pytest.raises(AssertionError, match="waiting-row law"):
        while fleet.loop.now < HOURS:  # (iv) alone would fire first
            fleet.run_for(600.0)
            check_waiting_rows(fleet)


def test_residency_law_catches_a_device_kept_past_its_hang_up(monkeypatch):
    """(iv): a row forwarded to a round whose configuration is lost on the
    way hangs up, and its device goes with the wait."""
    plan = FaultPlan(messages=MessageFaultConfig(drop_prob=0.2))
    release = VectorizedIdlePlane.release

    def keeping_devices(plane, *args):
        plane._devices.close = lambda index: None
        try:
            return release(plane, *args)
        finally:
            del plane._devices.close

    monkeypatch.setattr(VectorizedIdlePlane, "release", keeping_devices)
    with pytest.raises(AssertionError, match="residency law"):
        run_checked(lossy_fleet(plan), HOURS)


def test_write_law_catches_a_failed_write_counted_as_durable(monkeypatch):
    """(iii): only a durable write counts, whatever the fault rate."""
    plan = FaultPlan(checkpoint=CheckpointFaultConfig(write_failure_prob=0.5))
    fleet = lossy_fleet(plan)
    run_checked(fleet, HOURS)
    assert fleet.store.failed_write_count > 0 and fleet.report().rounds_committed > 0

    commit = CheckpointStore.commit

    def miscounted(store, checkpoint):
        try:
            commit(store, checkpoint)
        except CheckpointWriteError:
            store.write_count += 1
            raise

    monkeypatch.setattr(CheckpointStore, "commit", miscounted)
    with pytest.raises(AssertionError, match="durable-write law"):
        run_checked(lossy_fleet(plan), HOURS)


def laws_spec() -> PopulationSpec:
    task = TaskConfig(
        task_id="laws/train",
        population_name="laws",
        round_config=RoundConfig(
            target_participants=8, selection_timeout_s=60, reporting_timeout_s=120
        ),
    )
    params = LogisticRegression(input_dim=4, n_classes=2).init(np.random.default_rng(0))
    return PopulationSpec(name="laws", tasks=[task], initial_params=params)


steps = st.one_of(
    st.tuples(st.just("run"), st.integers(60, 1800)),
    st.tuples(st.just("crash"), st.integers(0, 1)),
    st.tuples(st.just("drain"), st.integers(0, 600)),
    st.tuples(st.just("snapshot"), st.just(0)),
)


@given(st.lists(steps, min_size=1, max_size=6))
@settings(max_examples=12, deadline=None)
def test_pool_law_holds_across_crashes_drops_drains_and_restores(script):
    """(i) and (ii) on generated trajectories of a fleet that drops a fifth
    of its check-ins: Selector crashes (and the cluster manager's
    respawns), drains and re-attaches, and snapshots — each restored
    fleet continuing byte-identically to the one it froze."""
    fleet = lossy_fleet(FaultPlan(messages=MessageFaultConfig(drop_prob=0.2)))
    run_checked(fleet, 1800.0)
    with tempfile.TemporaryDirectory() as scratch:
        for number, (kind, arg) in enumerate(script):
            if kind == "run":
                run_checked(fleet, float(arg))
            elif kind == "crash":
                ref = fleet.selectors[arg]
                if ref.alive:
                    fleet.actors.crash(ref)
            elif kind == "drain":
                if "laws" in fleet.population_names:
                    fleet.drain_population("laws", deadline_s=float(arg))
                else:
                    fleet.attach_population(laws_spec())
            else:
                path = Path(scratch) / f"fleet-{number}.snapshot"
                fleet.snapshot(path)
                restored = FLFleet.restore(path)
                check_fleet_laws(restored)
                fleet.run_for(600.0)
                restored.run_for(600.0)
                assert restored.report() == fleet.report()
                assert (restored.idle_plane._waiting == fleet.idle_plane._waiting).all()
                fleet = restored
            check_fleet_laws(fleet)
    assert fleet.report().recovery.messages_dropped > 0
