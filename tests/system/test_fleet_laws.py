"""Each law of ``fleet_laws`` catches the bug it exists for.

The laws run on the tenancy scripts and the chaos fleets; here each one
is shown to hold on a lossy fleet and to fail once one bug is injected
into the code it guards — a law that cannot fail guards nothing.
"""

import numpy as np
import pytest

from fleet_laws import run_checked
from repro import FaultPlan, FLFleet, RoundConfig, TaskConfig
from repro.actors.selector import Selector
from repro.core.checkpoint import CheckpointStore, CheckpointWriteError
from repro.device.scheduler import JobSchedule
from repro.nn.models import LogisticRegression
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
    """(i): a dropped check-in must give its reserved slot back."""
    plan = FaultPlan(messages=MessageFaultConfig(drop_prob=0.2))
    fleet = lossy_fleet(plan)
    run_checked(fleet, HOURS)
    assert fleet.report().recovery.messages_dropped > 0

    monkeypatch.setattr(Selector, "checkin_lost", lambda self, population_name: None)
    with pytest.raises(AssertionError, match="quota law"):
        run_checked(lossy_fleet(plan), HOURS)


def test_reservation_law_catches_an_admission_without_a_slot(monkeypatch):
    """(ii): the screen must reserve a slot for every row it admits."""
    fleet = lossy_fleet(FaultPlan())
    run_checked(fleet, HOURS)
    assert fleet.report().rounds_committed > 0

    admit_group = Selector._admit_group

    def unreserved(self, route, *verdicts):
        admitted = admit_group(self, route, *verdicts)
        route.pending_admissions -= len(admitted)
        return admitted

    monkeypatch.setattr(Selector, "_admit_group", unreserved)
    with pytest.raises(AssertionError, match="reservation law"):
        run_checked(lossy_fleet(FaultPlan()), HOURS)


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
