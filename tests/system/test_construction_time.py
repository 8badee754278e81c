"""A ``DeviceActor`` exists only in a session, and building one is unobservable.

Under the vectorized idle plane a device is a row outside a session: its
object is built when a round takes the row and goes when the session is
over.  Building one draws nothing, schedules nothing and writes no
column, and it is spawned under the actor id reserved for it at fleet
start — so a run in which every row is looked at (a device object built
and retired at once) right after ``.build()`` and a run that builds
devices only for sessions must agree on every ``RunReport`` byte, every
event and every ``ActorRef`` id: on an idle-majority fleet, on a
12-tenant sharded one, through a chaos run with attach → snapshot →
restore → drain → re-attach, and when a random subset of rows is looked
at at random simulated times.  Through those runs, at every round
boundary, the device objects alive are only rows in a session
(``fleet_laws`` law iv).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleet_laws import check_resident_devices
from repro import FLFleet, FaultPlan, PopulationSpec, RoundConfig, TaskConfig
from repro.actors.coordinator import CoordinatorConfig
from repro.core.pace import PaceConfig
from repro.device.scheduler import JobSchedule
from repro.nn.models import LogisticRegression
from repro.sim.population import PopulationConfig
from repro.system import (
    ActorCrashSchedule,
    CheckpointFaultConfig,
    DeviceInterruptSchedule,
    MessageFaultConfig,
)

HOUR = 3600.0
INIT = LogisticRegression(input_dim=4, n_classes=3).init(np.random.default_rng(0))


def spec_for(name, target=8, membership=1.0):
    task = TaskConfig(
        task_id=f"{name}/train",
        population_name=name,
        round_config=RoundConfig(
            target_participants=target, selection_timeout_s=60,
            reporting_timeout_s=150,
        ),
    )
    return PopulationSpec(
        name=name, tasks=[task], initial_params=INIT,
        membership_fraction=membership,
    )


def idle_majority_fleet():
    return (
        FLFleet.builder()
        .seed(2019)
        .devices(PopulationConfig(num_devices=2500))
        .selectors(1)
        .coordinator(CoordinatorConfig(pipelining=False, inter_round_gap_s=2700.0))
        .pace(PaceConfig(
            round_period_s=2700.0,
            small_population_threshold=500,
            max_reconnect_delay_s=7200.0,
        ))
        .job(JobSchedule(3600.0, 0.5))
        .waiting_timeout(3600.0)
        .add_spec(spec_for("pop", target=10))
        .build()
    )


def sharded_fleet():
    builder = (
        FLFleet.builder()
        .seed(7)
        .devices(PopulationConfig(num_devices=400))
        .selectors(8)
        .selector_shards(4)
        .device_scheduler("fair_share")
        .job(JobSchedule(900.0, 0.5))
    )
    for t in range(12):
        builder.add_spec(spec_for(f"tenant{t:02d}", target=5, membership=0.6))
    return builder.build()


CHAOS = FaultPlan(
    crashes=(
        ActorCrashSchedule("selector", mean_interval_s=1800.0),
        ActorCrashSchedule("coordinator", mean_interval_s=3600.0),
        ActorCrashSchedule("master_aggregator", mean_interval_s=2700.0),
    ),
    messages=MessageFaultConfig(drop_prob=0.01, delay_prob=0.02, delay_mean_s=2.0),
    checkpoint=CheckpointFaultConfig(write_failure_prob=0.2),
    device_interrupts=DeviceInterruptSchedule(mean_interval_s=900.0),
)


def chaos_fleet():
    return (
        FLFleet.builder()
        .seed(41)
        .devices(PopulationConfig(num_devices=300))
        .selectors(4)
        .selector_shards(2)
        .job(JobSchedule(900.0, 0.5))
        .faults(CHAOS)
        .add_spec(spec_for("secure", target=10))
        .add_spec(spec_for("plain", target=6, membership=0.5))
        .build()
    )


def steady(hours):
    def script(fleet, tmp_path, tag):
        fleet.run_for(hours * HOUR)
        return fleet

    return script


def lifecycle_script(fleet, tmp_path, tag):
    """attach → snapshot → restore → drain → re-attach of the drained
    name, with chaos running throughout."""
    fleet.run_for(HOUR)
    fleet.attach_population(spec_for("late", target=6, membership=0.5))
    fleet.run_for(HOUR)
    path = tmp_path / f"fleet-{tag}.snapshot"
    fleet.snapshot(path)
    restored = FLFleet.restore(path)
    # A snapshot holds the table as it is: the same rows have objects.
    assert [d is None for d in restored.devices.rows()] == [
        d is None for d in fleet.devices.rows()
    ]
    fleet = restored
    fleet.run_for(HOUR)
    fleet.drain_population("plain", deadline_s=900.0)
    fleet.run_for(0.5 * HOUR)
    fleet.attach_population(spec_for("plain", target=6, membership=0.5))
    fleet.run_for(HOUR)
    return fleet


def observe(fleet):
    """Everything a run yields, then every actor's address (asking for
    the refs builds a look at every row not in a session — after the
    report)."""
    report = fleet.report()
    events = fleet.loop.events_processed
    memberships = [device.memberships for device in fleet.devices]
    refs = sorted(
        (ref.actor_id, ref.name) for ref in fleet.actors.living_actors()
    )
    assert [d.ref.name for d in fleet.devices] == [p.name for p in fleet.profiles]
    return report, events, memberships, refs


@pytest.mark.parametrize(
    "build, script",
    [
        (idle_majority_fleet, steady(8)),
        (sharded_fleet, steady(3)),
        (chaos_fleet, lifecycle_script),
    ],
    ids=["idle-majority", "12-tenant-sharded", "chaos-lifecycle"],
)
def test_constructing_every_device_up_front_changes_nothing(
    build, script, tmp_path, monkeypatch
):
    boundaries = []
    on_round_result = FLFleet._on_round_result

    def _on_round_result(self, population_name, result):
        # Named as the method it wraps: a snapshot pickles the Coordinators'
        # bound listener by name.
        on_round_result(self, population_name, result)
        check_resident_devices(self)
        boundaries.append(result.round_id)

    with monkeypatch.context() as patch:
        patch.setattr(FLFleet, "_on_round_result", _on_round_result)
        lazy = build()
        assert lazy.devices.constructions == 0
        lazy = script(lazy, tmp_path, "lazy")
    # The regime: a device per session, and few rows in one at any time.
    assert len(boundaries) == len(lazy.round_results) > 0
    live = [device for device in lazy.devices.rows() if device is not None]
    assert lazy.devices.constructions > len(live) and len(live) < len(lazy.devices)

    eager = build()
    everyone = list(eager.devices)
    assert len(everyone) == len(eager.profiles) and eager.devices.constructions == 0
    assert not any(device.ref.alive for device in everyone)  # each look retired
    eager = script(eager, tmp_path, "eager")

    lazy_seen, eager_seen = observe(lazy), observe(eager)
    for got, wanted in zip(lazy_seen, eager_seen, strict=True):
        assert got == wanted
    assert lazy_seen[0].rounds_committed > 0


# -- a random subset, at random simulated times --------------------------------------


def small_fleet():
    return (
        FLFleet.builder()
        .seed(13)
        .devices(PopulationConfig(num_devices=150))
        .selectors(2)
        .job(JobSchedule(900.0, 0.5))
        .add_spec(spec_for("kbd", target=8))
        .add_spec(spec_for("stats", target=5, membership=0.5))
        .build()
    )


SMALL_RUN_S = 2 * HOUR
_untouched = []


def untouched_run():
    if not _untouched:
        fleet = small_fleet()
        fleet.run_for(SMALL_RUN_S)
        _untouched.append(observe(fleet))
    return _untouched[0]


@given(
    st.lists(
        st.tuples(
            st.floats(0.0, SMALL_RUN_S),
            st.lists(st.integers(-150, 149), min_size=1, max_size=40),
        ),
        max_size=6,
    )
)
@settings(max_examples=15, deadline=None)
def test_forcing_any_devices_at_any_time_changes_nothing(forcings):
    fleet = small_fleet()
    for at_s, indices in sorted(forcings):
        fleet.run_for(at_s - fleet.loop.now)
        for index in indices:
            device = fleet.devices[index]
            # A row in a session has its device; any other's look is retired.
            assert (device is fleet.devices[index]) == device.ref.alive
            assert device.device_id == index % 150
    fleet.run_for(SMALL_RUN_S - fleet.loop.now)
    assert observe(fleet) == untouched_run()
