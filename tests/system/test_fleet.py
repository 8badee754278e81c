"""FLFleet end to end: concurrent populations, typed reports, determinism."""

import numpy as np
import pytest

from repro import (
    FLFleet,
    RoundConfig,
    TaskConfig,
    TaskKind,
)
from repro.device.scheduler import JobSchedule
from repro.nn.models import LogisticRegression
from repro.sim.population import PopulationConfig


def round_config(target=10):
    return RoundConfig(
        target_participants=target, selection_timeout_s=60, reporting_timeout_s=150
    )


def build_two_population_fleet(seed=19, devices=200):
    kbd_model = LogisticRegression(input_dim=4, n_classes=3)
    stats_model = LogisticRegression(input_dim=2, n_classes=2)
    return (
        FLFleet.builder()
        .seed(seed)
        .devices(PopulationConfig(num_devices=devices))
        .selectors(2)
        .job(JobSchedule(900.0, 0.5))
        .population(
            "kbd",
            tasks=[
                TaskConfig(
                    task_id="kbd/train",
                    population_name="kbd",
                    round_config=round_config(),
                )
            ],
            model=kbd_model.init(np.random.default_rng(0)),
        )
        .population(
            "stats",
            tasks=[
                TaskConfig(
                    task_id="stats/eval",
                    population_name="stats",
                    kind=TaskKind.EVALUATION,
                    round_config=round_config(),
                )
            ],
            model=stats_model.init(np.random.default_rng(1)),
            membership=0.6,
        )
        .build()
    )


@pytest.fixture(scope="module")
def two_population_fleet():
    fleet = build_two_population_fleet()
    fleet.run_for(3 * 3600)
    return fleet


def test_both_populations_commit_rounds(two_population_fleet):
    report = two_population_fleet.report()
    assert report.population_names == ("kbd", "stats")
    for pop in report.populations:
        assert pop.rounds_committed >= 3
    # Fleet totals are the sum of the tenants'.
    assert report.rounds_total == sum(p.rounds_total for p in report.populations)
    assert report.rounds_committed == sum(
        p.rounds_committed for p in report.populations
    )


def test_shared_fleet_one_event_loop(two_population_fleet):
    fleet = two_population_fleet
    # One loop, one actor system, one device fleet; two coordinators.
    assert len(fleet.devices) == 200
    assert set(fleet.coordinators) == {"kbd", "stats"}
    kbd = fleet.actors.actor_of(fleet.coordinators["kbd"])
    stats = fleet.actors.actor_of(fleet.coordinators["stats"])
    assert kbd is not None and stats is not None
    assert kbd is not stats
    # Each population's model advanced independently in the shared store.
    assert fleet.store.has_checkpoint("kbd")
    assert fleet.store.has_checkpoint("stats")


def test_round_ids_never_collide_across_populations(two_population_fleet):
    fleet = two_population_fleet
    kbd_ids = {r.round_id for r in fleet.results_for("kbd")}
    stats_ids = {r.round_id for r in fleet.results_for("stats")}
    assert kbd_ids and stats_ids
    assert kbd_ids.isdisjoint(stats_ids)


def test_dual_members_record_sessions_in_both(two_population_fleet):
    fleet = two_population_fleet
    dual_ids = fleet.members_of("kbd") & fleet.members_of("stats")
    assert dual_ids
    interleaved = [
        d
        for d in fleet.devices
        if d.health.sessions_by_population.get("kbd", 0) > 0
        and d.health.sessions_by_population.get("stats", 0) > 0
    ]
    assert interleaved, "no device interleaved sessions across populations"
    # Session accounting is consistent per device.
    for device in fleet.devices:
        assert (
            sum(device.health.sessions_by_population.values())
            == device.health.sessions_started
        )


def test_population_reports_match_dashboard_series(two_population_fleet):
    fleet = two_population_fleet
    report = fleet.report()
    for pop in report.populations:
        outcome = fleet.dashboard.series(f"pop/{pop.name}/rounds/outcome")
        assert len(outcome) == pop.rounds_total
        assert sum(outcome.values) == pop.rounds_committed
        assert (
            fleet.dashboard.counter(f"pop/{pop.name}/rounds/committed")
            == pop.rounds_committed
        )
        completed = fleet.dashboard.series(
            f"pop/{pop.name}/rounds/completed_devices"
        )
        committed_mask = [v == 1.0 for v in outcome.values]
        committed_completed = [
            v for v, m in zip(completed.values, committed_mask) if m
        ]
        if committed_completed:
            assert np.isclose(
                float(np.mean(committed_completed)), pop.mean_completed_per_round
            )


def test_health_report_population_split(two_population_fleet):
    report = two_population_fleet.report()
    by_pop = report.health.sessions_by_population
    assert set(by_pop) == {"kbd", "stats"}
    assert by_pop["kbd"] > 0 and by_pop["stats"] > 0
    total_sessions = sum(
        d.health.sessions_started for d in two_population_fleet.devices
    )
    assert sum(by_pop.values()) == total_sessions
    # device_sessions on each PopulationReport agrees with the health split.
    for pop in report.populations:
        assert pop.device_sessions == by_pop[pop.name]


def test_seeded_fleets_produce_identical_reports():
    first = build_two_population_fleet(seed=29, devices=120)
    second = build_two_population_fleet(seed=29, devices=120)
    first.run_for(2 * 3600)
    second.run_for(2 * 3600)
    assert first.report() == second.report()


def test_differently_seeded_fleets_differ():
    first = build_two_population_fleet(seed=29, devices=120)
    second = build_two_population_fleet(seed=31, devices=120)
    first.run_for(2 * 3600)
    second.run_for(2 * 3600)
    assert first.report() != second.report()


def test_run_report_agrees_with_raw_telemetry():
    """The typed report's fleet totals agree with the fleet's raw
    telemetry: its round results and the network's byte meter."""
    task = TaskConfig(
        task_id="pop/t", population_name="pop", round_config=round_config()
    )
    model = LogisticRegression(input_dim=3, n_classes=2)
    fleet = (
        FLFleet.builder()
        .seed(5)
        .devices(PopulationConfig(num_devices=150))
        .selectors(2)
        .job(JobSchedule(1200.0, 0.5))
        .population("pop", tasks=[task], model=model.init(np.random.default_rng(0)))
        .build()
    )
    fleet.run_for(2 * 3600)

    report = fleet.report()
    meter = fleet.config.network.meter
    assert report.rounds_total == len(fleet.round_results)
    assert report.rounds_committed == len(fleet.committed_rounds) > 0
    assert report.download_bytes == meter.downloaded_bytes
    assert report.upload_bytes == meter.uploaded_bytes
    health = fleet.health_report()
    assert report.health == health
    assert health.sessions["count"] == 150
    # The single population's report covers the whole run.
    (pop,) = report.populations
    assert pop.name == "pop"
    assert pop.rounds_total == report.rounds_total
    assert pop.member_devices == 150
    (task_report,) = pop.tasks
    assert task_report.task_id == "pop/t"
    assert task_report.rounds_committed == report.rounds_committed


def test_fleet_run_before_build_install_rejected():
    fleet = FLFleet()
    with pytest.raises(RuntimeError, match="deploy"):
        fleet.run_for(10.0)
