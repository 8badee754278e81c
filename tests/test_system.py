"""One population end to end: multi-task scheduling, SecAgg rounds, real training."""

import numpy as np
import pytest

from repro import (
    ClientTrainingConfig,
    FLFleet,
    FleetValidationError,
    RoundConfig,
    SecAggConfig,
    TaskConfig,
    TaskKind,
)
from repro.core.task import SchedulingStrategy
from repro.device.runtime import RealTrainer
from repro.device.example_store import ExampleStore
from repro.device.scheduler import JobSchedule
from repro.nn.models import LogisticRegression
from repro.sim.population import PopulationConfig


def fleet_builder(seed=5, devices=250, **population):
    return (
        FLFleet.builder()
        .seed(seed)
        .devices(PopulationConfig(num_devices=devices, **population))
        .selectors(2)
        .job(JobSchedule(1200.0, 0.5))
    )


def round_config(target=12):
    return RoundConfig(
        target_participants=target, selection_timeout_s=60, reporting_timeout_s=150
    )


def test_multi_task_alternates_train_and_eval():
    train = TaskConfig(
        task_id="pop/train", population_name="pop", round_config=round_config()
    )
    evaluate = TaskConfig(
        task_id="pop/eval",
        population_name="pop",
        kind=TaskKind.EVALUATION,
        round_config=round_config(),
    )
    model = LogisticRegression(input_dim=4, n_classes=2)
    fleet = (
        fleet_builder()
        .population(
            "pop",
            tasks=[train, evaluate],
            model=model.init(np.random.default_rng(0)),
            strategy=SchedulingStrategy.ALTERNATE_TRAIN_EVAL,
        )
        .build()
    )
    fleet.run_for(3 * 3600)
    task_ids = [r.task_id for r in fleet.round_results]
    assert "pop/train" in task_ids
    assert "pop/eval" in task_ids
    # Strict alternation at the scheduler level.
    started_pairs = list(zip(task_ids, task_ids[1:]))
    alternating = sum(a != b for a, b in started_pairs)
    assert alternating >= len(started_pairs) * 0.8


def test_secure_aggregation_rounds_commit():
    """SecAgg through the actor stack: rounds commit and the model moves."""
    task = TaskConfig(
        task_id="pop/secagg",
        population_name="pop",
        round_config=round_config(target=10),
        secagg=SecAggConfig(enabled=True, group_size=8, threshold_fraction=0.6),
    )
    model = LogisticRegression(input_dim=3, n_classes=2)
    initial = model.init(np.random.default_rng(1))
    fleet = (
        fleet_builder(seed=9).population("pop", tasks=[task], model=initial).build()
    )
    fleet.run_for(2 * 3600)
    committed = fleet.committed_rounds
    assert len(committed) >= 3
    assert not fleet.global_model().allclose(initial)


def test_secagg_quantization_error_is_small():
    """The securely-aggregated model must closely track what plain
    aggregation would produce (quantization error only)."""
    # Run two fleets with identical seeds, one secure, one plain.
    results = {}
    for secure in (False, True):
        task = TaskConfig(
            task_id="pop/t",
            population_name="pop",
            round_config=round_config(target=10),
            secagg=SecAggConfig(
                enabled=secure, group_size=8, threshold_fraction=0.6
            ),
        )
        model = LogisticRegression(input_dim=3, n_classes=2)
        initial = model.init(np.random.default_rng(1))
        fleet = (
            fleet_builder(seed=21)
            .population("pop", tasks=[task], model=initial)
            .build()
        )
        # The store keeps only the latest model: step the run and read the
        # first committed round's model as it lands (stepping leaves the
        # trajectory as one 1800 s run would).
        for _ in range(180):
            fleet.run_for(10.0)
            if fleet.committed_rounds:
                first = fleet.store.latest("pop")
                assert first.round_number == fleet.committed_rounds[0].round_id
                results[secure] = first.to_params().to_vector()
                break
    if len(results) == 2:
        # Same seed -> same first-round cohort; only quantization differs.
        diff = np.abs(results[True] - results[False]).max()
        assert diff < 1e-3


def test_real_trainer_fleet_learns():
    """Devices hold real data in example stores; the global model's loss
    on a reference set drops across committed rounds."""
    rng = np.random.default_rng(3)
    model = LogisticRegression(input_dim=4, n_classes=3)
    w_true = rng.normal(size=(4, 3))
    ref_x = rng.normal(size=(400, 4))
    ref_y = (ref_x @ w_true).argmax(axis=1)

    def trainer_factory(profile):
        store = ExampleStore(ttl_s=None)
        n = 40
        x = rng.normal(size=(n, 4))
        y = (x @ w_true).argmax(axis=1)
        store.add_batch(x, y, timestamp_s=0.0)
        return RealTrainer(model=model, store=store)

    task = TaskConfig(
        task_id="pop/real",
        population_name="pop",
        round_config=round_config(target=10),
        client_config=ClientTrainingConfig(
            epochs=1, batch_size=16, learning_rate=0.5
        ),
    )
    initial = model.init(np.random.default_rng(0))
    fleet = (
        fleet_builder(seed=13, devices=200)
        .population(
            "pop", tasks=[task], model=initial, trainer_factory=trainer_factory
        )
        .build()
    )
    fleet.run_for(4 * 3600)
    assert len(fleet.committed_rounds) >= 5
    loss_before = model.loss(initial, ref_x, ref_y)
    loss_after = model.loss(fleet.global_model(), ref_x, ref_y)
    assert loss_after < 0.7 * loss_before


def test_compromised_devices_never_participate():
    task = TaskConfig(
        task_id="pop/t", population_name="pop", round_config=round_config()
    )
    model = LogisticRegression(input_dim=3, n_classes=2)
    fleet = (
        fleet_builder(seed=17, devices=200, compromised_fraction=0.2)
        .population("pop", tasks=[task], model=model.init(np.random.default_rng(0)))
        .build()
    )
    fleet.run_for(2 * 3600)
    compromised_ids = {p.device_id for p in fleet.profiles if not p.genuine}
    assert compromised_ids  # the scenario is non-trivial
    for result in fleet.round_results:
        participant_ids = {r.device_id for r in result.participant_records}
        assert participant_ids.isdisjoint(compromised_ids)
    # ... because the Selectors' screens turned them away.
    assert sum(
        route.stats.rejected_attestation
        for s in fleet.selector_actors() for route in s.routes.values()
    ) > 0


def test_device_health_telemetry_aggregates():
    """Sec. 5 health logging: training time, sessions, errors, OS split."""
    task = TaskConfig(
        task_id="pop/t", population_name="pop", round_config=round_config()
    )
    model = LogisticRegression(input_dim=3, n_classes=2)
    fleet = (
        fleet_builder(seed=29)
        .population("pop", tasks=[task], model=model.init(np.random.default_rng(0)))
        .build()
    )
    fleet.run_for(2 * 3600)
    health = fleet.health_report()
    assert health.sessions["count"] == len(fleet.devices)
    assert health.train_seconds["max"] > 0
    assert sum(health.sessions_by_os_version.values()) > 0
    # Error reasons, when present, come from the known taxonomy.
    known = {
        "eligibility_change", "network_download", "network_upload",
        "compute_error", "gone_before_configuration",
    }
    assert set(health.errors_by_reason) <= known


def test_run_before_deploy_rejected():
    """A fleet exists to run only once its builder has installed it."""
    with pytest.raises(RuntimeError, match="build the fleet"):
        FLFleet().run_for(10.0)


def test_mixed_population_tasks_rejected():
    model = LogisticRegression(input_dim=2, n_classes=2)
    tasks = [
        TaskConfig(task_id="a", population_name="p1"),
        TaskConfig(task_id="b", population_name="p2"),
    ]
    with pytest.raises(FleetValidationError, match="targets population 'p2'"):
        fleet_builder().population(
            "p1", tasks=tasks, model=model.init(np.random.default_rng(0))
        )
