"""Evaluation tasks end to end: metrics without model movement.

Sec. 3: "FL plans are not specialized to training, but can also encode
evaluation tasks - computing quality metrics from held out data that
wasn't used for training, analogous to the validation step in data
center training."  Sec. 7.4: round metrics are materialized with task
name, round number and operational annotations.
"""

import numpy as np
import pytest

from repro import (
    ClientTrainingConfig,
    FLFleet,
    RoundConfig,
    SecAggConfig,
    TaskConfig,
    TaskKind,
)
from repro.core.checkpoint import FLCheckpoint
from repro.core.plan import generate_plan
from repro.core.task import SchedulingStrategy
from repro.device.example_store import ExampleStore
from repro.device.runtime import RealTrainer, SyntheticTrainer
from repro.device.scheduler import JobSchedule
from repro.nn.models import LogisticRegression
from repro.nn.serialization import checkpoint_nbytes
from repro.sim.population import PopulationConfig


def test_real_trainer_eval_plan_reports_metrics_only(rng):
    model = LogisticRegression(input_dim=3, n_classes=2)
    store = ExampleStore(ttl_s=None)
    w = rng.normal(size=(3, 2))
    for i in range(50):
        x = rng.normal(size=3)
        store.add(x, int((x @ w).argmax()), float(i))
    params = model.init(rng)
    plan = generate_plan(
        task_id="t", kind=TaskKind.EVALUATION,
        client_config=ClientTrainingConfig(), secagg=SecAggConfig(),
        model_nbytes=checkpoint_nbytes(params),
    )
    ckpt = FLCheckpoint.from_params(params, "pop", "t", 0)
    result = RealTrainer(model=model, store=store).train(plan, ckpt, 100.0, rng)
    assert np.all(result.delta_vector == 0)
    assert "eval_loss" in result.metrics
    assert "eval_accuracy" in result.metrics
    assert result.upload_nbytes < 1024  # metrics payload, not a model
    # Held-out split: 20% of 50 examples.
    assert result.num_examples == 10


def test_synthetic_trainer_eval_plan_zero_delta(rng):
    plan = generate_plan(
        task_id="t", kind=TaskKind.EVALUATION,
        client_config=ClientTrainingConfig(), secagg=SecAggConfig(),
        model_nbytes=100,
    )
    model = LogisticRegression(input_dim=2, n_classes=2)
    ckpt = FLCheckpoint.from_params(model.init(rng), "pop", "t", 0)
    trainer = SyntheticTrainer(num_parameters=6)
    result = trainer.train(plan, ckpt, 0.0, rng)
    assert np.all(result.delta_vector == 0)
    assert "eval_loss" in result.metrics


@pytest.fixture(scope="module")
def alternating_fleet():
    rc = RoundConfig(
        target_participants=12, selection_timeout_s=60, reporting_timeout_s=150
    )
    train = TaskConfig(
        task_id="pop/train", population_name="pop", round_config=rc
    )
    evaluate = TaskConfig(
        task_id="pop/eval", population_name="pop",
        kind=TaskKind.EVALUATION, round_config=rc,
    )
    model = LogisticRegression(input_dim=4, n_classes=2)
    fleet = (
        FLFleet.builder()
        .seed(23)
        .devices(PopulationConfig(num_devices=250))
        .selectors(2)
        .job(JobSchedule(1200.0, 0.5))
        .population(
            "pop",
            tasks=[train, evaluate],
            model=model.init(np.random.default_rng(0)),
            strategy=SchedulingStrategy.ALTERNATE_TRAIN_EVAL,
        )
        .build()
    )
    fleet.run_for(3 * 3600)
    return fleet


def test_eval_rounds_do_not_advance_the_model(alternating_fleet):
    fleet = alternating_fleet
    eval_rounds = [
        r for r in fleet.round_results
        if r.task_id == "pop/eval" and r.committed
    ]
    assert len(eval_rounds) >= 2
    # Every persisted checkpoint must come from the training task.
    for ckpt in fleet.store.history("pop"):
        assert ckpt.task_id == "pop/train"
    # Write count: init + one per committed TRAINING round only.
    train_commits = sum(
        1
        for r in fleet.round_results
        if r.task_id == "pop/train" and r.committed
    )
    assert fleet.store.write_count == train_commits + 1


def test_metrics_materialized_per_round(alternating_fleet):
    fleet = alternating_fleet
    assert set(fleet.metrics.tasks()) == {"pop/train", "pop/eval"}
    eval_history = fleet.metrics.history("pop/eval")
    assert len(eval_history) >= 2
    record = eval_history[0]
    assert record.metadata["kind"] == "evaluation"
    assert "eval_loss" in record.summaries
    summary = record.summaries["eval_loss"].to_dict()
    assert summary["count"] >= 10  # one report per completed device
    # Rows load cleanly into data-science tooling (Sec. 7.4).
    rows = fleet.metrics.to_rows("pop/train")
    assert all("loss/mean" in row for row in rows)
    assert all(row["task_name"] == "pop/train" for row in rows)
