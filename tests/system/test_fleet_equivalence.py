"""Seed equivalence of the model-update plane at fleet scale.

The same seed must produce the identical ``RunReport`` — and identical
committed model bytes — on a fleet of real trainers.  (That the in-place
kernels equal the allocating ones byte for byte is asserted where the
kernels live: ``tests/nn/test_inplace_equivalence.py``,
``tests/core/test_fedavg_cohort.py``, and the fold oracle in
``tests/actors/test_aggregator_unit.py``.)
"""

import numpy as np

from repro import FLFleet
from repro.core.config import ClientTrainingConfig, RoundConfig, TaskConfig
from repro.device.example_store import ExampleStore
from repro.device.runtime import RealTrainer
from repro.device.scheduler import JobSchedule
from repro.nn.models import MLPClassifier
from repro.sim.population import PopulationConfig


def build_and_run(days: float):
    model = MLPClassifier(input_dim=8, hidden_dims=(16,), n_classes=4)
    params = model.init(np.random.default_rng(0))
    data_rng = np.random.default_rng(99)
    w_true = data_rng.normal(size=(8, 4))

    def trainer_factory(profile):
        store = ExampleStore(ttl_s=None)
        x = data_rng.normal(size=(40, 8))
        y = (x @ w_true).argmax(axis=1)
        store.add_batch(x, y, timestamp_s=0.0)
        return RealTrainer(model=model, store=store)

    task = TaskConfig(
        task_id="t",
        population_name="pop",
        round_config=RoundConfig(target_participants=15),
        client_config=ClientTrainingConfig(epochs=2, batch_size=8, learning_rate=0.3),
    )
    fleet = (
        FLFleet.builder()
        .seed(11)
        .devices(PopulationConfig(num_devices=120))
        # The default hourly job cadence starts no round in 0.2 days.
        .job(JobSchedule(600.0, 0.5))
        .population("pop", tasks=[task], model=params,
                    trainer_factory=trainer_factory)
        .build()
    )
    fleet.run_days(days)
    assert fleet.report().rounds_committed > 0
    return fleet.report(), fleet.global_model("pop").to_vector()


def test_same_seed_same_report_within_buffered_mode():
    report_1, ckpt_1 = build_and_run(days=0.2)
    report_2, ckpt_2 = build_and_run(days=0.2)
    assert report_1 == report_2
    np.testing.assert_array_equal(ckpt_1, ckpt_2)
