"""Simulation workflows for model engineers (Sec. 7.1).

"Initial hyperparameter exploration is sometimes done in simulation using
proxy data ... Our modeling tools allow deployment of FL tasks to a
simulated FL server and a fleet of cloud jobs emulating devices on a large
proxy dataset ... Simulation ... is sometimes used to pre-train models on
proxy data before it is refined by FL in the field."
"""

from __future__ import annotations

import numpy as np

from repro.core.config import TaskConfig
from repro.core.datasets import ClientDataset, pool_datasets
from repro.core.fedavg import FedAvgConfig, FederatedAveraging, RoundStats
from repro.nn.models import Model
from repro.nn.optimizers import SGD
from repro.nn.parameters import Parameters


def pretrain_on_proxy(
    model: Model,
    params: Parameters,
    proxy_clients: list[ClientDataset],
    epochs: int,
    batch_size: int,
    learning_rate: float,
    rng: np.random.Generator,
) -> Parameters:
    """Centralized pre-training on pooled proxy data (e.g. Wikipedia text
    as a proxy for keyboard input) before FL refinement in the field."""
    pooled = pool_datasets(proxy_clients)
    optimizer = SGD(learning_rate)
    for xb, yb in pooled.batches(batch_size, epochs, rng):
        _, grads = model.loss_and_grad(params, xb, yb)
        params = optimizer.step(params, grads)
    return params


def run_simulated_task(
    model: Model,
    task: TaskConfig,
    proxy_clients: list[ClientDataset],
    num_rounds: int,
    rng: np.random.Generator,
    initial_params: Parameters | None = None,
) -> tuple[Parameters, list[RoundStats]]:
    """Deploy the task against a simulated fleet of proxy-data devices.

    "The simulation executes the same code as we run on device": the
    client update path here is the exact function the on-device runtime
    invokes.
    """
    cfg = task.client_config
    algo = FederatedAveraging(
        model,
        FedAvgConfig(
            clients_per_round=task.round_config.target_participants,
            epochs=cfg.epochs,
            batch_size=cfg.batch_size,
            learning_rate=cfg.learning_rate,
            max_examples_per_client=cfg.max_examples,
        ),
    )
    return algo.fit(
        proxy_clients, num_rounds, rng, initial_params=initial_params
    )
