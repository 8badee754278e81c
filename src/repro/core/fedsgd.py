"""FedSGD: the large-batch SGD-style algorithm the system also supports.

Sec. 1: "Our system is thus amenable to running large-batch SGD-style
algorithms as well as Federated Averaging".  Each selected client computes
one gradient over (a sample of) its local data; the server applies the
example-weighted mean gradient with a single learning rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.bounds import check, count, positive
from repro.core.datasets import ClientDataset
from repro.core.fedavg import ClientUpdateResult, RoundStats
from repro.nn.models import Model
from repro.nn.parameters import Parameters


@dataclass(frozen=True)
class FedSGDConfig:
    clients_per_round: int = count(1, default=10)
    learning_rate: float = positive(default=0.5)
    max_examples_per_client: int | None = count(1, default=None)

    __post_init__ = check


class FedSGD:
    """Synchronous federated SGD (one gradient per client per round)."""

    def __init__(self, model: Model, config: FedSGDConfig | None = None):
        self.model = model
        self.config = config or FedSGDConfig()

    def initialize(self, rng: np.random.Generator) -> Parameters:
        return self.model.init(rng)

    def client_gradient(
        self,
        global_params: Parameters,
        dataset: ClientDataset,
        rng: np.random.Generator,
    ) -> ClientUpdateResult:
        data = dataset
        cap = self.config.max_examples_per_client
        if cap is not None and dataset.num_examples > cap:
            idx = rng.choice(dataset.num_examples, size=cap, replace=False)
            data = dataset.subset(idx)
        n = data.num_examples
        loss, grads = self.model.loss_and_grad(global_params, data.x, data.y)
        # Report the weighted *negative gradient* as the delta so the same
        # sum-then-normalize aggregation rule as FedAvg applies.
        delta = grads.scale(-float(n))
        return ClientUpdateResult(
            client_id=dataset.client_id,
            delta=delta,
            weight=float(n),
            num_examples=n,
            mean_loss=loss,
            steps=1,
        )

    def run_round(
        self,
        round_number: int,
        global_params: Parameters,
        clients: Sequence[ClientDataset],
        rng: np.random.Generator,
    ) -> tuple[Parameters, RoundStats]:
        k = min(self.config.clients_per_round, len(clients))
        if k == 0:
            raise ValueError("no clients available")
        chosen = rng.choice(len(clients), size=k, replace=False)
        updates = [
            self.client_gradient(global_params, clients[i], rng) for i in chosen
        ]
        delta_sum = updates[0].delta.copy()
        weight_sum = updates[0].weight
        for u in updates[1:]:
            delta_sum = delta_sum + u.delta
            weight_sum += u.weight
        mean_neg_grad = delta_sum.scale(1.0 / weight_sum)
        new_params = global_params.axpy(self.config.learning_rate, mean_neg_grad)
        stats = RoundStats(
            round_number=round_number,
            num_clients=k,
            total_examples=sum(u.num_examples for u in updates),
            mean_client_loss=float(np.mean([u.mean_loss for u in updates])),
            update_norm=(new_params - global_params).l2_norm(),
        )
        return new_params, stats

    def fit(
        self,
        clients: Sequence[ClientDataset],
        num_rounds: int,
        rng: np.random.Generator,
        initial_params: Parameters | None = None,
    ) -> tuple[Parameters, list[RoundStats]]:
        params = initial_params if initial_params is not None else self.initialize(rng)
        history = []
        for t in range(1, num_rounds + 1):
            params, stats = self.run_round(t, params, clients, rng)
            history.append(stats)
        return params, history
