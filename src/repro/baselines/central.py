"""Centralized ("server-trained") baseline.

Sec. 8: the FL model "matches the performance of a server-trained RNN
which required 1.2e8 SGD steps" — and footnote 3 notes that the
server-side model was trained on *proxy* data, since the real keyboard
data is not available in the data center.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.datasets import ClientDataset, pool_datasets
from repro.nn.models import Model
from repro.nn.optimizers import SGD
from repro.nn.parameters import Parameters


@dataclass
class CentralizedTrainer:
    """Plain minibatch SGD over pooled data, with step accounting."""

    model: Model
    learning_rate: float = 0.1
    batch_size: int = 32
    history: list[float] = field(default_factory=list)
    sgd_steps: int = 0

    def fit(
        self,
        data: list[ClientDataset] | ClientDataset,
        epochs: int,
        rng: np.random.Generator,
        initial_params: Parameters | None = None,
    ) -> Parameters:
        pooled = (
            pool_datasets(data) if isinstance(data, list) else data
        )
        params = (
            initial_params
            if initial_params is not None
            else self.model.init(rng)
        )
        optimizer = SGD(self.learning_rate)
        for xb, yb in pooled.batches(self.batch_size, epochs, rng):
            loss, grads = self.model.loss_and_grad(params, xb, yb)
            params = optimizer.step(params, grads)
            self.history.append(loss)
            self.sgd_steps += 1
        return params
