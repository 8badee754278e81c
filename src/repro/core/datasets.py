"""Client-held datasets.

At the algorithm level a client is just ``(client_id, x, y)``; at the
system level the same data lives behind a
:class:`~repro.device.example_store.ExampleStore` and is queried by plan
selection criteria.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np


@dataclass
class ClientDataset:
    """One client's local training data."""

    client_id: str
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x)
        self.y = np.asarray(self.y)
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"client {self.client_id}: {self.x.shape[0]} examples vs "
                f"{self.y.shape[0]} labels"
            )

    @property
    def num_examples(self) -> int:
        return int(self.x.shape[0])

    def batches(
        self,
        batch_size: int,
        epochs: int,
        rng: np.random.Generator | None = None,
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Shuffled minibatches, reshuffling every epoch.

        The final short batch of each epoch is kept (clients often hold
        fewer examples than one full batch).
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if epochs <= 0:
            raise ValueError(f"epochs must be positive, got {epochs}")
        n = self.num_examples
        for _ in range(epochs):
            order = (
                rng.permutation(n) if rng is not None else np.arange(n)
            )
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                yield self.x[idx], self.y[idx]

    def subset(self, indices: np.ndarray) -> "ClientDataset":
        return ClientDataset(self.client_id, self.x[indices], self.y[indices])


def train_holdout_split(
    dataset: ClientDataset, holdout_fraction: float, rng: np.random.Generator
) -> tuple[ClientDataset, ClientDataset]:
    """Split a client's data into train and held-out parts (eval tasks)."""
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError(f"holdout_fraction must be in (0,1), got {holdout_fraction}")
    n = dataset.num_examples
    order = rng.permutation(n)
    n_holdout = max(1, int(round(n * holdout_fraction)))
    holdout_idx, train_idx = order[:n_holdout], order[n_holdout:]
    if len(train_idx) == 0:
        raise ValueError(f"client {dataset.client_id}: no training data after split")
    return dataset.subset(train_idx), dataset.subset(holdout_idx)


def pool_datasets(datasets: list[ClientDataset]) -> ClientDataset:
    """Concatenate clients into one dataset (the centralized baseline)."""
    if not datasets:
        raise ValueError("no datasets to pool")
    x = np.concatenate([d.x for d in datasets], axis=0)
    y = np.concatenate([d.y for d in datasets], axis=0)
    return ClientDataset("pooled", x, y)
