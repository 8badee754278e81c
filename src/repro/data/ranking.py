"""On-device item ranking workload (Sec. 8).

"A common use of machine learning in mobile applications is selecting and
ranking items from an on-device inventory ... Each user interaction with
the ranking feature can become a labeled data point."

Each impression shows the user ``num_candidates`` items; the click is a
softmax draw over the user's private utility, and the training example is
(candidate feature matrix flattened, clicked index) — a ``C``-way
classification the global model learns across users whose preference
vectors share structure but differ individually (non-IID).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bounds import check, count
from repro.core.datasets import ClientDataset


@dataclass(frozen=True)
class RankingConfig:
    num_users: int = 50
    feature_dim: int = count(1, default=8)
    num_candidates: int = count(2, default=5)
    impressions_per_user_mean: float = 60.0
    #: Per-user deviation from the shared preference direction.
    preference_noise: float = 0.5
    click_temperature: float = 1.0

    __post_init__ = check


def build_ranking_clients(
    config: RankingConfig, rng: np.random.Generator
) -> tuple[list[ClientDataset], np.ndarray]:
    """Returns (clients, shared preference vector).

    ``x`` rows are flattened ``(num_candidates, feature_dim)`` matrices;
    ``y`` is the clicked candidate index.
    """
    shared_pref = rng.normal(size=config.feature_dim)
    shared_pref /= np.linalg.norm(shared_pref)
    clients = []
    for user in range(config.num_users):
        user_pref = shared_pref + config.preference_noise * rng.normal(
            size=config.feature_dim
        )
        n = max(5, int(rng.poisson(config.impressions_per_user_mean)))
        feats = rng.normal(size=(n, config.num_candidates, config.feature_dim))
        utilities = feats @ user_pref / config.click_temperature
        gumbel = rng.gumbel(size=utilities.shape)
        clicks = (utilities + gumbel).argmax(axis=1)
        clients.append(
            ClientDataset(
                f"user-{user}",
                feats.reshape(n, -1),
                clicks,
            )
        )
    return clients, shared_pref
