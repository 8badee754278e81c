"""Device selection strategies, kept as references.

The paper's footnote 1: "In the current implementation, selection is done
by simple reservoir sampling, but the protocol is amenable to more
sophisticated methods which address selection bias."  The Selector draws
the rows a round takes uniformly from its pool columns
(``Selector._drain``); :class:`ReservoirSampler` (Algorithm R) is the
oracle that draw is tested against (``tests/actors/test_selector.py``).
A resource-aware selector in the spirit of Nishio & Yonetani (2018),
which the paper cites as implementable within the system, sits beside
it.  No fleet constructs either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, Sequence, TypeVar

import numpy as np

T = TypeVar("T")


class ReservoirSampler(Generic[T]):
    """Classic Algorithm-R reservoir sampling over a stream of candidates.

    Maintains a uniform random sample of size ``k`` over all items offered
    so far, using O(k) memory — the Selector's per-round selection method.
    """

    def __init__(self, k: int, rng: np.random.Generator):
        if k <= 0:
            raise ValueError(f"reservoir size must be positive, got {k}")
        self.k = k
        self.rng = rng
        self._reservoir: list[T] = []
        self._seen = 0

    @property
    def seen(self) -> int:
        return self._seen

    def offer(self, item: T) -> None:
        """Consider one stream item for inclusion."""
        self._seen += 1
        if len(self._reservoir) < self.k:
            self._reservoir.append(item)
            return
        j = int(self.rng.integers(0, self._seen))
        if j < self.k:
            self._reservoir[j] = item

    def sample(self) -> list[T]:
        return list(self._reservoir)


@dataclass(frozen=True)
class DeviceEstimate:
    """Per-device resource estimate for resource-aware selection."""

    device_id: int
    est_download_s: float
    est_train_s: float
    est_upload_s: float

    @property
    def est_total_s(self) -> float:
        return self.est_download_s + self.est_train_s + self.est_upload_s


def resource_aware_select(
    candidates: Sequence[DeviceEstimate],
    deadline_s: float,
    max_devices: int,
) -> list[int]:
    """FedCS-style greedy selection (Nishio & Yonetani, 2018).

    Maximizes the number of participants that can finish within the round
    deadline by greedily admitting the fastest devices first.  Returns the
    selected device ids.
    """
    if deadline_s <= 0:
        raise ValueError("deadline must be positive")
    ordered = sorted(candidates, key=lambda d: d.est_total_s)
    selected: list[int] = []
    for device in ordered:
        if len(selected) >= max_devices:
            break
        if device.est_total_s <= deadline_s:
            selected.append(device.device_id)
    return selected


def uniform_select(
    candidate_ids: Sequence[int], k: int, rng: np.random.Generator
) -> list[int]:
    """Uniform selection of ``min(k, n)`` ids without replacement."""
    n = len(candidate_ids)
    if n == 0 or k <= 0:
        return []
    size = min(k, n)
    idx = rng.choice(n, size=size, replace=False)
    return [candidate_ids[i] for i in idx]
