"""Example stores (Sec. 3).

"The device's first responsibility in on-device learning is to maintain a
repository of locally collected data for model training and evaluation.
Applications are responsible for making their data available to the FL
runtime as an example store ... We recommend that applications limit the
total storage footprint of their example stores, and automatically remove
old data after a pre-designated expiration time."
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.plan import ExampleSelectionCriteria


class ExampleStore:
    """A capacity-bounded, TTL-expiring store of labelled examples.

    The production analogue is e.g. "an SQLite database recording action
    suggestions shown to the user and whether or not those suggestions
    were accepted".

    Examples are held as the blocks they arrived in, oldest first; both
    capacity eviction and expiry drop the oldest rows, so a store is its
    blocks minus a prefix.
    """

    def __init__(
        self,
        name: str = "default",
        capacity: int = 10_000,
        ttl_s: float | None = 14 * 86400.0,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError("ttl_s must be positive when set")
        self.name = name
        self.capacity = capacity
        self.ttl_s = ttl_s
        #: ``(features (n, ...), labels (n,), timestamp_s)``, timestamps
        #: ascending; the first block's first ``_head`` rows are gone.
        self._blocks: deque[tuple[np.ndarray, np.ndarray, float]] = deque()
        self._head = 0
        self._size = 0
        self.total_added = 0
        self.total_expired = 0
        self.total_evicted = 0

    def __len__(self) -> int:
        return self._size

    def add(self, features: Any, label: Any, timestamp_s: float) -> None:
        """Append one example, evicting the oldest if at capacity."""
        self.add_batch(np.asarray(features)[None], np.asarray(label)[None], timestamp_s)

    def add_batch(self, x: np.ndarray, y: np.ndarray, timestamp_s: float) -> None:
        """Append ``len(x)`` examples collected at ``timestamp_s``, evicting
        the oldest beyond capacity.

        The store keeps ``x`` and ``y`` themselves (no copy) and never
        writes to them; the caller must not either while they are stored.
        What :meth:`query` returns is freshly allocated and the caller's.
        """
        x, y = np.asarray(x), np.asarray(y)
        if len(x) != len(y):
            raise ValueError(
                f"add_batch needs one label per example: got {len(x)} feature "
                f"rows and {len(y)} labels"
            )
        if not len(x):
            return
        if self._blocks and timestamp_s < self._blocks[-1][2]:
            raise ValueError("examples must be added in timestamp order")
        self._blocks.append((x, y, timestamp_s))
        self._size += len(x)
        self.total_added += len(x)
        excess = self._size - self.capacity
        if excess > 0:
            self._drop_oldest(excess)
            self.total_evicted += excess

    def _drop_oldest(self, count: int) -> None:
        self._size -= count
        while count > 0:
            held = len(self._blocks[0][0]) - self._head
            if count < held:
                self._head += count
                return
            self._blocks.popleft()
            self._head = 0
            count -= held

    def _older_than(self, age_s: float, now_s: float) -> int:
        """How many stored examples — the oldest, as timestamps ascend —
        are more than ``age_s`` old at ``now_s``."""
        count = -self._head
        for x, _, timestamp_s in self._blocks:
            if not now_s - timestamp_s > age_s:
                break
            count += len(x)
        return max(count, 0)

    def expire(self, now_s: float) -> int:
        """Remove examples older than the TTL; returns how many."""
        if self.ttl_s is None:
            return 0
        removed = self._older_than(self.ttl_s, now_s)
        self._drop_oldest(removed)
        self.total_expired += removed
        return removed

    def query(
        self, criteria: ExampleSelectionCriteria, now_s: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Select examples per the plan's criteria (Sec. 7.2).

        Applies TTL expiry, the criteria's own max-age filter, the holdout
        split (last 20% of examples by recency are the held-out set used
        by evaluation tasks), and the example-count cap (most recent wins).
        """
        self.expire(now_s)
        # Positions among the stored examples, oldest first; every step
        # keeps a contiguous run, so the selection stays a range.
        rows = range(self._size)
        if criteria.max_age_s is not None:
            rows = rows[self._older_than(criteria.max_age_s, now_s) :]
        if rows:
            cut = max(1, int(len(rows) * 0.8)) if len(rows) > 1 else 1
            rows = rows[cut:] if criteria.holdout else rows[:cut]
        rows = rows[-criteria.max_examples :]
        if not rows:
            return np.zeros((0,)), np.zeros((0,))
        xs, ys = [], []
        position = -self._head  # of the block's row 0 among the stored examples
        for x, y, _ in self._blocks:
            lo, hi = max(rows.start - position, 0), min(rows.stop - position, len(x))
            if lo < hi:
                xs.append(x[lo:hi])
                ys.append(y[lo:hi])
            position += len(x)
            if position >= rows.stop:
                break
        return (
            np.ascontiguousarray(np.concatenate(xs)),
            np.ascontiguousarray(np.concatenate(ys)),
        )


@dataclass
class ExampleStoreRegistry:
    """Per-application store registration (the API apps implement).

    "An application configures the FL runtime by providing an FL
    population name and registering its example stores."
    """

    _stores: dict[tuple[str, str], ExampleStore] = field(default_factory=dict)

    def register(self, app: str, store: ExampleStore) -> None:
        key = (app, store.name)
        if key in self._stores:
            raise ValueError(f"store {store.name!r} already registered for {app!r}")
        self._stores[key] = store

    def get(self, app: str, store_name: str = "default") -> ExampleStore:
        key = (app, store_name)
        if key not in self._stores:
            raise KeyError(f"no store {store_name!r} registered for app {app!r}")
        return self._stores[key]

    def stores_for(self, app: str) -> list[ExampleStore]:
        return [s for (a, _), s in self._stores.items() if a == app]
