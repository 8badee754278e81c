"""Consistent-hash routing of FL populations onto selector shards.

The paper's Fig. 1 topology is a tree precisely so that no single pool is
on the hot path of every device: selection load is spread over "a number
of machines" per population, not over *all* machines hosting *all*
populations (Sec. 4.2).  :class:`ShardRouter` realizes that partition for
an :class:`~repro.system.fleet.FLFleet`: the fleet's Selector set is
split into ``num_shards`` disjoint shards (selector index ``i`` belongs
to shard ``i % num_shards``), and each population is assigned to exactly
one shard by a consistent-hash ring.  A tenant's routes, check-in
traffic, and per-route admission quotas then live on its owning shard's
selectors only.

Two properties carry the determinism and lifecycle contracts:

* **Deterministic** — ring points and population placement are pure
  SHA-256 of stable strings.  No RNG stream is consumed, so the router
  neither perturbs any pinned draw sequence nor varies across processes,
  and ``num_shards == 1`` routes every population to the full selector
  set — the exact pre-sharding topology.
* **Minimal movement** — growing the ring from ``N`` to ``N + 1`` shards
  only adds the new shard's virtual nodes; every existing point keeps
  its hash, so a population either stays on its old shard or moves to
  the *new* one, never reshuffling between old shards.  Re-attaching a
  drained population is a pure lookup and lands on the same shard.
"""

from __future__ import annotations

import bisect
import hashlib

#: Virtual nodes per shard on the hash ring.  Enough that population
#: placement is close to uniform even for small shard counts, small
#: enough that building the ring stays negligible next to fleet spawn.
DEFAULT_VNODES_PER_SHARD = 64


def _ring_point(key: str) -> int:
    """A stable 64-bit ring coordinate for ``key`` (pure SHA-256, so the
    ring is identical across processes, runs, and snapshot restores)."""
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")


class ShardRouter:
    """Deterministic population -> selector-shard assignment.

    ``num_shards`` partitions the ``num_selectors`` Selector indices into
    disjoint shards (index ``i`` -> shard ``i % num_shards``); a
    consistent-hash ring with :data:`DEFAULT_VNODES_PER_SHARD` virtual
    nodes per shard maps population names onto shards.  The router is
    plain picklable data — it rides along in fleet snapshots unchanged.
    """

    def __init__(
        self,
        num_selectors: int,
        num_shards: int,
        vnodes_per_shard: int = DEFAULT_VNODES_PER_SHARD,
    ):
        num_selectors = int(num_selectors)
        num_shards = int(num_shards)
        if num_selectors < 1:
            raise ValueError("num_selectors must be >= 1")
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if num_shards > num_selectors:
            raise ValueError(
                f"num_shards ({num_shards}) cannot exceed num_selectors "
                f"({num_selectors}): every shard needs at least one Selector"
            )
        if vnodes_per_shard < 1:
            raise ValueError("vnodes_per_shard must be >= 1")
        self.num_selectors = num_selectors
        self.num_shards = num_shards
        self.vnodes_per_shard = vnodes_per_shard
        points: list[tuple[int, int]] = []
        for shard in range(num_shards):
            for vnode in range(vnodes_per_shard):
                points.append((_ring_point(f"shard:{shard}:vnode:{vnode}"), shard))
        points.sort()
        self._ring_points = [point for point, _ in points]
        self._ring_shards = [shard for _, shard in points]
        #: name -> Selector indices, memoized: every check-in asks.
        self._indices_by_name: dict[str, tuple[int, ...]] = {}

    # -- placement ---------------------------------------------------------------
    def shard_of(self, population_name: str) -> int:
        """The shard owning ``population_name`` (clockwise ring successor;
        on a one-shard ring every point belongs to shard 0)."""
        point = _ring_point(f"population:{population_name}")
        i = bisect.bisect_right(self._ring_points, point)
        if i == len(self._ring_points):
            i = 0  # wrap past the last virtual node
        return self._ring_shards[i]

    def selector_indices(self, shard: int) -> tuple[int, ...]:
        """The Selector indices belonging to ``shard`` (disjoint across
        shards; the full index set when the router has one shard)."""
        if not 0 <= shard < self.num_shards:
            raise ValueError(
                f"shard must be in [0, {self.num_shards}), got {shard}"
            )
        return tuple(range(shard, self.num_selectors, self.num_shards))

    def selector_indices_for(self, population_name: str) -> tuple[int, ...]:
        """The Selector indices serving ``population_name``."""
        indices = self._indices_by_name.get(population_name)
        if indices is None:
            indices = self.selector_indices(self.shard_of(population_name))
            self._indices_by_name[population_name] = indices
        return indices

    def assignments(self, population_names) -> dict[str, int]:
        """Name -> shard for a batch of populations (stability tests and
        per-shard telemetry lean on this view)."""
        return {name: self.shard_of(name) for name in population_names}
