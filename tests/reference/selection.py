"""Device selection strategies, kept as references.

The paper's footnote 1: "In the current implementation, selection is done
by simple reservoir sampling, but the protocol is amenable to more
sophisticated methods which address selection bias."  A round's start
draws the rows it takes uniformly from the pool columns of its shard's
Selectors in one pass (``Selector.receive`` of a ``RoundStart``);
:class:`ReservoirSampler` (Algorithm R) is the oracle that draw is tested
against (``tests/actors/test_selector.py``), and :func:`receive` /
:func:`drain` — the drain one Selector at a time that the one pass
replaced — the oracle of its every draw, write and scheduled event
(``tests/actors/test_round_start.py``).  A resource-aware selector in the
spirit of Nishio & Yonetani (2018), which the paper cites as implementable
within the system, sits beside them.  No fleet constructs any of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import compress
from typing import Generic, Sequence, TypeVar

import numpy as np

from repro.actors import messages as msg

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


# -- the per-Selector drain ------------------------------------------------------


def receive(selector, instruction) -> None:
    """A round of the instruction's tenant starts, told to one Selector:
    it forwards to the round from now on and offers it its pool."""
    route = selector.routes.get(instruction.population_name)
    if route is not None:
        route.forwarding = instruction
        plane, scheduler = selector.plane, selector.plane.scheduler
        waiting = plane._waiting_at[: len(plane)] == selector.index
        slot = scheduler._slot_of.get(route.population_name, -2)
        tenant = scheduler._running[: len(plane)] == slot
        drain(selector, route, np.flatnonzero(waiting & tenant))


def drain(selector, route, rows: np.ndarray) -> None:
    """Offer one Selector's pooled ``rows`` to the forwarding round: as
    many as its master still wants, drawn uniformly from those its task can
    serve (from the Selector's stream), are configured in row order; the
    rest of those are turned away, round full.  A row the task cannot serve
    stays pooled for a differently versioned task."""
    if not rows.size:
        return
    instruction = route.forwarding
    master = selector.system.actor_of(instruction.master)
    if master is None:
        route.forwarding = None
        return
    plane = selector.plane
    plan_for = partial(route.plans.plan_for_task, instruction.task_id)
    plans = list(map(plan_for, plane._runtime_version[rows].tolist()))
    if None in plans:
        servable = [plan is not None for plan in plans]
        rows, plans = rows[servable], list(compress(plans, servable))
    demand = master.demand
    if rows.size > demand:
        order = selector.rng.random(rows.size).argsort()
        route.stats.rejected_quota += rows.size - demand
        window = selector._suggest_window(route)
        plane.bounce(np.sort(rows[order[demand:]]), window.earliest_s, window.latest_s)
        taken = np.sort(order[:demand])
        rows, plans = rows[taken], [plans[j] for j in taken.tolist()]
    if not rows.size:
        return
    checkpoint = selector.store.latest(route.population_name)
    route.stats.forwarded += rows.size
    for device, plan in zip(plane.forward(rows), plans):
        aggregator = master.admit_device(device.device_id, device.ref)
        selector.tell(
            device.ref,
            msg.ConfigureDevice(
                round_id=instruction.round_id,
                task_id=instruction.task_id,
                plan=plan,
                checkpoint=checkpoint,
                aggregator=aggregator,
            ),
        )
