"""Federated Averaging (Algorithm 1, Appendix B).

The server selects ``1.3K`` eligible clients, waits for updates from ``K``,
and applies the weighted average of the deltas::

    w̄_t = Σ_k Δ^k         (sum of weighted updates)
    n̄_t = Σ_k n^k         (sum of weights)
    w_{t+1} = w_t + w̄_t / n̄_t

``ClientUpdate`` runs ``epochs`` of plain minibatch SGD from the global
weights and returns ``Δ = n · (w - w_init)`` — the *weighted* delta, which
the paper notes is more amenable to compression than raw weights, and
whose sum-only structure is exactly what Secure Aggregation needs
(Sec. 6).

``ClientUpdate`` has two kernel families:

* **functional** (:func:`client_update`): every SGD step returns a new
  ``Parameters`` — the public per-client API, and the byte oracle the
  stacked kernels are tested against;
* **stacked** (:func:`client_update_cohort`): a whole cohort trains as
  rows of pre-allocated ``(K, ...)`` buffers, one batched kernel call and
  one in-place SGD step per local step — what the fleet's cohort plane
  and :meth:`FederatedAveraging.run_round` run.

Both consume the identical RNG stream; row ``i`` of a cohort is bitwise
equal to client ``i``'s functional update on full minibatches and equal
to float summation order where a last minibatch is ragged (see
``tests/core/test_fedavg_cohort.py``).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.bounds import check, count, positive
from repro.core.datasets import ClientDataset
from repro.nn.models import Model
from repro.nn.optimizers import SGD
from repro.nn.parameters import (
    ParameterAccumulator,
    ParameterLayout,
    Parameters,
    StackedParameters,
)

@dataclass
class ClientUpdateResult:
    """What one client reports back (Sec. 2.2 "Reporting")."""

    client_id: str
    delta: Parameters            # n * (w_local - w_init)
    weight: float                # n = number of local examples used
    num_examples: int
    mean_loss: float             # mean training loss over local steps
    steps: int

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(
                f"client {self.client_id}: update weight must be positive"
            )


def client_update(
    model: Model,
    global_params: Parameters,
    dataset: ClientDataset,
    epochs: int,
    batch_size: int,
    learning_rate: float,
    rng: np.random.Generator,
    max_examples: int | None = None,
) -> ClientUpdateResult:
    """``ClientUpdate(w)`` from Algorithm 1: local SGD, weighted delta out."""
    data = dataset
    if max_examples is not None and dataset.num_examples > max_examples:
        idx = rng.choice(dataset.num_examples, size=max_examples, replace=False)
        data = dataset.subset(idx)
    n = data.num_examples
    if n == 0:
        raise ValueError(f"client {dataset.client_id} has no examples")
    optimizer = SGD(learning_rate)
    losses = []
    steps = 0
    w = global_params
    for xb, yb in data.batches(batch_size, epochs, rng):
        loss, grads = model.loss_and_grad(w, xb, yb)
        w = optimizer.step(w, grads)
        losses.append(loss)
        steps += 1
    return ClientUpdateResult(
        client_id=dataset.client_id,
        delta=(w - global_params).scale(float(n)),
        weight=float(n),
        num_examples=n,
        mean_loss=float(np.mean(losses)),
        steps=steps,
    )


# ---------------------------------------------------------------------------
# Cohort-batched client updates (the cohort execution plane's numeric core)


@dataclass
class LocalStepSchedule:
    """One client's local-SGD randomness, drawn eagerly.

    Captures exactly the draws :func:`client_update` would make from the
    client's RNG — the optional ``max_examples`` subset first, then one
    shuffle permutation per epoch — so that deferring the *numeric*
    execution (the cohort plane batches many clients into one tensor
    program) never changes what any RNG stream produces.  Because the
    draws happen at schedule time, executing the cohort earlier, later,
    or grouped differently cannot perturb the results.
    """

    dataset: ClientDataset               # post-subset data
    orders: list[np.ndarray]             # one permutation per epoch
    batch_size: int

    @classmethod
    def draw(
        cls,
        dataset: ClientDataset,
        epochs: int,
        batch_size: int,
        rng: np.random.Generator,
        max_examples: int | None = None,
    ) -> "LocalStepSchedule":
        """Consume the same RNG draws, in the same order, as
        :func:`client_update` with the same arguments."""
        data = dataset
        if max_examples is not None and dataset.num_examples > max_examples:
            idx = rng.choice(dataset.num_examples, size=max_examples, replace=False)
            data = dataset.subset(idx)
        n = data.num_examples
        if n == 0:
            raise ValueError(f"client {dataset.client_id} has no examples")
        orders = [rng.permutation(n) for _ in range(epochs)]
        return cls(dataset=data, orders=orders, batch_size=batch_size)

    @property
    def num_examples(self) -> int:
        return self.dataset.num_examples

    @property
    def steps(self) -> int:
        n = self.dataset.num_examples
        per_epoch = -(-n // self.batch_size)
        return len(self.orders) * per_epoch


#: Bytes one block of a cohort may hold in working rows (weights,
#: gradients and padded minibatch per row).  :func:`client_update_cohort`
#: trains a larger cohort as consecutive blocks, so its stacks stay this
#: size however many clients a round accepted.
BLOCK_BYTES = 8 << 20


def usable_cpus() -> int:
    """How many CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


_lane_pool: tuple[int, Any] | None = None


def _lanes() -> Any:
    """Lanes 1..'s thread pool, made on first use in each process (a fork has
    none of its threads); importing ``concurrent.futures`` up front costs 0.6 MB.
    Its ``max_workers`` is the default's without the cap of 32: above any CPU count."""
    global _lane_pool
    if _lane_pool is None or _lane_pool[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor
        _lane_pool = (os.getpid(), ThreadPoolExecutor(
            max_workers=(os.cpu_count() or 1) + 4, thread_name_prefix="cohort-lane"))
    return _lane_pool[1]


class CohortUpdateBuffers:
    """Stacked working state for :func:`client_update_cohort`.

    Owns the ``(B, ...)`` working-weight and gradient stacks plus the
    padded minibatch gather buffers for one *block* of a cohort — at most
    :meth:`rows_per_block` rows, grown to the largest block (and batch
    shape) seen, never to the cohort; everything handed to the kernels
    aliases these buffers and is valid only until the next block.  They
    serve lane 0; lane ``i > 0`` trains on ``siblings[i - 1]``.  Deltas are
    written to a caller-owned matrix (:meth:`StackedParameters.write_rows`),
    so nothing that escapes an execution aliases the buffers.
    """

    __slots__ = ("layout", "capacity", "work", "grads", "_batch_x", "_batch_y",
                 "siblings")

    def __init__(self, layout: ParameterLayout, capacity: int = 0):
        self.layout = layout
        self.capacity = 0
        self.work: StackedParameters | None = None
        self.grads: StackedParameters | None = None
        self._batch_x: np.ndarray | None = None
        self._batch_y: np.ndarray | None = None
        self.siblings: list[CohortUpdateBuffers] = []
        if capacity:
            self.ensure(capacity)

    def __reduce__(self):
        # Contents are per-execution scratch (stale rows only ever serve as
        # masked padding): a snapshot restores empty stacks, no siblings.
        return (CohortUpdateBuffers, (self.layout, self.capacity))

    def ensure(self, k: int) -> None:
        """Grow the stacks to hold at least ``k`` rows."""
        if k > self.capacity:
            self.work = StackedParameters(self.layout, k)
            self.grads = StackedParameters(self.layout, k)
            self.capacity = k
            self._batch_x = self._batch_y = None

    def rows_per_block(self, x: np.ndarray, y: np.ndarray, batch_size: int) -> int:
        """How many rows of features like ``x`` / labels like ``y`` fit
        :data:`BLOCK_BYTES` (at least one): a row is its weights, its
        gradients and its padded minibatch."""
        row_bytes = 2 * self.layout.total_size * np.dtype(np.float64).itemsize
        row_bytes += batch_size * (x[0].nbytes + y[0].nbytes)
        return max(1, BLOCK_BYTES // row_bytes)

    def batch_buffers(
        self, x: np.ndarray, y: np.ndarray, batch_size: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Padded gather buffers ``(capacity, batch_size, ...)``.

        Zero-initialised on (re)allocation so padding slots are always
        finite (and, for integer inputs, valid ids); afterwards stale
        rows from earlier steps serve as padding, which the kernels mask
        to exact zeros.
        """
        shape_x = (self.capacity, batch_size, *x.shape[1:])
        shape_y = (self.capacity, batch_size, *y.shape[1:])
        bx, by = self._batch_x, self._batch_y
        if bx is None or by is None or (bx.shape, by.shape, bx.dtype, by.dtype) != (
            shape_x, shape_y, x.dtype, y.dtype
        ):
            bx = np.zeros(shape_x, dtype=x.dtype)
            by = np.zeros(shape_y, dtype=y.dtype)
            self._batch_x, self._batch_y = bx, by
        return bx, by


@dataclass
class CohortUpdateResult:
    """A whole cohort's client updates as one stacked result.

    ``delta_matrix`` is freshly-owned ``(K, dim)`` storage — row ``i`` is
    client ``i``'s flattened weighted delta, never written again after
    this result is built, so rows can be handed straight to the reporting
    pipeline as immutable report vectors (each row view keeps the matrix
    alive).
    """

    client_ids: list[str]
    delta_matrix: np.ndarray
    weights: np.ndarray                  # (K,) float n_k
    num_examples: np.ndarray             # (K,) int
    mean_losses: np.ndarray              # (K,)
    steps: np.ndarray                    # (K,) int

    def delta_row(self, i: int) -> np.ndarray:
        """Client ``i``'s flat weighted delta (a view into the matrix)."""
        return self.delta_matrix[i]


def client_update_cohort(
    model: Model,
    global_params: Parameters,
    schedules: Sequence[LocalStepSchedule] | None = None,
    *,
    datasets: Sequence[ClientDataset] | None = None,
    rngs: Sequence[np.random.Generator] | None = None,
    epochs: int = 1,
    batch_size: int = 16,
    learning_rate: float = 0.1,
    max_examples: int | None = None,
    buffers: CohortUpdateBuffers | None = None,
) -> CohortUpdateResult:
    """Run a whole cohort's ``ClientUpdate`` as stacked tensor ops.

    The numeric twin of ``K`` independent :func:`client_update` calls:
    client weights live as rows of stacked ``(B, ...)`` buffers, each
    local step runs one batched ``loss_and_grad_cohort`` over the padded
    per-client minibatches and one vectorized SGD step advancing all
    working copies, and per-client weighting applies as a row-wise op.
    Rows are trained sorted by step count (stably, longest first) and
    step ``s`` runs on the prefix that still has a step ``s``, so a client
    that has finished its local steps leaves the stack — the same bytes as
    carrying it along with a zero gradient (``w - lr·0 == w``), at none of
    the cost.  The sorted cohort runs as consecutive
    blocks of ``B = buffers.rows_per_block(...)`` rows (one block when it
    fits :data:`BLOCK_BYTES`), each gathering only its own clients' data
    and writing its rows straight into the caller-order ``(K, dim)``
    delta matrix; a row's bytes do not depend on which rows share its
    block.  Results come back in the caller's order.  Blocks go round-robin
    to parallel *lanes* (at most :func:`usable_cpus`; BLAS and large ufuncs
    release the GIL), each with its own buffers, optimizer and share of the
    budget; all are joined before the earliest failing block's error is raised.

    Pass either pre-drawn ``schedules`` (the cohort plane's deferred
    workloads) or ``datasets`` + ``rngs``, in which case the schedules
    are drawn here with exactly the RNG consumption of
    :func:`client_update`.  Row ``i`` of the result is bitwise-identical
    to the per-client call wherever the batched kernels reduce over the
    same shapes (full minibatches), and equal up to float summation
    order otherwise.
    """
    if schedules is None:
        if datasets is None or rngs is None:
            raise ValueError("need schedules, or datasets with rngs")
        if len(datasets) != len(rngs):
            raise ValueError(f"{len(datasets)} datasets vs {len(rngs)} rngs")
        schedules = [
            LocalStepSchedule.draw(d, epochs, batch_size, rng, max_examples)
            for d, rng in zip(datasets, rngs)
        ]
    if not schedules:
        raise ValueError("cannot update an empty cohort")
    k = len(schedules)
    batch_size = schedules[0].batch_size
    if any(s.batch_size != batch_size for s in schedules):
        raise ValueError("cohort members must share one batch size")
    layout = global_params.layout
    if buffers is None:
        buffers = CohortUpdateBuffers(layout)
    elif buffers.layout != layout:
        raise ValueError("buffers were built for a different model structure")
    first = schedules[0].dataset
    block = buffers.rows_per_block(first.x, first.y, batch_size)
    lanes = min(usable_cpus(), -(-k // block))
    block = max(1, block // lanes)      # each lane's share of the budget

    num_examples = np.array([s.num_examples for s in schedules], dtype=np.int64)
    steps = np.array([s.steps for s in schedules], dtype=np.int64)
    order = np.argsort(-steps, kind="stable")
    blocks = list(enumerate(order[i : i + block] for i in range(0, k, block)))
    delta_matrix = np.empty((k, layout.total_size), dtype=np.float64)
    mean_losses = np.empty(k, dtype=np.float64)
    args = (learning_rate, model, global_params, schedules, delta_matrix, mean_losses)
    siblings = buffers.siblings
    siblings += [CohortUpdateBuffers(layout) for _ in range(lanes - 1 - len(siblings))]
    # One start barrier: a worker that took a helper lane cannot take the next
    # too.  No deadlock: lanes <= usable CPUs < the pool's max_workers.
    start = threading.Barrier(lanes)
    helpers = [_lanes().submit(_run_lane, blocks[i::lanes], siblings[i - 1], start, *args)
               for i in range(1, lanes)]
    failures = [_run_lane(blocks[::lanes], buffers, start, *args)]
    failures = [f for f in failures + [lane.result() for lane in helpers] if f]
    if failures:  # every lane has joined; block indices differ, so no error is compared
        raise min(failures)[1]
    return CohortUpdateResult(
        client_ids=[s.dataset.client_id for s in schedules],
        delta_matrix=delta_matrix,
        weights=num_examples.astype(np.float64),
        num_examples=num_examples,
        mean_losses=mean_losses,
        steps=steps,
    )


def _run_lane(blocks: list[tuple[int, np.ndarray]], buffers: CohortUpdateBuffers,
              start: threading.Barrier, learning_rate: float,
              *block_args: Any) -> tuple[int, Exception] | None:
    """One lane's ``(index, rows)`` blocks in turn, once every lane has
    started; the first failure's index, error."""
    start.wait()
    optimizer = SGD(learning_rate)
    for index, rows in blocks:
        try:
            _train_block(rows, buffers, optimizer, *block_args)
        except Exception as exc:
            return index, exc
    return None


def _train_block(
    members: np.ndarray, buffers: CohortUpdateBuffers, optimizer: SGD, model: Model,
    global_params: Parameters, schedules: Sequence[LocalStepSchedule],
    delta_matrix: np.ndarray, mean_losses: np.ndarray,
) -> None:
    """Train the cohort's ``members`` (one step-sorted block) in the first
    rows of ``buffers``' stacks, then write their weighted deltas and mean
    losses to their rows of ``delta_matrix`` / ``mean_losses``."""
    schedules = [schedules[i] for i in members]
    k = len(schedules)
    batch_size = schedules[0].batch_size
    buffers.ensure(k)
    assert buffers.work is not None and buffers.grads is not None
    work = buffers.work.head(k)
    grads = buffers.grads.head(k)
    work.broadcast_(global_params)

    first = schedules[0].dataset
    batch_x_full, batch_y_full = buffers.batch_buffers(first.x, first.y, batch_size)
    batch_x, batch_y = batch_x_full[:k], batch_y_full[:k]

    # The block's data fused into one array, so each local step gathers every
    # client's padded minibatch with a single flat fancy-index instead of 2K
    # small takes.  The whole (step -> indices, counts) table is laid out up
    # front from the schedules' permutations — per-step work is then one
    # gather, one batched kernel call, and one stacked SGD step, with no
    # per-client Python inside the loop.  Padding slots point at the block's
    # row 0 (any valid row works — the kernels mask those columns to zeros).
    x_all = np.concatenate([s.dataset.x for s in schedules], axis=0)
    y_all = np.concatenate([s.dataset.y for s in schedules], axis=0)
    ns_int = np.array([s.num_examples for s in schedules], dtype=np.int64)
    row_offsets = np.concatenate(([0], np.cumsum(ns_int)[:-1]))
    steps_per_client = np.array([s.steps for s in schedules], dtype=np.int64)
    total_steps = int(steps_per_client[0])
    #: Rows still training at each step: a prefix, by the sort.
    active = np.searchsorted(-steps_per_client, -np.arange(total_steps))

    idx_table = np.zeros((total_steps, k, batch_size), dtype=np.intp)
    cnt_table = np.zeros((total_steps, k), dtype=np.int64)
    for i, schedule in enumerate(schedules):
        n_i = int(ns_int[i])
        per_epoch = -(-n_i // batch_size)
        pos = np.arange(n_i)
        rows, cols = pos // batch_size, pos % batch_size
        seq = np.concatenate(schedule.orders) + row_offsets[i]
        for epoch in range(len(schedule.orders)):
            idx_table[epoch * per_epoch + rows, i, cols] = seq[
                epoch * n_i : (epoch + 1) * n_i
            ]
        epoch_counts = np.full(per_epoch, batch_size, dtype=np.int64)
        epoch_counts[-1] = n_i - (per_epoch - 1) * batch_size
        cnt_table[: schedule.steps, i] = np.tile(
            epoch_counts, len(schedule.orders)
        )

    gather_x = batch_x.reshape(k * batch_size, *x_all.shape[1:])
    gather_y = batch_y.reshape(k * batch_size, *y_all.shape[1:])
    ns = ns_int.astype(np.float64)
    step_losses = np.zeros((total_steps, k), dtype=np.float64)

    k_s, work_s, grads_s = k, work, grads
    for step in range(total_steps):
        if active[step] != k_s:
            k_s = int(active[step])
            work_s, grads_s = work.head(k_s), grads.head(k_s)
        flat_idx = idx_table[step, :k_s].reshape(-1)
        x_all.take(flat_idx, axis=0, out=gather_x[: k_s * batch_size])
        y_all.take(flat_idx, axis=0, out=gather_y[: k_s * batch_size])
        step_losses[step, :k_s] = model.loss_and_grad_cohort(
            work_s, batch_x[:k_s], batch_y[:k_s], cnt_table[step, :k_s],
            out=grads_s,
        )
        optimizer.step_stack_(work_s, grads_s)

    # The working stack becomes the weighted delta in place — the stacked
    # twin of ``(w - global).scale(n)``.
    work.sub_broadcast_(global_params)
    work.scale_rows_(ns)

    work.write_rows(delta_matrix, members)
    for i, row in enumerate(members):
        mean_losses[row] = np.mean(step_losses[: steps_per_client[i], i])


@dataclass(frozen=True)
class FedAvgConfig:
    """Hyperparameters of the server loop."""

    clients_per_round: int = count(1, default=10)  # K
    epochs: int = count(1, default=1)
    batch_size: int = count(1, default=16)
    learning_rate: float = positive(default=0.1)
    max_examples_per_client: int | None = count(1, default=None)

    __post_init__ = check


@dataclass
class RoundStats:
    """Per-round training telemetry."""

    round_number: int
    num_clients: int
    total_examples: int
    mean_client_loss: float
    update_norm: float
    eval_metrics: dict[str, float] = field(default_factory=dict)


class FederatedAveraging:
    """The FedAvg server loop over in-memory clients.

    This is the algorithm layer: no networking, no failures — those live in
    the protocol/actor layers, which call :meth:`aggregate` with whatever
    updates survived the round.  The loop owns one set of cohort-update
    buffers and one delta accumulator, reused across every round.
    """

    def __init__(self, model: Model, config: FedAvgConfig | None = None):
        self.model = model
        self.config = config or FedAvgConfig()
        self._cohort_buffers: CohortUpdateBuffers | None = None
        self._accumulator: ParameterAccumulator | None = None

    def initialize(self, rng: np.random.Generator) -> Parameters:
        return self.model.init(rng)

    def _accumulator_for(self, params: Parameters) -> ParameterAccumulator:
        if self._accumulator is None or self._accumulator.dim != params.num_parameters:
            self._accumulator = ParameterAccumulator.like(params)
        else:
            self._accumulator.reset()
        return self._accumulator

    def aggregate(
        self, global_params: Parameters, updates: Sequence[ClientUpdateResult]
    ) -> Parameters:
        """Apply Algorithm 1's combination rule to surviving updates.

        Streaming: each delta folds into a reused accumulator buffer —
        byte-identical to the original ``delta_sum + delta`` chain.
        """
        if not updates:
            raise ValueError("cannot aggregate zero updates")
        acc = self._accumulator_for(updates[0].delta)
        weight_sum = 0.0
        for u in updates:
            # Deltas are already weighted by their example counts, so they
            # fold with weight 1; the divisor is tracked separately.
            acc.add(u.delta, 1.0)
            weight_sum += u.weight
        return self._apply_mean_delta(global_params, acc, weight_sum)

    def _apply_mean_delta(
        self,
        global_params: Parameters,
        acc: ParameterAccumulator,
        weight_sum: float,
    ) -> Parameters:
        avg_delta = global_params.from_vector(acc.scaled_sum(1.0 / weight_sum))
        return global_params + avg_delta

    def run_round(
        self,
        round_number: int,
        global_params: Parameters,
        clients: Sequence[ClientDataset],
        rng: np.random.Generator,
    ) -> tuple[Parameters, RoundStats]:
        """Select K clients uniformly, run ClientUpdate on each, aggregate.

        The K updates run as one :func:`client_update_cohort` call whose
        schedules are drawn client by client from ``rng`` — the draw order
        of K sequential :func:`client_update` calls, so ``rng`` leaves the
        round at the same position.
        """
        cfg = self.config
        k = min(cfg.clients_per_round, len(clients))
        if k == 0:
            raise ValueError("no clients available")
        chosen_idx = rng.choice(len(clients), size=k, replace=False)
        layout = global_params.layout
        if self._cohort_buffers is None or self._cohort_buffers.layout != layout:
            self._cohort_buffers = CohortUpdateBuffers(layout)
        cohort = client_update_cohort(
            self.model,
            global_params,
            datasets=[clients[i] for i in chosen_idx],
            rngs=[rng] * k,
            epochs=cfg.epochs,
            batch_size=cfg.batch_size,
            learning_rate=cfg.learning_rate,
            max_examples=cfg.max_examples_per_client,
            buffers=self._cohort_buffers,
        )
        acc = self._accumulator_for(global_params)
        for row in cohort.delta_matrix:
            acc.add_vector(row, 1.0)
        new_params = self._apply_mean_delta(
            global_params, acc, float(cohort.weights.sum())
        )
        stats = RoundStats(
            round_number=round_number,
            num_clients=k,
            total_examples=int(cohort.num_examples.sum()),
            mean_client_loss=float(np.mean(cohort.mean_losses)),
            update_norm=(new_params - global_params).l2_norm(),
        )
        return new_params, stats

    def fit(
        self,
        clients: Sequence[ClientDataset],
        num_rounds: int,
        rng: np.random.Generator,
        initial_params: Parameters | None = None,
        eval_fn: Callable[[Parameters, int], dict[str, float]] | None = None,
        eval_every: int = 10,
    ) -> tuple[Parameters, list[RoundStats]]:
        """Run ``num_rounds`` of FedAvg; optionally evaluate periodically."""
        params = initial_params if initial_params is not None else self.initialize(rng)
        history: list[RoundStats] = []
        for t in range(1, num_rounds + 1):
            params, stats = self.run_round(t, params, clients, rng)
            if eval_fn is not None and (t % eval_every == 0 or t == num_rounds):
                stats.eval_metrics = eval_fn(params, t)
            history.append(stats)
        return params, history
