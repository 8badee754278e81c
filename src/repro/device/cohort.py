"""The cohort execution plane: deferred, fleet-batched local training.

The paper's server over-selects each round on purpose (130 % of the
goal, Sec. 2.2) and aborts whatever is still in flight once the goal
count has reported (Fig. 7), so executing every configured participant's
local SGD computes numbers nothing ever reads.  This module decouples:

* **simulated time**, which stays per-device: a device samples its own
  network/compute durations and its report fires at its own completion
  time, so round state machines, pace steering, and straggler dynamics
  are untouched;
* **numeric execution**, which happens at the round's fold, for the
  accepted set only: an admitted device *enqueues* a workload (its
  store-query result, plan config, and the RNG draws its session would
  have made, captured eagerly in a
  :class:`~repro.core.fedavg.LocalStepSchedule`) and gets back a
  :class:`PendingCohortResult` handle that travels with its report; the
  round's ``MasterAggregator`` — the one place the accepted set is known
  — hands the accepted handles to :meth:`CohortExecutionPlane.
  execute_pending` once, as one
  :func:`~repro.core.fedavg.client_update_cohort`.

Randomness is drawn at enqueue from the device's own stream, so a row's
numbers depend only on its own data and schedule and the shared
checkpoint — not on *when* or *with whom* it is batched
(``tests/core/test_cohort_composition.py``); models whose cohort kernels
are bitwise row-exact make the plane byte-identical to per-device
execution.  The plane keeps **no list of work**: a handle is reachable
only from the session event or report carrying it, so an abandoned
session costs its enqueue and nothing is ever cancelled.

Failure shape: what can be checked at enqueue is (an empty dataset; a
feature shape or dtype that disagrees with the group's first member) and
fails the *session*, like an inline training error.  A kernel failure at
the fold re-runs the group row by row — the survivors' bytes do not
change — and a row that fails alone is marked ``failed`` (tallied in
``failed_workloads``); the aggregators leave it out of fold and metrics.

Buffer ownership: the plane owns one reusable :class:`~repro.core.
fedavg.CohortUpdateBuffers` sized to one *block* of rows, not to the
largest cohort seen, and its siblings: a cohort past one block trains its
blocks on parallel lanes, each on its own buffers, all lanes together
within :data:`~repro.core.fedavg.BLOCK_BYTES`.  Each execution writes its
weighted deltas into a **freshly-allocated** ``(K, dim)`` matrix of
accepted rows only; a handle's ``delta_vector`` is a row *view* that keeps
the matrix alive (report vectors are immutable), and both die with the round.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.checkpoint import FLCheckpoint
from repro.core.config import ClientTrainingConfig
from repro.core.datasets import ClientDataset
from repro.core.fedavg import (
    CohortUpdateBuffers,
    LocalStepSchedule,
    client_update_cohort,
)
from repro.nn.models import Model
from repro.nn.parameters import Parameters

#: A group key: workloads sharing one (checkpoint, training-config) pair
#: train against the same global weights in the same tensor program.
GroupKey = tuple[object, ClientTrainingConfig]


class UnexecutedWorkloadError(RuntimeError):
    """A deferred update's numbers were read before its round's fold
    executed it (or after it failed there)."""


class PendingCohortResult:
    """Handle for one enqueued workload: its schedule, the round's
    decoded checkpoint and its config until the fold, then also its row.

    ``num_examples`` / ``weight`` are known at enqueue (the store query
    and ``max_examples`` subsetting happen there), so the device schedules
    its train-completion and upload events before any numbers exist.
    :attr:`delta_vector` / :attr:`mean_loss` exist once :meth:`
    CohortExecutionPlane.execute_pending` has run the handle.
    """

    __slots__ = (
        "plane", "schedule", "params", "config", "round_key", "_row",
        "_mean_loss", "error",
    )

    def __init__(
        self,
        plane: "CohortExecutionPlane",
        schedule: LocalStepSchedule,
        params: Parameters,
        config: ClientTrainingConfig,
        round_key: object,
    ):
        self.plane = plane
        self.schedule = schedule
        self.params = params
        self.config = config
        self.round_key = round_key
        self._row: np.ndarray | None = None
        self._mean_loss = 0.0
        #: What the kernels raised when this row ran alone, if they did.
        self.error: Exception | None = None

    @property
    def num_examples(self) -> int:
        return self.schedule.num_examples

    @property
    def weight(self) -> float:
        return float(self.schedule.num_examples)

    @property
    def executed(self) -> bool:
        return self._row is not None

    @property
    def failed(self) -> bool:
        return self.error is not None

    def _require_executed(self) -> None:
        if self._row is None:
            raise UnexecutedWorkloadError(
                f"update of round {self.round_key!r} read before its "
                "round's fold executed it"
            ) from self.error

    @property
    def delta_vector(self) -> np.ndarray:
        """This client's flat weighted delta: a row view of its
        execution's matrix, never written after it is minted."""
        self._require_executed()
        return self._row

    @property
    def mean_loss(self) -> float:
        self._require_executed()
        return self._mean_loss


class CohortExecutionPlane:
    """Executes one population's deferred training workloads (which
    must share a model structure).  Holds the model, the round's decoded
    checkpoint, scratch buffers and tallies — never a workload: whoever
    holds the handles decides what runs (``MasterAggregator._finish``).
    """

    def __init__(self, model: Model):
        self.model = model
        self._buffers: CohortUpdateBuffers | None = None
        #: The latest round's decoded checkpoint, shared by its cohort.
        self._decoded: tuple[object, Parameters] | None = None
        #: The feature signature the latest group's first member enqueued.
        self._signature: tuple[GroupKey, tuple] | None = None
        #: Telemetry: executions run, workloads executed, largest cohort,
        #: rows that failed alone at a fold.
        self.executions = 0
        self.workloads_executed = 0
        self.largest_cohort = 0
        self.failed_workloads = 0

    def checkpoint_params(self, checkpoint: FLCheckpoint) -> Parameters:
        """``checkpoint`` decoded — once per round, not once per
        participant.  Read-only by contract: every workload of the round
        trains against this one object."""
        key = checkpoint.round_key
        if self._decoded is None or self._decoded[0] != key:
            self._decoded = (key, checkpoint.to_params())
        return self._decoded[1]

    def enqueue(
        self,
        dataset: ClientDataset,
        params: Parameters,
        config: ClientTrainingConfig,
        rng: np.random.Generator,
        round_key: object,
    ) -> PendingCohortResult:
        """Defer one client's local training; the plane retains nothing.

        Draws the session's randomness *now* from ``rng`` (exactly the
        draws :func:`~repro.core.fedavg.client_update` would make), so
        the caller's stream advances as if training had run inline.
        ``round_key`` groups workloads that share ``params`` content; one
        whose features could not share its group's tensor program is
        refused here, where the session can still fail for it.
        """
        group = (round_key, config)
        x, y = dataset.x, dataset.y
        signature = (x.shape[1:], x.dtype, y.shape[1:], y.dtype)
        if self._signature is None or self._signature[0] != group:
            self._signature = (group, signature)
        elif self._signature[1] != signature:
            raise ValueError(
                f"workload features {signature} disagree with the cohort's "
                f"{self._signature[1]} in round {round_key!r}"
            )
        schedule = LocalStepSchedule.draw(
            dataset,
            epochs=config.epochs,
            batch_size=config.batch_size,
            rng=rng,
            max_examples=config.max_examples,
        )
        return PendingCohortResult(self, schedule, params, config, round_key)

    def execute_pending(self, handles: Iterable[PendingCohortResult]) -> int:
        """Execute exactly ``handles`` — a round's accepted set — and
        return how many rows ran; one that already ran or failed is not
        run again.  Each ``(round_key, training config)`` group (normally
        one) is one :func:`client_update_cohort`, rows in the order given.
        Never raises for a workload's sake (module docstring).
        """
        groups: dict[GroupKey, list[PendingCohortResult]] = {}
        for handle in handles:
            if not (handle.executed or handle.failed):
                groups.setdefault((handle.round_key, handle.config), []).append(handle)
        for members in groups.values():
            self._execute_group(members)
        return sum(len(members) for members in groups.values())

    def _execute_group(self, members: list[PendingCohortResult]) -> None:
        params, config = members[0].params, members[0].config
        if self._buffers is None or self._buffers.layout != params.layout:
            self._buffers = CohortUpdateBuffers(params.layout)
        try:
            result = client_update_cohort(
                self.model,
                params,
                [m.schedule for m in members],
                learning_rate=config.learning_rate,
                clip_update_norm=config.clip_update_norm,
                buffers=self._buffers,
            )
        except Exception as exc:
            # One bad row must not take its cohort (or the round's
            # master, whose ``receive`` this runs under) with it.
            if len(members) == 1:
                members[0].error = exc
                self.failed_workloads += 1
            else:
                for member in members:
                    self._execute_group([member])
            return
        for i, member in enumerate(members):
            member._row = result.delta_row(i)
            member._mean_loss = float(result.mean_losses[i])
        self.executions += 1
        self.workloads_executed += len(members)
        self.largest_cohort = max(self.largest_cohort, len(members))
