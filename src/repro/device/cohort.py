"""The cohort execution plane: deferred, fleet-batched local training.

The paper's server pipeline (Secs. 4-5) configures a whole cohort per
round, but a naive simulation still *executes* each participant's local
SGD one device at a time inside its own session callback — thousands of
tiny forward/backward passes where one stacked tensor program would do.
This module decouples the two concerns:

* **simulated time** stays per-device: a device still samples its own
  network/compute durations, and its report event fires at its own
  completion time, so round state machines, pace steering, and straggler
  dynamics are untouched;
* **numeric execution** is deferred: an admitted device enqueues a
  *training workload* (its store-query result, plan config, and the RNG
  draws its session would have made, captured eagerly in a
  :class:`~repro.core.fedavg.LocalStepSchedule`), and the plane later
  executes every pending workload in one shot through
  :func:`~repro.core.fedavg.client_update_cohort`.

Because each workload's randomness is drawn at enqueue time from the
device's own stream, the numbers are independent of *when* and *with
whom* a workload is batched: per-client results depend only on the
client's own data, schedule, and the shared global checkpoint.  Models
whose cohort kernels are bitwise row-exact (full minibatches) make the
whole plane byte-identical to per-device execution.

Buffer ownership
----------------

The plane owns one reusable :class:`~repro.core.fedavg.
CohortUpdateBuffers` (stacked weights/gradients/minibatch gathers),
grown to the largest cohort seen.  Each execution writes the cohort's
weighted deltas into a **freshly-allocated** ``(K, dim)`` matrix; the
per-device slices handed back through :class:`PendingCohortResult` are
row *views* of that matrix.  Report vectors are immutable by pipeline
contract, and a row view keeps the matrix alive, so the plane simply
drops its own reference after slicing — no K per-report copies, no
lifetime bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass
class CohortSlice:
    """One client's share of an executed cohort."""

    delta_vector: np.ndarray     # row view of the execution's delta matrix
    weight: float
    num_examples: int
    mean_loss: float
    steps: int


class PendingCohortResult:
    """Handle for one enqueued workload.

    ``num_examples`` / ``weight`` are known at enqueue time (the store
    query and any ``max_examples`` subsetting happen there), so the
    device can schedule its simulated train-completion event before any
    numbers exist.  :meth:`resolve` triggers execution of everything
    pending on the plane the first time any handle needs its slice.
    """

    __slots__ = (
        "plane", "schedule", "params", "config", "round_key", "_slice",
        "_cancelled", "_error",
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
        self._slice: CohortSlice | None = None
        self._cancelled = False
        self._error: Exception | None = None

    @property
    def num_examples(self) -> int:
        return self.schedule.num_examples

    @property
    def weight(self) -> float:
        return float(self.schedule.num_examples)

    @property
    def executed(self) -> bool:
        return self._slice is not None

    def resolve(self) -> CohortSlice:
        """This client's slice, executing the pending cohort if needed.

        Raises the group's execution error (wrapped per workload, so each
        device's session fails individually, exactly as an inline
        training failure would) if the batched run blew up."""
        if self._cancelled:
            raise RuntimeError("workload was cancelled")
        if self._slice is None and self._error is None:
            self.plane.execute_pending()
        if self._error is not None:
            raise RuntimeError("cohort execution failed") from self._error
        assert self._slice is not None, "plane did not execute this workload"
        return self._slice

    def cancel(self) -> None:
        """Withdraw an unexecuted workload (device dropped mid-session)."""
        self._cancelled = True
        if self._slice is None:
            self.plane._withdraw(self)


class CohortExecutionPlane:
    """Batches one population's deferred training workloads.

    One plane per FL population (workloads must share a model
    structure).  Execution is demand-driven: the first ``resolve()`` on
    any pending handle executes *everything* enqueued so far — in a
    round, that is the first device whose simulated training completes,
    by which point the round's cohort has typically been configured.
    Workloads enqueued later simply form the next batch, and per-client
    numbers are identical either way (randomness is pinned at enqueue).
    """

    def __init__(self, model: Model):
        self.model = model
        self._pending: list[PendingCohortResult] = []
        self._buffers: CohortUpdateBuffers | None = None
        #: The latest round's decoded checkpoint, shared by its cohort.
        self._decoded: tuple[object, Parameters] | None = None
        #: Telemetry: executions run, workloads executed, largest cohort.
        self.executions = 0
        self.workloads_executed = 0
        self.largest_cohort = 0

    @property
    def pending_count(self) -> int:
        return len(self._pending)

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
        """Defer one client's local training.

        Draws the session's randomness *now* from ``rng`` (exactly the
        draws :func:`~repro.core.fedavg.client_update` would make), so
        the caller's stream advances as if training had run inline.
        ``round_key`` groups workloads that share ``params`` content.
        """
        schedule = LocalStepSchedule.draw(
            dataset,
            epochs=config.epochs,
            batch_size=config.batch_size,
            rng=rng,
            max_examples=config.max_examples,
        )
        pending = PendingCohortResult(
            self, schedule, params, config, round_key
        )
        self._pending.append(pending)
        return pending

    def _withdraw(self, pending: PendingCohortResult) -> None:
        try:
            self._pending.remove(pending)
        except ValueError:
            pass

    def execute_pending(self) -> int:
        """Execute every pending workload; returns how many ran.

        Workloads are grouped by ``(round_key, training config)`` —
        normally one group per in-flight round — and each group runs as
        one :func:`client_update_cohort` over stacked buffers.
        """
        if not self._pending:
            return 0
        pending, self._pending = self._pending, []
        groups: dict[GroupKey, list[PendingCohortResult]] = {}
        for workload in pending:
            groups.setdefault(
                (workload.round_key, workload.config), []
            ).append(workload)
        for (_, config), members in groups.items():
            params = members[0].params
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
                # One bad workload must not orphan its cohort: every
                # member fails *individually* at its own resolve() —
                # the same per-device compute-error shape an inline
                # training failure produces — and other groups still run.
                for member in members:
                    member._error = exc
                continue
            for i, member in enumerate(members):
                member._slice = CohortSlice(
                    delta_vector=result.delta_row(i),
                    weight=float(result.weights[i]),
                    num_examples=int(result.num_examples[i]),
                    mean_loss=float(result.mean_losses[i]),
                    steps=int(result.steps[i]),
                )
            self.executions += 1
            self.workloads_executed += len(members)
            self.largest_cohort = max(self.largest_cohort, len(members))
        return len(pending)
