"""The on-device FL runtime (Sec. 3, "Task Execution").

"If the device has been selected, the FL runtime receives the FL plan,
queries the app's example store for data requested by the plan, and
computes plan-determined model updates and metrics."

Two trainer implementations share the :class:`LocalTrainer` interface:

* :class:`RealTrainer` — executes the plan for real: queries an example
  store, runs the plan's epochs of minibatch SGD via
  :func:`repro.core.fedavg.client_update`, serializes the weighted delta.
* :class:`SyntheticTrainer` — produces a structurally identical but
  numerically trivial update at near-zero cost.  Used by fleet-scale
  protocol benchmarks (Figs. 5–8) where per-device SGD cost is irrelevant.

Trainers are built one per device.  A :class:`RealTrainer` enrolled in
its population's cohort plane defers a training session's numbers to the
plane's stacked kernels (:meth:`RealTrainer.defer`); one without a plane
(or whose model ships no cohort kernel) runs functional
:func:`~repro.core.fedavg.client_update` inline.  The ``delta_vector``
placed in a :class:`TrainResult` is never written again by the trainer:
training deltas are freshly-owned storage handed to the reporting
pipeline, and evaluation deltas may be one shared zero vector — either
way the pipeline treats report vectors as immutable (it only reads
them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.bounds import check, count, non_negative, positive
from repro.core.checkpoint import FLCheckpoint
from repro.core.config import TaskKind
from repro.core.datasets import ClientDataset
from repro.core.fedavg import client_update
from repro.core.plan import FLPlan
from repro.device.cohort import CohortExecutionPlane, PendingCohortResult
from repro.device.example_store import ExampleStore
from repro.nn.losses import softmax_cross_entropy
from repro.nn.models import Model
from repro.nn.parameters import Parameters


@dataclass
class TrainResult:
    """What one plan execution produces."""

    delta_vector: np.ndarray | None  # flattened weighted delta, n*(w - w0)
    weight: float                  # n
    num_examples: int
    metrics: dict[str, float]
    upload_nbytes: int
    train_compute_units: float     # example-epochs of work performed
    #: Set by :meth:`RealTrainer.defer`: the cohort-plane handle whose
    #: numbers exist from the round's fold on (``delta_vector`` and
    #: ``metrics["loss"]`` are ``None``; the session needs neither).
    deferred: PendingCohortResult | None = None


@dataclass(frozen=True)
class ComputeModel:
    """Maps training work to on-device wall time.

    ``seconds = compute_units / (examples_per_second * speed_factor)``
    where compute units are example-epochs.  The default corresponds to a
    mid-range phone running a small model.
    """

    examples_per_second: float = positive(default=200.0)
    setup_overhead_s: float = non_negative(default=2.0)

    __post_init__ = check

    def train_time_s(self, compute_units: float, speed_factor: float) -> float:
        if speed_factor <= 0:
            raise ValueError("speed_factor must be positive")
        return self.setup_overhead_s + compute_units / (
            self.examples_per_second * speed_factor
        )


class LocalTrainer(Protocol):
    """The FL runtime's pluggable plan executor."""

    def train(
        self, plan: FLPlan, checkpoint: FLCheckpoint, now_s: float,
        rng: np.random.Generator,
    ) -> TrainResult:
        ...


@dataclass
class RealTrainer:
    """Executes plans against a real model and example store.

    Training plans run local SGD and report a weighted delta; evaluation
    plans (Sec. 3: "FL plans ... can also encode evaluation tasks") run a
    forward pass over held-out data and report only metrics — the delta is
    zero and the upload is metrics-sized.

    The global checkpoint is decoded once per round by the population's
    cohort plane, which every participant of the round shares; a trainer
    without a plane decodes per session.
    """

    model: Model
    store: ExampleStore
    #: A modelled codec: the upload is the raw delta's bytes over this
    #: ratio (at least 1).  No codec runs on a device.
    update_compression_ratio: float = 1.0

    def __post_init__(self) -> None:
        self._zero_delta: np.ndarray | None = None
        self._cohort_plane: CohortExecutionPlane | None = None

    def attach_cohort_plane(self, plane: CohortExecutionPlane) -> None:
        """Enroll this trainer in its population's cohort execution plane.

        Once enrolled, training plans are *deferred* via :meth:`defer`
        instead of executed inline (evaluation plans still run inline)."""
        self._cohort_plane = plane

    def defer(
        self,
        plan: FLPlan,
        checkpoint: FLCheckpoint,
        now_s: float,
        rng: np.random.Generator,
    ) -> TrainResult | None:
        """Enqueue this session's training with the cohort plane: the
        session's simulated cost now, its numbers if the round accepts it.

        Returns ``None`` when the session should run inline instead (no
        plane attached, an evaluation plan, or a model without a cohort
        kernel).  The store query and every RNG draw the inline path would
        make happen *here*, at the session's own simulated time, so
        deferring never perturbs the device's stream or the timeline.
        """
        if self._cohort_plane is None:
            return None
        if plan.device.kind is not TaskKind.TRAINING:
            return None
        # Deferral pays off only when the model ships a true batched
        # kernel; the base fallback executes rows serially, so a model
        # without one trains cheaper inline than through the plane.
        if type(self.model).loss_and_grad_cohort is Model.loss_and_grad_cohort:
            return None
        x, y = self.store.query(plan.device.selection_criteria, now_s)
        if x.shape[0] == 0:
            raise RuntimeError("example store returned no data for the plan")
        pending = self._cohort_plane.enqueue(
            ClientDataset("local", x, y),
            self._cohort_plane.checkpoint_params(checkpoint),
            plan.device.training,
            rng,
            checkpoint.round_key,
        )
        n = pending.num_examples
        return TrainResult(
            delta_vector=None,
            weight=pending.weight,
            num_examples=n,
            metrics={"loss": None, "num_examples": n},
            upload_nbytes=self._upload_nbytes(pending.params.num_parameters),
            train_compute_units=float(n * plan.device.training.epochs),
            deferred=pending,
        )

    def _upload_nbytes(self, num_parameters: int) -> int:
        return int(num_parameters * 8 / max(self.update_compression_ratio, 1.0))

    def _checkpoint_params(self, checkpoint: FLCheckpoint) -> Parameters:
        if self._cohort_plane is None:
            return checkpoint.to_params()
        return self._cohort_plane.checkpoint_params(checkpoint)

    def train(
        self,
        plan: FLPlan,
        checkpoint: FLCheckpoint,
        now_s: float,
        rng: np.random.Generator,
    ) -> TrainResult:
        x, y = self.store.query(plan.device.selection_criteria, now_s)
        if x.shape[0] == 0:
            raise RuntimeError("example store returned no data for the plan")
        params = self._checkpoint_params(checkpoint)
        cfg = plan.device.training
        dataset = ClientDataset("local", x, y)
        if plan.device.kind is not TaskKind.TRAINING:
            return self._evaluate(params, dataset)
        update = client_update(
            self.model,
            params,
            dataset,
            epochs=cfg.epochs,
            batch_size=cfg.batch_size,
            learning_rate=cfg.learning_rate,
            rng=rng,
            max_examples=cfg.max_examples,
        )
        vector = update.delta.to_vector()
        return TrainResult(
            delta_vector=vector,
            weight=update.weight,
            num_examples=update.num_examples,
            metrics={"loss": update.mean_loss, "num_examples": update.num_examples},
            upload_nbytes=self._upload_nbytes(vector.size),
            train_compute_units=float(update.num_examples * cfg.epochs),
        )

    def _zero_vector(self, num_parameters: int) -> np.ndarray:
        """Eval reports carry a zero delta; the reporting pipeline never
        mutates report vectors, so the trainer shares one."""
        if self._zero_delta is None or self._zero_delta.size != num_parameters:
            self._zero_delta = np.zeros(num_parameters)
        return self._zero_delta

    def _evaluate(self, params, dataset: ClientDataset) -> TrainResult:
        """Held-out metrics: "analogous to the validation step in data
        center training" (Sec. 3).

        One forward pass serves both metrics: the loss is derived from
        the same logits the accuracy needs (every bundled model's
        ``loss`` is softmax cross-entropy over its ``logits``), instead
        of running ``model.loss`` and ``model.logits`` back to back —
        halving an eval session's compute."""
        n = dataset.num_examples
        logits = np.asarray(self.model.logits(params, dataset.x))
        loss, _ = softmax_cross_entropy(logits, dataset.y)
        accuracy = float((logits.argmax(axis=-1) == dataset.y).mean())
        return TrainResult(
            delta_vector=self._zero_vector(params.num_parameters),
            weight=float(n),
            num_examples=n,
            metrics={"eval_loss": loss, "eval_accuracy": accuracy,
                     "num_examples": n},
            upload_nbytes=256,  # metrics payload only
            train_compute_units=0.3 * n,  # forward pass only
        )


@dataclass(slots=True)
class SyntheticTrainer:
    """Zero-cost stand-in producing protocol-identical updates.

    The delta is a small random vector, each entry drawn from
    ``N(0, 1e-3)`` (so aggregation math stays non-degenerate); example
    counts are sampled log-normally to model heterogeneous on-device data
    volumes.  A fleet holds one per member row, so it keeps no instance
    dict.
    """

    num_parameters: int = count(1)
    mean_examples: float = positive(default=100.0)
    examples_sigma: float = non_negative(default=0.8)
    update_compression_ratio: float = positive(default=3.0)
    _zero_delta: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    __post_init__ = check

    def _zero_vector(self) -> np.ndarray:
        if self._zero_delta is None:
            self._zero_delta = np.zeros(self.num_parameters)
        return self._zero_delta

    def train(
        self,
        plan: FLPlan,
        checkpoint: FLCheckpoint,
        now_s: float,
        rng: np.random.Generator,
    ) -> TrainResult:
        n = max(
            1, int(self.mean_examples * np.exp(rng.normal(0.0, self.examples_sigma)))
        )
        n = min(n, plan.device.training.max_examples)
        if plan.device.kind is not TaskKind.TRAINING:
            return TrainResult(
                delta_vector=self._zero_vector(),
                weight=float(n),
                num_examples=n,
                metrics={"eval_loss": float(rng.uniform(0.5, 2.0)), "num_examples": n},
                upload_nbytes=256,
                train_compute_units=0.3 * n,
            )
        delta = rng.normal(0.0, 1e-3, size=self.num_parameters)
        # Scale the freshly-drawn vector in place: `delta * n` without the
        # second allocation.
        np.multiply(delta, n, out=delta)
        raw_nbytes = self.num_parameters * 8
        return TrainResult(
            delta_vector=delta,
            weight=float(n),
            num_examples=n,
            metrics={"loss": float(rng.uniform(0.5, 2.0)), "num_examples": n},
            upload_nbytes=int(raw_nbytes / max(self.update_compression_ratio, 1.0)),
            train_compute_units=float(n * plan.device.training.epochs),
        )
