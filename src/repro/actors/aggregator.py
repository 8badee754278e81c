"""Aggregator actor (Sec. 4.2): ephemeral, leaf-level update aggregation.

Aggregators receive forwarded devices, collect their reported updates and
combine them.  Without Secure Aggregation the combination is a running
``(Σ Δ, Σ n)`` — updates are "processed online as they are received
without a need to store them" (Sec. 10): the leaf hands each upload to
its round's Master Aggregator in one synchronous call, and the master's
accept/reject decision comes back through ``ack_device`` in that call,
which folds the update into the sum or discards it.  With
Secure Aggregation enabled the Aggregator runs one protocol instance over
its cohort (Sec. 6); the cryptography executes over the observed
participation trace when the round closes, with devices that vanished
mid-round entering the protocol as post-ShareKeys dropouts.

Buffering: accepted reports fold into a
:class:`~repro.nn.parameters.ParameterAccumulator` in place instead of
re-allocating ``delta_sum + vector`` per report.  Report vectors are
immutable by contract — trainers never write a vector again after
reporting it (eval reports may even share one zero vector), and the
aggregation pipeline only ever reads them.

Cohort fold: a cohort-plane report carries a *handle*
(:class:`~repro.device.cohort.PendingCohortResult`) whose numbers the
master executes, for the accepted set only, just before the fold.  From
its first accepted handle on a leaf keeps an **ordered recipe** of
``(vector-or-handle, weight)`` instead of folding online, and ``flush``
folds it in acceptance order — the same float-add chain, so the same
bytes — each handle's row a *view* of its execution's one ``(K, dim)``
matrix.  A row that failed alone there is neither folded nor counted.
SecAgg leaves retain until ``flush`` anyway and read their handles there.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

import numpy as np

from repro.actors.kernel import Actor, ActorRef, ActorSystem
from repro.actors import messages as msg
from repro.core.config import SecAggConfig
from repro.nn.parameters import ParameterAccumulator
from repro.secagg.masking import VectorQuantizer
from repro.secagg.protocol import DropoutSchedule, SecAggError, run_secure_aggregation
from repro.tools.perf import wall_timer


def fold_sources(
    system: ActorSystem,
    sources: Iterable[ActorRef],
    on_dead: Callable[[], None] | None = None,
    on_flushed: Callable[[], None] | None = None,
) -> tuple[ParameterAccumulator | None, float, int]:
    """One level of the Sec. 4.2 aggregation tree: flush every live
    source (leaf or shard node) in order and fold the non-empty partials
    into one accumulator (``None`` when nothing folded).  A dead source
    contributes nothing (``on_dead`` is told); ``on_flushed`` fires per
    source flushed.  Returns ``(accumulator, weight_sum, device_count)``."""
    accumulator: ParameterAccumulator | None = None
    weight_sum = 0.0
    device_count = 0
    for ref in sources:
        source = system.actor_of(ref)
        if source is None:
            if on_dead is not None:
                on_dead()
            continue
        partial = source.flush()  # type: ignore[attr-defined]
        if on_flushed is not None:
            on_flushed()
        if partial.delta_sum is None or partial.device_count == 0:
            continue
        device_count += partial.device_count
        vec = np.asarray(partial.delta_sum, dtype=np.float64)
        if accumulator is None:
            accumulator = ParameterAccumulator(dim=vec.size)
        accumulator.add_vector(vec, 1.0)
        weight_sum += partial.weight_sum
    return accumulator, weight_sum, device_count


def _executed_vector(update: Any) -> np.ndarray | None:
    """An accepted update's vector at fold time: the reported one, or a
    deferred one's executed row (``None`` if it failed alone there)."""
    if isinstance(update, np.ndarray):
        return update
    return None if update.failed else update.delta_vector


class Aggregator(Actor):
    """One leaf aggregator for one round."""

    def __init__(
        self,
        round_id: int,
        master: ActorRef,
        secagg: SecAggConfig,
        rng: np.random.Generator,
    ):
        self.round_id = round_id
        self.master = master
        self.secagg = secagg
        self.rng = rng
        self._weight_sum: float = 0.0
        self._accumulator: ParameterAccumulator | None = None
        self._accepted_count = 0
        #: Accepted reports retained until flush, in acceptance order:
        #: all of them under SecAgg (the crypto sim runs over the round's
        #: trace), otherwise those from the first deferred one on.
        self._recipe: list[tuple[int, Any, float]] = []
        self._devices: dict[int, ActorRef] = {}
        self._dropped: set[int] = set()
        #: Devices whose report the master has decided: a re-delivered
        #: report must not be folded (or acked) a second time.
        self._acked: set[int] = set()
        self._closed = False

    # -- membership ------------------------------------------------------------
    def register_device(self, device_id: int, device_ref: ActorRef) -> None:
        self._devices[device_id] = device_ref

    @property
    def device_count(self) -> int:
        return len(self._devices)

    # -- message handling --------------------------------------------------------
    def receive(self, sender: Optional[ActorRef], message: Any) -> None:
        if isinstance(message, msg.DeviceReport):
            self._on_report(message)
        elif isinstance(message, msg.DeviceDropped):
            self._on_dropped(message)

    def _on_report(self, report: msg.DeviceReport) -> None:
        if (
            report.round_id != self.round_id
            or report.device_id in self._dropped
            or report.device_id in self._acked
        ):
            return
        if self._closed:
            self._nack(report.device_id)
            return
        # The master decides in this call and answers through ack_device;
        # a dead master answers nothing (the device times out).
        master = self.system.actor_of(self.master)
        if master is not None:
            master.decide_report(report, self)  # type: ignore[attr-defined]

    def _on_dropped(self, dropped: msg.DeviceDropped) -> None:
        if dropped.round_id != self.round_id or self._closed:
            return
        self._dropped.add(dropped.device_id)
        master = self.system.actor_of(self.master)
        if master is not None:
            master.record_drop(dropped)  # type: ignore[attr-defined]

    def _nack(self, device_id: int) -> None:
        device = self._devices.get(device_id)
        if device is not None:
            self.tell(device, msg.ReportAck(self.round_id, accepted=False))

    def ack_device(self, report: msg.DeviceReport, accepted: bool) -> None:
        """Master's decision on ``report``: fold it in or discard it."""
        self._acked.add(report.device_id)
        if accepted:
            update = report.deferred
            if update is None:
                update = np.asarray(report.delta_vector, dtype=np.float64)
            self._fold_in(report.device_id, update, report.weight)
        device = self._devices.get(report.device_id)
        if device is not None:
            self.tell(device, msg.ReportAck(self.round_id, accepted=accepted))

    def _fold_in(self, device_id: int, update: Any, weight: float) -> None:
        if self.secagg.enabled or self._recipe or not isinstance(update, np.ndarray):
            self._recipe.append((device_id, update, weight))
        else:
            self._accumulate(update, weight)

    def _accumulate(self, vector: np.ndarray, weight: float) -> None:
        self._accepted_count += 1
        if self._accumulator is None:
            self._accumulator = ParameterAccumulator(dim=vector.size)
        self._accumulator.add_vector(vector, 1.0)
        self._weight_sum += weight

    # -- flush ----------------------------------------------------------------
    def flush(self) -> msg.IntermediateAggregate:
        """Produce this aggregator's intermediate sum for the round."""
        self._closed = True
        retained = [
            (device_id, vector, weight) for device_id, update, weight in self._recipe
            if (vector := _executed_vector(update)) is not None
        ]
        self._recipe.clear()
        if self.secagg.enabled:
            return self._flush_secagg({uid: (v, w) for uid, v, w in retained})
        for _, vector, weight in retained:
            self._accumulate(vector, weight)
        # Ownership of the accumulator's buffer transfers to the message:
        # the aggregator is stopped right after the round.
        return msg.IntermediateAggregate(
            round_id=self.round_id,
            delta_sum=(
                self._accumulator.sum_vector
                if self._accumulator is not None
                else None
            ),
            weight_sum=self._weight_sum,
            device_count=self._accepted_count,
        )

    def _flush_secagg(
        self, committed: dict[int, tuple[np.ndarray, float]]
    ) -> msg.IntermediateAggregate:
        if not committed:
            return msg.IntermediateAggregate(
                round_id=self.round_id, delta_sum=None, weight_sum=0.0, device_count=0
            )
        dim = next(iter(committed.values()))[0].shape[0]
        # The full cohort = everyone forwarded here; non-committers are
        # post-ShareKeys dropouts whose pairwise masks must be recovered.
        # Weights ride along as one extra securely-summed coordinate, since
        # FedAvg needs Σ n as well as Σ Δ (Sec. 6: sums are sufficient).
        # The cohort's augmented vectors are rows of one (n, dim+1) matrix
        # rather than n separate np.concatenate calls.
        cohort_ids = list(self._devices)
        stacked = np.zeros((len(cohort_ids), dim + 1), dtype=np.float64)
        for i, uid in enumerate(cohort_ids):
            if uid in committed:
                stacked[i, :dim], stacked[i, dim] = committed[uid]
        augmented = {uid: stacked[i] for i, uid in enumerate(cohort_ids)}
        dropouts = DropoutSchedule(
            after_share=frozenset(uid for uid in self._devices if uid not in committed)
        )
        threshold = self.secagg.threshold(len(cohort_ids))
        max_abs = float(np.abs(stacked).max())
        quantizer = VectorQuantizer(
            modulus_bits=self.secagg.modulus_bits,
            clip_range=max(max_abs, 1e-6),
            max_summands=max(len(cohort_ids), 1),
        )
        try:
            total, metrics = run_secure_aggregation(
                augmented,
                threshold=threshold,
                quantizer=quantizer,
                rng=self.rng,
                dropouts=dropouts,
                timer=wall_timer,
            )
        except SecAggError:
            # Below threshold: this aggregator contributes nothing; the
            # round may still complete from other aggregators' cohorts.
            return msg.IntermediateAggregate(
                round_id=self.round_id, delta_sum=None, weight_sum=0.0, device_count=0
            )
        return msg.IntermediateAggregate(
            round_id=self.round_id,
            delta_sum=total[:-1],
            weight_sum=float(total[-1]),
            device_count=len(committed),
            secagg_metrics=metrics,
        )


class ShardAggregator(Actor):
    """Middle tier of the Sec. 4.2 aggregation tree: one per selector
    shard slot of the round, folding its leaf Aggregators' flushed
    partials into a *single* intermediate aggregate.

    Devices never talk to this actor — the report/ack control path stays
    leaf <-> master, so the round state machine is untouched.  What
    changes is the fold fan-in: the master combines one partial per shard
    aggregator instead of one per leaf, and a crashed shard aggregator
    severs exactly its own subtree's contribution (its leaves are never
    flushed), leaving the round's other shards intact — the paper's
    "only the participating devices' results are lost" failure isolation,
    lifted one level up the tree.
    """

    def __init__(self, round_id: int):
        self.round_id = round_id
        self.leaves: list[ActorRef] = []

    def adopt(self, leaf: ActorRef) -> None:
        self.leaves.append(leaf)

    def receive(self, sender: Optional[ActorRef], message: Any) -> None:
        pass  # folds run as synchronous intra-datacenter RPCs (flush)

    def flush(self) -> msg.IntermediateAggregate:
        """Flush every live leaf and fold the partials into one
        intermediate aggregate — the same shape the master folds, so the
        tree composes (``master.flush-of-shards`` ≡ ``shard.flush-of-
        leaves``)."""
        # A crashed leaf's devices are simply lost.
        accumulator, weight_sum, device_count = fold_sources(self.system, self.leaves)
        return msg.IntermediateAggregate(
            round_id=self.round_id,
            delta_sum=accumulator.sum_vector if accumulator is not None else None,
            weight_sum=weight_sum,
            device_count=device_count,
        )
