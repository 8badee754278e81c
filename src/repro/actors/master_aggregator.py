"""Master Aggregator actor (Sec. 4.2): owns one round of one FL task.

Spawned by the Coordinator per round, through the ``make_master`` its
tenant's lifecycle plane binds; spawns leaf Aggregators sized to the
cohort (and to Secure Aggregation's group parameter ``k``); drives the
round state machine, deciding each report or drop in the synchronous call
its leaf makes when the upload lands (no message reaches this actor);
and — crucially for the paper's storage/attack-surface claims — keeps
everything in memory, committing exactly one checkpoint to persistent
storage only after full aggregation succeeds.  It ends by stopping its
tree and itself and then calling its Coordinator's ``round_finished``.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any

import numpy as np

from repro.actors.aggregator import Aggregator, ShardAggregator, fold_sources
from repro.actors.kernel import Actor, ActorRef, Restart
from repro.actors import messages as msg
from repro.core.checkpoint import CheckpointStore, CheckpointWriteError, FLCheckpoint
from repro.core.config import TaskConfig, TaskKind
from repro.core.rounds import DeviceOutcome, RoundPhase, RoundStateMachine

#: Devices per leaf aggregator when Secure Aggregation is off.
_PLAIN_GROUP_SIZE = 100


class MasterAggregator(Actor):
    """Ephemeral per-round coordinator of leaf Aggregators."""

    def __init__(
        self,
        round_id: int,
        task: TaskConfig,
        coordinator: ActorRef,
        store: CheckpointStore,
        rng: np.random.Generator,
        round_listener=None,
        metrics_store=None,
        checkpoint_retry=None,  # faults.RetryPolicy; None = single attempt
        recovery=None,          # fleet RecoveryLedger, if any
        shard_slots: int = 1,   # at most this many shard aggregators
        shard_restart_delay_s: float = 5.0,
        fold_recorder=None,     # per-shard-partial fold telemetry callback
    ):
        self.round_id = round_id
        self.task = task
        self.coordinator = coordinator
        self.store = store
        self.rng = rng
        self.round_listener = round_listener
        self.metrics_store = metrics_store
        self.checkpoint_retry = checkpoint_retry
        self.recovery = recovery
        #: Sec. 4.2 aggregation tree: every round folds leaf -> shard ->
        #: master through ``min(shard_slots, leaves)``
        #: :class:`~repro.actors.aggregator.ShardAggregator` nodes (one
        #: per owned Selector), one upward fold per shard per round.  A
        #: tree of one folds the bits a flat funnel would.
        self.shard_slots = shard_slots
        self.shard_restart_delay_s = shard_restart_delay_s
        self.fold_recorder = fold_recorder
        self.shard_aggregators: list[ActorRef] = []
        self._shard_leaves: list[list[ActorRef]] = []
        #: Accepted devices' report metrics in acceptance order, summarized
        #: at round close (Sec. 7.4 "Materialized model metrics"), and the
        #: handles of the cohort-plane updates among them, which ``_finish``
        #: executes; by device id, so a re-delivered report records nothing.
        self._device_metrics: dict[int, dict[str, float]] = {}
        self._deferred: dict[int, Any] = {}
        self.state = RoundStateMachine(
            round_id=round_id,
            task_id=task.task_id,
            config=task.round_config,
            started_at_s=0.0,  # fixed in on_start when sim time is known
        )
        self.aggregators: list[ActorRef] = []
        self._next_agg = 0
        self._finished = False
        self._reporting_armed = False

    # -- lifecycle ------------------------------------------------------------
    def on_start(self) -> None:
        self.state.started_at_s = self.now
        cohort = self.task.round_config.selection_goal
        if self.task.secagg.enabled:
            group = max(2, self.task.secagg.group_size)
        else:
            group = _PLAIN_GROUP_SIZE
        num_aggs = max(1, math.ceil(cohort / group))
        for i in range(num_aggs):
            agg = Aggregator(
                round_id=self.round_id,
                master=self.ref,
                secagg=self.task.secagg,
                rng=self.rng,
            )
            self.aggregators.append(
                self.system.spawn(agg, f"aggregator/{self.round_id}/{i}")
            )
        # The aggregation tree's middle tier: leaves are dealt round-robin
        # across shard aggregators, each restarted by this master if it
        # crashes before the round's fold.
        tier = min(self.shard_slots, num_aggs)
        self._shard_leaves = [self.aggregators[j::tier] for j in range(tier)]
        self.shard_aggregators = [self._spawn_shard(j) for j in range(tier)]
        self.schedule(
            self.task.round_config.selection_timeout_s,
            self._on_selection_timeout,
        )

    def on_stop(self, crashed: bool) -> None:
        if crashed and not self._finished:
            # Sec. 4.4: "If the Master Aggregator fails, the current round
            # of the FL task it manages will fail" — the Coordinator's
            # kernel Restart restarts it.
            for agg in self.aggregators:
                self.system.stop(agg)
            for node in self.shard_aggregators:
                self.system.stop(node)

    # -- device admission -------------------------------------------------------
    @property
    def demand(self) -> int:
        """Devices this round still admits: what its selection goal lacks,
        while it is selecting (a Selector draws no more than this)."""
        state = self.state
        if state.phase is not RoundPhase.SELECTION:
            return 0
        return state.config.selection_goal - state.selected_count

    def admit_device(self, device_id: int, device_ref: ActorRef) -> ActorRef:
        """Called (synchronously, via Selector forwarding) per device, never
        beyond :attr:`demand`, so the state machine accepts each.  Returns
        the Aggregator the device was attached to."""
        self.state.on_checkin(device_id, self.now)
        agg_ref = self.aggregators[self._next_agg % len(self.aggregators)]
        self._next_agg += 1
        agg = self.system.actor_of(agg_ref)
        if agg is not None:
            agg.register_device(device_id, device_ref)  # type: ignore[attr-defined]
        self.state.on_configured(device_id, self.now)
        if self.state.phase is RoundPhase.REPORTING:
            self._arm_reporting_timeout()
        return agg_ref

    # -- shard-aggregator supervision ------------------------------------------
    def _spawn_shard(self, slot: int) -> ActorRef:
        """A shard aggregator for ``slot``'s leaves, at round start and at
        a respawn, restarted by this master (Sec. 4.4 a level down).  Its
        leaves hold the reports, so a replacement recovers the whole fold;
        one due after the round closed does not fire, and a crash still
        open at the fold costs the shard its contribution (ledgered)."""
        node = ShardAggregator(self.round_id)
        for leaf in self._shard_leaves[slot]:
            node.adopt(leaf)
        return self.system.spawn(
            node,
            f"shardagg/{self.round_id}/{slot}",
            restart=Restart(
                self.shard_restart_delay_s,
                partial(self._respawn_shard, slot),
                owner=self.ref,
            ),
        )

    def _respawn_shard(self, slot: int, dead_ref: ActorRef) -> None:
        self.shard_aggregators[slot] = self._spawn_shard(slot)
        if self.recovery is not None:
            self.recovery.record("shard_aggregator_respawns")

    # -- the leaves' calls -------------------------------------------------------
    def decide_report(self, report: msg.DeviceReport, leaf: Aggregator) -> None:
        """Decide a report its ``leaf`` just collected and answer through
        that leaf — before finishing the round, so the report that
        completes it is in the round's fold."""
        device_id = report.device_id
        if device_id not in self.state.participants:
            return
        was_terminal = self.state.is_terminal
        accepted = self.state.on_report(device_id, self.now) is DeviceOutcome.COMPLETED
        if accepted and report.train_metrics:
            self._device_metrics.setdefault(device_id, dict(report.train_metrics))
        if accepted and report.deferred is not None:
            self._deferred.setdefault(device_id, report.deferred)
        leaf.ack_device(report, accepted=accepted)
        if self.state.is_terminal and not was_terminal and not self._finished:
            self._finish()

    def record_drop(self, dropped: msg.DeviceDropped) -> None:
        """A device left mid-round; one already decided stays decided."""
        self.state.on_device_dropped(dropped.device_id, self.now, reason=dropped.reason)
        self._maybe_finish_on_depletion()

    def _on_selection_timeout(self) -> None:
        if self.state.phase is not RoundPhase.SELECTION:
            return
        phase = self.state.on_selection_timeout(self.now)
        if phase is RoundPhase.ABANDONED:
            self._finish()
        elif phase is RoundPhase.REPORTING:
            self._arm_reporting_timeout()

    def _arm_reporting_timeout(self) -> None:
        if self._reporting_armed:
            return
        self._reporting_armed = True
        self.schedule(
            self.task.round_config.reporting_timeout_s, self._on_reporting_timeout
        )

    def _on_reporting_timeout(self) -> None:
        if self.state.phase is not RoundPhase.REPORTING:
            return
        self.state.on_reporting_timeout(self.now)
        if not self._finished:
            self._finish()

    def _maybe_finish_on_depletion(self) -> None:
        """If every selected device already dropped, fail fast."""
        if (
            self.state.phase is RoundPhase.REPORTING
            and self.state.in_flight_count == 0
            and self.state.completed_count < self.task.round_config.min_participants
        ):
            self.state.on_reporting_timeout(self.now)
            if not self._finished:
                self._finish()

    # -- round completion -------------------------------------------------------
    def _execute_accepted(self) -> None:
        """Run the round's accepted cohort-plane workloads — here, where
        the accepted set is known, once — and fill in each one's loss.  A
        row that failed alone gives no metrics (its leaf skips it too)."""
        if not self._deferred:
            return
        handles = list(self._deferred.values())
        handles[0].plane.execute_pending(handles)
        for device_id, handle in self._deferred.items():
            if handle.failed:
                self._device_metrics.pop(device_id, None)
            elif device_id in self._device_metrics:
                self._device_metrics[device_id]["loss"] = handle.mean_loss
        # This actor stays reachable from its timeouts on the heap long
        # after the round; the round's delta matrix must not.
        self._deferred.clear()

    def _finish(self) -> None:
        self._finished = True
        # Before the fold and the metrics (materialized even when the
        # commit fails): both read the numbers.
        self._execute_accepted()
        committed = False
        if self.state.phase is RoundPhase.COMPLETED:
            if self.task.kind is TaskKind.TRAINING:
                committed = self._aggregate_and_commit()
            else:
                # Evaluation rounds never touch the global model: their
                # product is the materialized metrics only (Sec. 3, 7.4).
                committed = True
        if self.metrics_store is not None and self._device_metrics:
            self.metrics_store.materialize(
                task_name=self.task.task_id,
                round_number=self.round_id,
                time_s=self.now,
                device_metrics=list(self._device_metrics.values()),
                kind=self.task.kind.value,
                committed=committed,
            )
        result = self.state.result()
        # The state machine may say "completed" while aggregation or the
        # checkpoint commit failed (e.g. all aggregators crashed, or a
        # respawned coordinator already advanced the model); the result
        # must reflect reality.
        result.committed = committed
        if self.round_listener is not None:
            self.round_listener(result)
        for agg in self.aggregators:
            self.system.stop(agg)
        for node in self.shard_aggregators:
            self.system.stop(node)
        self.system.stop(self.ref)
        # Last: with pipelining the next round may start inside this
        # call, and it must never run beside a live predecessor.
        coordinator = self.system.actor_of(self.coordinator)
        if coordinator is not None:
            coordinator.round_finished(  # type: ignore[attr-defined]
                self.round_id, self.task.task_id, committed
            )

    def _aggregate_and_commit(self) -> bool:
        """Combine intermediate aggregates; write exactly one checkpoint."""
        # The master folds one partial per shard aggregator, each of which
        # flushed its own leaves.  A crashed shard node's whole subtree is
        # lost; the round's other shards still fold.
        accumulator, weight_sum, contributing = fold_sources(
            self.system,
            self.shard_aggregators,
            on_dead=(
                partial(self.recovery.record, "shard_fold_aborts")
                if self.recovery is not None
                else None
            ),
            on_flushed=self.fold_recorder,
        )
        if accumulator is None or weight_sum <= 0:
            return False
        if contributing < self.task.round_config.min_participants:
            return False
        try:
            previous = self.store.latest(self.task.population_name)
        except KeyError:
            return False
        params = previous.to_params()
        # Divide the round sum in place (the accumulator dies with this
        # round) and fold the average into the freshly-deserialized global
        # weights without materialising `params + avg_delta`.
        avg_vec = accumulator.sum_vector
        np.divide(avg_vec, weight_sum, out=avg_vec)
        new_params = params.add_(params.from_vector(avg_vec))
        checkpoint = FLCheckpoint.from_params(
            new_params,
            population_name=self.task.population_name,
            task_id=self.task.task_id,
            round_number=self.round_id,
            contributing_devices=contributing,
        )
        attempts = 1 + (
            self.checkpoint_retry.max_retries
            if self.checkpoint_retry is not None
            else 0
        )
        for attempt in range(attempts):
            try:
                self.store.commit(checkpoint)
                return True
            except ValueError:
                # Another incarnation already advanced the model (coordinator
                # was respawned mid-round): a logic conflict, never retried.
                return False
            except CheckpointWriteError:
                # Transient storage failure (fault plane): retry up to the
                # policy cap, then abandon the round — Sec. 4.2's invariant
                # (commit exactly once, or not at all) is preserved either
                # way.
                if self.recovery is not None and attempt + 1 < attempts:
                    self.recovery.record("checkpoint_write_retries")
        if self.recovery is not None:
            self.recovery.record("rounds_abandoned_on_commit")
        return False
