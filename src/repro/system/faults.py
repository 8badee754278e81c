"""The deterministic fault-injection plane and its recovery machinery.

Sec. 4.4 claims that "in all failure cases the system will continue to
make progress, either by completing the current round or restarting from
the results of the previously committed round."  This module turns that
claim into a *plane* of the simulation rather than a test fixture:

* :class:`FaultPlan` — a declarative, frozen description of what goes
  wrong: actor-crash schedules per server actor kind
  (:class:`ActorCrashSchedule`), message drop/delay on the device edge,
  which every message crosses (:class:`MessageFaultConfig`),
  checkpoint-store write failures (:class:`CheckpointFaultConfig`), and
  mid-session device interrupts (:class:`DeviceInterruptSchedule`) —
  plus the :class:`RetryPolicy` knobs for the recovery side.
* :class:`FaultPlane` — executes a plan against a live
  :class:`~repro.system.fleet.FLFleet`.  Every draw comes from pinned
  ``faults/...`` registry streams and every fault fires as a
  simulated-time event through the fleet's event loop, so the same seed
  and plan produce the same fault trajectory — and a byte-identical
  :class:`~repro.system.reports.RunReport`.  Because the plane's
  schedules and stream cursors live on the fleet object graph,
  ``fleet.snapshot()`` mid-chaos freezes the *remaining* fault schedule
  too: a restored fleet replays the tail byte-identically.
* :class:`RecoveryLedger` — mutable run-time accounting for all of the
  above and the recovery it provokes (crashes by kind, respawns,
  retries, drop/delay counts, and the simulated-time
  crash-to-next-commit recovery latency): one tally keyed by
  :class:`~repro.system.reports.RecoveryReport`'s own field names,
  surfaced as that report on ``RunReport`` and mirrored into
  ``faults/...`` / ``recovery/...`` dashboard counters.

Recovery itself is not here: a crashed server actor is restarted by the
layer that spawned it, through one kernel mechanism
(:class:`~repro.actors.kernel.Restart`, Sec. 4.4's "restarted by the
layer above") — the fleet restarts a Selector after
``SELECTOR_RESTART_DELAY_S``, the lifecycle plane a tenant's
Coordinator at once, a Coordinator its round's crashed master (the round
fails; a fresh one starts), a round's master its shard aggregators.

The lever is ``FLFleet.builder().faults(FaultPlan(...))`` and is off by
default; a fleet without a plan constructs no plane, installs no hooks,
and touches no ``faults/...`` stream — the disabled plane costs nothing
and leaves pre-existing trajectories byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.actors.kernel import ActorRef
from repro.bounds import (
    check,
    count,
    interval,
    nested,
    non_negative,
    positive,
    probability,
)
from repro.system.reports import RecoveryReport

if TYPE_CHECKING:
    from repro.system.fleet import FLFleet

#: Server actor kinds a crash schedule may target.  ``"aggregator"`` is
#: the leaf tier; ``"shard_aggregator"`` targets the aggregation tree's
#: middle tier, which every round has.
CRASH_KINDS = (
    "selector",
    "coordinator",
    "master_aggregator",
    "aggregator",
    "shard_aggregator",
)


# -- plan vocabulary ----------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential, jittered backoff.

    ``backoff_s(attempt, rng)`` is uniform in ``nominal * (1 ± jitter)``
    where ``nominal = base_backoff_s * multiplier ** attempt`` — one draw
    per backoff, from the caller's own stream (devices use their pinned
    ``device/<id>`` stream, so retry timing is per-device deterministic).
    """

    max_retries: int = count(0, default=2)
    base_backoff_s: float = positive(default=15.0)
    multiplier: float = interval("[1, inf)", default=2.0)
    jitter: float = interval("[0, 1)", default=0.5)

    __post_init__ = check

    def backoff_s(self, attempt: int, rng: np.random.Generator) -> float:
        nominal = self.base_backoff_s * self.multiplier ** attempt
        return float(nominal * (1.0 + self.jitter * (2.0 * rng.random() - 1.0)))


@dataclass(frozen=True)
class ActorCrashSchedule:
    """Crash one random live actor of ``kind`` at exponential intervals.

    Intervals are re-drawn on a fixed cadence from the kind's pinned
    ``faults/crash/<kind>`` stream whether or not a victim existed at the
    firing instant (a fixed cadence keeps the draw sequence independent
    of the fleet's momentary actor census).  An infinite
    ``mean_interval_s`` never fires; an infinite ``stop_s`` runs to the
    end.
    """

    kind: str
    mean_interval_s: float = interval("(0, inf]")
    start_s: float = non_negative(default=0.0)
    stop_s: float = math.inf
    max_crashes: int | None = count(1, default=None)

    def __post_init__(self) -> None:
        check(self)
        if self.kind not in CRASH_KINDS:
            raise ValueError(
                f"crash kind must be one of {CRASH_KINDS}, got {self.kind!r}"
            )
        if not self.stop_s > self.start_s:
            raise ValueError("stop_s must be greater than start_s")


@dataclass(frozen=True)
class MessageFaultConfig:
    """Drop/delay faults on device-edge messages at the ``tell`` boundary."""

    drop_prob: float = probability(default=0.0)
    delay_prob: float = probability(default=0.0)
    delay_mean_s: float = positive(default=1.0)

    __post_init__ = check

    @property
    def active(self) -> bool:
        return self.drop_prob > 0.0 or self.delay_prob > 0.0


@dataclass(frozen=True)
class CheckpointFaultConfig:
    """Per-attempt checkpoint-store write-failure probability."""

    write_failure_prob: float = probability(default=0.0)

    __post_init__ = check


@dataclass(frozen=True)
class DeviceInterruptSchedule:
    """Interrupt one random PARTICIPATING device at exponential intervals
    (the Sec. 3 "conditions no longer met" abort, forced by the plane);
    infinite intervals and stops as :class:`ActorCrashSchedule`'s."""

    mean_interval_s: float = interval("(0, inf]")
    start_s: float = non_negative(default=0.0)
    stop_s: float = math.inf
    max_interrupts: int | None = count(1, default=None)

    def __post_init__(self) -> None:
        check(self)
        if not self.stop_s > self.start_s:
            raise ValueError("stop_s must be greater than start_s")


@dataclass(frozen=True)
class FaultPlan:
    """Everything the fault plane injects, plus the recovery retry knobs.

    The retry policies live *here* rather than on ``FleetConfig`` so the
    off-by-default contract stays exact: a fleet built without
    ``.faults(...)`` runs the pre-existing no-retry paths byte-for-byte.
    ``FaultPlan()`` — all injection rates zero — is the minimal lever
    that turns on bounded-retry recovery without injecting anything.
    """

    crashes: tuple[ActorCrashSchedule, ...] = nested(default=())
    messages: MessageFaultConfig | None = nested(default=None)
    checkpoint: CheckpointFaultConfig | None = nested(default=None)
    device_interrupts: DeviceInterruptSchedule | None = nested(default=None)
    upload_retry: RetryPolicy | None = nested(default_factory=RetryPolicy)
    checkpoint_retry: RetryPolicy | None = nested(default_factory=RetryPolicy)

    __post_init__ = check


# -- the recovery ledger ------------------------------------------------------
#: Every counter the ledger tallies, by its :class:`RecoveryReport` field,
#: and the dashboard counter that mirrors it (``faults/...``: injections;
#: ``recovery/...``: the machinery's responses).
LEDGER_COUNTERS = {
    "messages_dropped": "faults/messages_dropped",
    "messages_delayed": "faults/messages_delayed",
    "device_interrupts": "faults/device_interrupts",
    "checkpoint_write_faults": "faults/checkpoint_writes",
    "selector_respawns": "recovery/selector_respawns",
    "coordinator_respawns": "recovery/coordinator_respawns",
    # A crashed shard aggregator was replaced mid-round (the node is
    # stateless between folds — its leaves hold the reports — so the
    # replacement recovers the shard's fold completely).
    "shard_aggregator_respawns": "recovery/shard_aggregator_respawns",
    # A shard aggregator was still down when its round folded: that
    # shard's partial is lost for the round (the other shards commit
    # normally — the tree's failure isolation).
    "shard_fold_aborts": "recovery/shard_fold_aborts",
    "checkpoint_write_retries": "recovery/checkpoint_write_retries",
    "rounds_abandoned_on_commit": "recovery/rounds_abandoned_on_commit",
}


class RecoveryLedger:
    """Mutable fault/recovery accounting for one fleet run.

    :meth:`record` bumps one :data:`LEDGER_COUNTERS` tally and its mirror
    on the fleet dashboard (a misspelt counter is a ``KeyError``, not a
    new series); :meth:`build_report` freezes the state into the typed
    :class:`~repro.system.reports.RecoveryReport`.

    Recovery latency is measured crash-to-next-commit in simulated time:
    each injected crash is pending until the first round committed at or
    after it (Sec. 4.4's progress guarantee, quantified).
    """

    def __init__(self, dashboard=None):
        self.dashboard = dashboard
        self.tally: dict[str, int] = dict.fromkeys(LEDGER_COUNTERS, 0)
        self.crash_counts: dict[str, int] = {}
        self.pending_crash_times: list[float] = []
        self.recovery_latencies_s: list[float] = []

    def _bump(self, counter: str) -> None:
        if self.dashboard is not None:
            self.dashboard.increment(counter)

    def record(self, field: str) -> None:
        self.tally[field] += 1
        self._bump(LEDGER_COUNTERS[field])

    def record_crash(self, kind: str, now_s: float) -> None:
        self.crash_counts[kind] = self.crash_counts.get(kind, 0) + 1
        self.pending_crash_times.append(now_s)
        self._bump(f"faults/crash/{kind}")

    def record_commit(self, now_s: float) -> None:
        """A round committed: every pending crash is recovered from."""
        if not self.pending_crash_times:
            return
        for crash_t in self.pending_crash_times:
            self.recovery_latencies_s.append(now_s - crash_t)
            self._bump("recovery/recoveries")
        self.pending_crash_times.clear()

    # -- reporting ------------------------------------------------------------
    def build_report(
        self,
        rounds_total: int,
        rounds_committed: int,
        upload_retries: int,
        upload_retries_exhausted: int,
    ) -> RecoveryReport:
        latencies = self.recovery_latencies_s
        return RecoveryReport(
            faults_by_kind={
                kind: self.crash_counts[kind]
                for kind in sorted(self.crash_counts)
            },
            upload_retries=upload_retries,
            upload_retries_exhausted=upload_retries_exhausted,
            rounds_failed=rounds_total - rounds_committed,
            rounds_committed=rounds_committed,
            recoveries=len(latencies),
            mean_recovery_latency_s=(
                sum(latencies) / len(latencies) if latencies else 0.0
            ),
            max_recovery_latency_s=max(latencies) if latencies else 0.0,
            **self.tally,
        )


# -- the injection plane ------------------------------------------------------
class FaultPlane:
    """Executes a :class:`FaultPlan` against a live fleet.

    Everything is a simulated-time event on the fleet's loop, and every
    draw comes from a pinned ``faults/...`` registry stream, so the
    plane is a first-class citizen of the determinism and
    snapshot/restore contracts: pending fault events and stream cursors
    pickle with the fleet, and the remaining schedule resumes
    byte-identically.
    """

    def __init__(self, fleet: "FLFleet", plan: FaultPlan):
        self.fleet = fleet
        self.plan = plan
        self.ledger = fleet.recovery
        #: Injected crashes per schedule index (for ``max_crashes`` caps).
        self.crash_counts: dict[int, int] = {}
        self.interrupts_fired = 0
        self._started = False

    def start(self) -> None:
        """Install hooks and arm the schedules (idempotent)."""
        if self._started:
            return
        self._started = True
        if self.plan.messages is not None and self.plan.messages.active:
            self.fleet.actors.message_faults = self._message_fault
            if self.plan.messages.drop_prob > 0.0:
                self.fleet.idle_plane.checkin_fault = self._checkins_lost
        if (
            self.plan.checkpoint is not None
            and self.plan.checkpoint.write_failure_prob > 0.0
        ):
            self.fleet.store.write_fault = self._checkpoint_write_fails
        for index in range(len(self.plan.crashes)):
            self._arm_crash(index)
        if self.plan.device_interrupts is not None:
            self._arm_interrupt()

    # -- crash schedules ---------------------------------------------------------
    def _crash_rng(self, kind: str) -> np.random.Generator:
        return self.fleet.rngs.stream(f"faults/crash/{kind}")

    def _arm_crash(self, index: int) -> None:
        schedule = self.plan.crashes[index]
        count = self.crash_counts.get(index, 0)
        if schedule.max_crashes is not None and count >= schedule.max_crashes:
            return
        now = self.fleet.loop.now
        delay = float(
            self._crash_rng(schedule.kind).exponential(schedule.mean_interval_s)
        )
        at = max(now, schedule.start_s) + delay
        if at > schedule.stop_s:
            return
        self.fleet.loop.schedule(at - now, self._fire_crash, index)

    def _fire_crash(self, index: int) -> None:
        schedule = self.plan.crashes[index]
        victims = self._victims(schedule.kind)
        if victims:
            # The victim index is drawn only when victims exist, so quiet
            # stretches (no live master, say) consume no draws beyond the
            # fixed re-arm cadence.
            rng = self._crash_rng(schedule.kind)
            victim = victims[int(rng.integers(len(victims)))]
            self.crash_counts[index] = self.crash_counts.get(index, 0) + 1
            self.ledger.record_crash(schedule.kind, self.fleet.loop.now)
            self.fleet.actors.crash(victim)
        self._arm_crash(index)

    def _victims(self, kind: str) -> list[ActorRef]:
        """Live candidates of ``kind``, in a deterministic order (fleet
        selector order; population attach order for the round pipeline)."""
        fleet = self.fleet
        if kind == "selector":
            return [ref for ref in fleet.selectors if ref.alive]
        lifecycle = fleet.lifecycle
        live = map(lifecycle._coordinator_actor, lifecycle.active.values())
        coordinators = [coordinator for coordinator in live if coordinator is not None]
        if kind == "coordinator":
            return [coordinator.ref for coordinator in coordinators]
        masters = [
            master
            for coordinator in coordinators
            if coordinator.active_master is not None
            and (master := fleet.actors.actor_of(coordinator.active_master)) is not None
        ]
        if kind == "master_aggregator":
            return [master.ref for master in masters]
        tier = "shard_aggregators" if kind == "shard_aggregator" else "aggregators"
        return [ref for master in masters for ref in getattr(master, tier) if ref.alive]

    # -- device interrupts -------------------------------------------------------
    def _interrupt_rng(self) -> np.random.Generator:
        return self.fleet.rngs.stream("faults/device_interrupt")

    def _arm_interrupt(self) -> None:
        schedule = self.plan.device_interrupts
        assert schedule is not None
        if (
            schedule.max_interrupts is not None
            and self.interrupts_fired >= schedule.max_interrupts
        ):
            return
        now = self.fleet.loop.now
        delay = float(
            self._interrupt_rng().exponential(schedule.mean_interval_s)
        )
        at = max(now, schedule.start_s) + delay
        if at > schedule.stop_s:
            return
        self.fleet.loop.schedule(at - now, self._fire_interrupt)

    def _fire_interrupt(self) -> None:
        # The plane's participating rows (index order).
        victims = self.fleet.idle_plane.participating_devices()
        if victims:
            rng = self._interrupt_rng()
            victim = victims[int(rng.integers(len(victims)))]
            self.interrupts_fired += 1
            self.ledger.record("device_interrupts")
            victim.interrupt_session("fault_injected")
        self._arm_interrupt()

    # -- message faults ----------------------------------------------------------
    def _message_fault(self, target: ActorRef, message: Any) -> float | None:
        """The ``ActorSystem.tell`` hook: ``None`` drops, else extra delay.

        Every message crosses the device<->server edge — the paper's
        actually-flaky link (cellular/WiFi gRPC streams).  Server actors
        call each other, as reliable intra-datacenter RPC whose failure
        mode is *actor crashes*, never silent loss.  A check-in is no
        message (the idle plane's columns): its drop is drawn by the
        plane's ``checkin_fault`` hook, on the same stream."""
        config = self.plan.messages
        rng = self.fleet.rngs.stream("faults/messages")
        if config.drop_prob > 0.0 and float(rng.random()) < config.drop_prob:
            self.ledger.record("messages_dropped")
            return None
        if config.delay_prob > 0.0 and float(rng.random()) < config.delay_prob:
            self.ledger.record("messages_delayed")
            return float(rng.exponential(config.delay_mean_s))
        return 0.0

    def _checkins_lost(self, count: int) -> np.ndarray:
        """The idle plane's ``checkin_fault`` hook: which of ``count``
        admitted check-ins are lost on the way (one draw each)."""
        lost = self.fleet.rngs.stream("faults/messages").random(count) < (
            self.plan.messages.drop_prob
        )
        for _ in range(int(np.count_nonzero(lost))):
            self.ledger.record("messages_dropped")
        return lost

    # -- checkpoint faults -------------------------------------------------------
    def _checkpoint_write_fails(self) -> bool:
        """The ``CheckpointStore.write_fault`` hook, one draw per attempt."""
        config = self.plan.checkpoint
        rng = self.fleet.rngs.stream("faults/checkpoint")
        if float(rng.random()) < config.write_failure_prob:
            self.ledger.record("checkpoint_write_faults")
            return True
        return False
