"""Coordinator actor (Sec. 4.2): global per-population synchronization.

One Coordinator owns each FL population (ownership is registered in the
shared locking service).  It schedules FL tasks, spawns a Master
Aggregator per round, and instructs the Selectors how many devices to
forward — calls on the live Selectors of its shard, like the master's
:meth:`Coordinator.round_finished` to it when the round is over.  It
spawns each master with a kernel :class:`~repro.actors.kernel.Restart`:
a crashed master's round fails and the Coordinator restarts it (Sec.
4.4).  If the Coordinator itself crashes, the layer that spawned it —
the tenant's lifecycle plane — respawns it at once, exactly once; a
replacement recovers its round counter from the checkpoint store, so
commits stay monotonic.

How a round is wired is not its business: ``make_master(round_id=,
task=, coordinator=)`` builds each round's master (the lifecycle plane
binds the rest).  Its Selectors are its shard's indices into the fleet's
one live list, so a Selector respawn reaches it without being told.

Rounds start only on its tick grid, but a tick is scheduled only at an
instant a round can start (:meth:`Coordinator._arm_tick`): its cost
follows rounds, not simulated seconds.  Nothing polls: the one gate time
cannot date — enough devices waiting — is dated by the Selectors, whose
admissions wake it (:meth:`Coordinator.devices_waiting`).

The round lifecycle is identical under both training planes: the cohort
execution plane only changes *how* admitted devices' local SGD executes
numerically (batched, on demand), never *when* simulated events fire —
each device still reports at its own network/compute-sampled completion
time, so selection gates, pacing, straggler discard, and the
accept/reject state machine behave byte-for-byte the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.actors.kernel import Actor, ActorRef, Restart
from repro.actors.locking import LockService
from repro.actors.selector import Forwarding, RoundStart, Selector
from repro.bounds import check, non_negative, positive
from repro.core.checkpoint import CheckpointStore
from repro.core.task import TaskScheduler


@dataclass(frozen=True)
class CoordinatorConfig:
    """Round-scheduling policy."""

    tick_interval_s: float = positive(default=10.0)
    #: True: no gap, and a round's end tries to start the next round at
    #: once; False: ``inter_round_gap_s`` between rounds.  Sec. 4.3's
    #: overlap is not modelled yet (a forwarding Selector bounces what its
    #: round cannot take, so the pool is empty at a round's end), and True
    #: runs as False with a zero gap (ROADMAP.md, "Sec. 4.3 pipelining,
    #: for real").
    pipelining: bool = True
    inter_round_gap_s: float = non_negative(default=60.0)

    __post_init__ = check


class Coordinator(Actor):
    """Top-level actor for one FL population.

    It holds at most one pending tick, armed when a round can start at
    it: after start-up, a round's end, a crashed master — and when its
    Selectors admit devices while none is pending.
    """

    def __init__(
        self,
        population_name: str,
        scheduler: TaskScheduler,
        fleet_selectors: list[ActorRef],
        selector_indices: tuple[int, ...],
        locks: LockService,
        store: CheckpointStore,
        make_master: Callable[..., Actor],
        config: CoordinatorConfig | None = None,
        round_id_base: int = 0,
    ):
        self.population_name = population_name
        self.scheduler = scheduler
        #: The fleet's live Selector list (shared, never copied) and the
        #: indices of this population's owning shard in it (every index
        #: on an unsharded fleet).
        self.fleet_selectors = fleet_selectors
        self.selector_indices = selector_indices
        self.locks = locks
        self.store = store
        self.make_master = make_master
        self.config = config or CoordinatorConfig()
        #: Populations hosted on one fleet get disjoint round-id ranges so
        #: (device, round) session keys never collide across populations.
        self.round_id_base = round_id_base
        self.round_counter = round_id_base
        self.active_master: ActorRef | None = None
        self.active_round_id: int | None = None
        self.last_round_ended_at_s: float | None = None
        self.rounds_finished = 0
        self.rounds_committed = 0
        #: Set by the fleet's population lifecycle plane when this tenant
        #: begins draining: no new round may start; the active round (if
        #: any) runs to its own completion or timeout.
        self.draining = False
        #: Rounds start only on the grid ``origin + k * tick_interval_s``
        #: (see :meth:`_arm_tick`); the origin is this incarnation's start.
        self._tick_origin_s = 0.0
        #: A tick is on the heap (set when one is scheduled, cleared when
        #: it fires).
        self._tick_pending = False

    @property
    def selectors(self) -> list[ActorRef]:
        """The owning shard's Selectors, in index order, as the fleet's
        live list holds them now."""
        fleet_selectors = self.fleet_selectors
        return [fleet_selectors[i] for i in self.selector_indices]

    def _live_selectors(self) -> list[Selector]:
        """The owning shard's live Selectors, in index order: a call skips
        a dead one, as a message to it would have been dropped."""
        actor_of = self.system.actor_of
        return [s for ref in self.selectors if (s := actor_of(ref)) is not None]

    # -- lifecycle -----------------------------------------------------------
    def on_start(self) -> None:
        # Single-owner registration (Sec. 4.2).
        if not self.locks.acquire(f"coordinator/{self.population_name}", self.ref):
            self.system.stop(self.ref)
            return
        # A respawned coordinator recovers its round counter from the
        # last committed checkpoint (the tenant's attach wrote round 0's).
        self.round_counter = max(
            self.round_id_base,
            self.store.latest(self.population_name).round_number,
        )
        self._tick_origin_s = self.now
        self._arm_tick()

    def on_stop(self, crashed: bool) -> None:
        # Its round's Selectors stop forwarding to it: a replacement
        # starts over from the last checkpoint.
        self._clear_forwarding()

    # -- round scheduling -----------------------------------------------------------
    def devices_waiting(self) -> None:
        """A Selector admitted devices for this tenant (the Sec. 4.2
        report of how many are connected, pushed): arm a tick if the
        pool now suffices and none is pending."""
        if not self._tick_pending:
            self._arm_tick()

    def _tick(self) -> None:
        self._tick_pending = False
        self._maybe_start_round()

    def _arm_tick(self) -> None:
        """Schedule a tick at the first grid instant at which
        :meth:`_maybe_start_round` passes its time gates — when the pool
        suffices now and nothing else blocks a round.

        Called, with no tick pending, after every change that can enable
        a round: start-up (a Sec. 4.4 respawn included), a round's end, a
        crashed master, a Selector admitting devices.  A round's start
        arms nothing, and a tick that finds the pool short again (devices
        hung up) waits for the next admission.  The gap is slept through
        in one event.
        """
        if self._blocked() or self._connected_total() < self._start_threshold():
            return
        origin, tick = self._tick_origin_s, self.config.tick_interval_s
        # At or after now and not before the gap is over.
        earliest = max(self.now, self._gap_ends_at_s())
        # Closed form; the quotient's rounding can be off by one either way.
        k = math.ceil((earliest - origin) / tick)
        if origin + (k - 1) * tick >= earliest:
            k -= 1
        elif origin + k * tick < earliest:
            k += 1
        self._tick_pending = True
        self.loop.schedule_at(origin + k * tick, self._run_if_alive, self._tick)

    def _blocked(self) -> bool:
        """No round may start until something other than time changes."""
        return self.draining or self.active_master is not None

    def _gap_ends_at_s(self) -> float:
        """When the explicit selection gap after the last round is over."""
        if self.config.pipelining or self.last_round_ended_at_s is None:
            return -math.inf
        return self.last_round_ended_at_s + self.config.inter_round_gap_s

    def _connected_total(self) -> int:
        """The owning shard's pool sizes, summed (the Sec. 4.2 'how many
        devices are connected to each Selector' report, read as a cheap
        RPC when a tick is armed and when it fires)."""
        name = self.population_name
        return sum(s.connected_count_for(name) for s in self._live_selectors())

    def _start_threshold(self) -> int:
        """Devices that must be waiting before a round is scheduled.

        Appendix A: "the FL server schedules an FL task for execution only
        once a desired number of devices are available and selected" —
        this gate is what couples round completion rate to the diurnal
        availability curve (Figs. 5/6).
        """
        return self.scheduler.population.selection_goal

    def _maybe_start_round(self) -> None:
        if self._blocked() or self.now < self._gap_ends_at_s():
            return
        if self._connected_total() < self._start_threshold():
            return  # wait for enough devices (diurnal availability gate)
        task = self.scheduler.next_task()
        task.rounds_started += 1
        self.round_counter += 1
        round_id = self.round_counter
        master = self.make_master(
            round_id=round_id, task=task.config, coordinator=self.ref
        )
        master_ref = self.system.spawn(
            master,
            f"master/{self.population_name}/{round_id}",
            restart=Restart(0.0, self._master_crashed, owner=self.ref),
        )
        self.active_master = master_ref
        self.active_round_id = round_id
        instruction = Forwarding(
            round_id=round_id,
            task_id=task.task_id,
            count=task.config.round_config.selection_goal,
            master=master_ref,
            population_name=self.population_name,
        )
        live = self._live_selectors()
        if live:
            live[0].receive(self.ref, RoundStart(instruction, tuple(live)))

    # -- round end -------------------------------------------------------------
    def round_finished(self, round_id: int, task_id: str, committed: bool) -> None:
        """Its master's last call (step 6 of Fig. 1 done or abandoned),
        made once the master, its leaves and its shard nodes are stopped.
        With pipelining the next round may start inside this call; today
        the pool is empty by then, so it starts on a later tick."""
        if round_id != self.active_round_id:
            return  # a master of a round this incarnation no longer runs
        self._end_round()
        self.rounds_finished += 1
        if committed:
            self.rounds_committed += 1
            try:
                task = self.scheduler.population.task(task_id)
                task.rounds_committed += 1
            except KeyError:
                pass
        if self.config.pipelining:
            self._maybe_start_round()
        self._arm_tick()

    def _master_crashed(self, dead_ref: ActorRef) -> None:
        """The kernel's restart of a crashed master, at the crash instant
        (Sec. 4.4): its round fails, and a fresh one starts on the tick
        armed here."""
        if dead_ref != self.active_master:
            return
        self._end_round()
        self._arm_tick()

    def _end_round(self) -> None:
        self._clear_forwarding()
        self.active_master = None
        self.active_round_id = None
        self.last_round_ended_at_s = self.now

    def _clear_forwarding(self) -> None:
        for selector in self._live_selectors():
            selector.clear_forwarding(self.population_name, self.active_round_id)
