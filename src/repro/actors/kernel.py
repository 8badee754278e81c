"""Actor kernel: mailboxes, supervision, and failure injection.

Each actor handles its mailbox strictly sequentially (Sec. 4.1).  On a
single-threaded event loop that ordering is natural: every delivery is an
event, and events for one actor fire in schedule order.  Messages cross
the device edge only; inside the datacenter an actor calls the live
actor it addresses (:meth:`ActorSystem.actor_of`), skipping a dead one.
Crashing an actor drops its mailbox and releases its locks — the
substrate for the failure-mode experiments.

Supervision is one mechanism (Sec. 4.4's "restarted by the layer above"):
whoever spawns an actor may hand :meth:`ActorSystem.spawn` a
:class:`Restart` — a delay and a ``respawn(dead_ref)`` callable.  A crash
schedules it; a graceful stop drops it, and a restart whose owner has
died by then does not fire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro.sim.event_loop import EventLoop


@dataclass(frozen=True)
class Restart:
    """How a crashed actor comes back: ``respawn(dead_ref)`` runs
    ``delay_s`` after the crash, unless ``owner`` (the spawning actor, if
    any) has died by then.  ``respawn`` must pickle (a bound method or a
    partial of one) so a pending restart survives a snapshot."""

    delay_s: float
    respawn: Callable[["ActorRef"], Any]
    owner: Optional["ActorRef"] = None


class ActorRef:
    """Handle used to address an actor; stable across the actor's life."""

    __slots__ = ("actor_id", "name", "_system")

    def __init__(self, actor_id: int, name: str, system: "ActorSystem"):
        self.actor_id = actor_id
        self.name = name
        self._system = system

    @property
    def alive(self) -> bool:
        return self._system.is_alive(self)

    def __repr__(self) -> str:
        return f"ActorRef({self.name}#{self.actor_id})"

    def __hash__(self) -> int:
        return hash(self.actor_id)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ActorRef) and other.actor_id == self.actor_id


class Actor:
    """Base class.  Subclasses implement :meth:`receive`.

    The kernel injects ``self.system``, ``self.ref`` and ``self.loop``
    before :meth:`on_start` runs.
    """

    # So that a subclass with slots of its own (the device, the one actor
    # a fleet has by the thousand) carries no instance dict.
    __slots__ = ("system", "ref", "loop")

    system: "ActorSystem"
    ref: ActorRef
    loop: EventLoop

    def on_start(self) -> None:
        """Hook: runs once after spawn."""

    def on_stop(self, crashed: bool) -> None:
        """Hook: runs when the actor terminates (graceful or crash)."""

    def receive(self, sender: Optional[ActorRef], message: Any) -> None:
        raise NotImplementedError

    # Convenience wrappers -----------------------------------------------------
    def tell(self, target: ActorRef, message: Any, delay: float = 0.0) -> None:
        self.system.tell(target, message, sender=self.ref, extra_delay=delay)

    def _run_if_alive(self, fn: Callable[..., Any], *args: Any) -> None:
        """Guard for scheduled work (a bound method rather than a closure,
        so pending events survive a fleet snapshot's pickling)."""
        if self.system.is_alive(self.ref):
            fn(*args)

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any):
        """Schedule work for this actor; silently dropped if it died."""
        return self.loop.schedule(delay, self._run_if_alive, fn, *args)

    @property
    def now(self) -> float:
        return self.loop.now


class ActorSystem:
    """Spawns actors, routes messages, injects failures.

    Every message crosses the device edge (configuration, report, drop,
    ack).  Its delivery latency is small, random, and drawn from the
    dedicated ``actors/latency`` stream so the rest of the simulation is
    unaffected by actor-count changes.
    """

    def __init__(
        self,
        loop: EventLoop,
        rng: np.random.Generator,
        mean_latency_s: float = 0.002,
    ):
        self.loop = loop
        self.rng = rng
        self.mean_latency_s = mean_latency_s
        self._actors: dict[int, Actor] = {}
        self._next_id = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.crashes_injected = 0
        self._lock_release_hooks: list[Callable[[ActorRef], None]] = []
        #: actor id -> its restart, for actors spawned with one.
        self._restarts: dict[int, Restart] = {}
        #: Fault hook (the fault plane installs one): (target, message) ->
        #: extra delay seconds, or ``None`` to drop the message outright.
        #: ``None`` here = no fault plane; :meth:`tell` stays a single
        #: attribute check on the disabled path.
        self.message_faults = None
        #: For a message to an absent actor: one built to take it, or ``None``.
        self.absent = None

    # -- lifecycle ------------------------------------------------------------
    def reserve_ids(self, count: int) -> int:
        """Set aside ``count`` consecutive actor ids (returns the first) for
        actors spawned later that must be addressed as if spawned now:
        respawns are named after ids."""
        first = self._next_id
        self._next_id += count
        return first

    def spawn(
        self,
        actor: Actor,
        name: str,
        actor_id: int | None = None,
        restart: Restart | None = None,
    ) -> ActorRef:
        """Start ``actor`` as ``name``; with a ``restart``, a crash brings
        it back (see :class:`Restart`)."""
        if actor_id is None:
            actor_id = self.reserve_ids(1)
        ref = ActorRef(actor_id, name, self)
        actor.system = self
        actor.ref = ref
        actor.loop = self.loop
        self._actors[ref.actor_id] = actor
        if restart is not None:
            self._restarts[actor_id] = restart
        actor.on_start()
        return ref

    def is_alive(self, ref: ActorRef) -> bool:
        return ref.actor_id in self._actors

    def actor_of(self, ref: ActorRef) -> Actor | None:
        return self._actors.get(ref.actor_id)

    def stop(self, ref: ActorRef) -> None:
        """Graceful termination."""
        self._terminate(ref, crashed=False)

    def crash(self, ref: ActorRef) -> None:
        """Failure injection: abrupt death, mailbox dropped."""
        if self.is_alive(ref):
            self.crashes_injected += 1
        self._terminate(ref, crashed=True)

    def _terminate(self, ref: ActorRef, crashed: bool) -> None:
        actor = self._actors.pop(ref.actor_id, None)
        if actor is None:
            return
        for hook in self._lock_release_hooks:
            hook(ref)
        actor.on_stop(crashed)
        restart = self._restarts.pop(ref.actor_id, None)
        if crashed and restart is not None:
            self.loop.schedule(restart.delay_s, self._restart, restart, ref)

    # -- supervision ------------------------------------------------------------
    def _restart(self, restart: Restart, dead_ref: ActorRef) -> None:
        if restart.owner is None or self.is_alive(restart.owner):
            restart.respawn(dead_ref)

    def on_actor_terminated(self, hook: Callable[[ActorRef], None]) -> None:
        """Register a hook run at every termination (lock auto-release)."""
        self._lock_release_hooks.append(hook)

    # -- messaging ------------------------------------------------------------
    def tell(
        self,
        target: ActorRef,
        message: Any,
        sender: Optional[ActorRef] = None,
        extra_delay: float = 0.0,
    ) -> None:
        if self.message_faults is not None:
            # Fault verdict before the latency draw: a dropped message
            # consumes no latency draw, consistently, so fault-plane runs
            # stay deterministic under identical plans.
            verdict = self.message_faults(target, message)
            if verdict is None:
                return
            extra_delay += verdict
        latency = float(self.rng.exponential(self.mean_latency_s)) + extra_delay
        self.loop.schedule(latency, self._deliver, target, sender, message)

    def _deliver(
        self, target: ActorRef, sender: Optional[ActorRef], message: Any
    ) -> None:
        actor = self._actors.get(target.actor_id)
        if actor is None and self.absent is not None:
            actor = self.absent(target, message)
        if actor is None:
            self.messages_dropped += 1
            return
        self.messages_delivered += 1
        actor.receive(sender, message)

    # -- introspection ------------------------------------------------------------
    def living_actors(self) -> list[ActorRef]:
        return [a.ref for a in self._actors.values()]
