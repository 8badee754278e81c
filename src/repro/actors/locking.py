"""Shared locking service (Sec. 4.2, 4.4).

"A Coordinator registers its address and the FL population it manages in a
shared locking service, so there is always a single owner for every FL
population."  And on Coordinator death: "Because the Coordinators are
registered in a shared locking service, this [respawn] will happen exactly
once."

The service maps lock keys to owning actor refs; locks are auto-released
when the owning actor terminates (the kernel invokes :meth:`release_all`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.actors.kernel import ActorRef


@dataclass
class LockService:
    """A linearizable in-memory lock table."""

    _locks: dict[str, ActorRef] = field(default_factory=dict)
    #: Ids of the actors that took a lock since they last released all.
    _holders: set[int] = field(default_factory=set)
    acquire_attempts: int = 0
    acquire_successes: int = 0

    def acquire(self, key: str, owner: ActorRef) -> bool:
        """Try to take ``key``; idempotent for the current owner."""
        self.acquire_attempts += 1
        holder = self._locks.get(key)
        if holder is None or holder == owner:
            self._locks[key] = owner
            self._holders.add(owner.actor_id)
            self.acquire_successes += 1
            return True
        return False

    def owner_of(self, key: str) -> ActorRef | None:
        return self._locks.get(key)

    def release(self, key: str, owner: ActorRef) -> bool:
        if self._locks.get(key) == owner:
            del self._locks[key]
            return True
        return False

    def release_all(self, owner: ActorRef) -> None:
        """Drop every lock held by a terminated actor."""
        if owner.actor_id not in self._holders:
            return
        self._holders.discard(owner.actor_id)
        for key in [k for k, v in self._locks.items() if v == owner]:
            del self._locks[key]
