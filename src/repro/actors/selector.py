"""Selector actor (Sec. 4.2): accepts and forwards device connections.

Selectors are the globally distributed edge of the server: they hold the
open device streams, make local accept/reject decisions from soft quotas,
forward accepted devices to the round's Aggregators, and hand rejected
devices a pace-steering window (Sec. 2.3).  Selection runs *continuously*,
which is exactly what makes the pipelining of Sec. 4.3 free: while one
round is reporting, newly checked-in devices are already pooling here for
the next one.

One Selector serves *many* FL populations at once (Sec. 2's multi-tenant
fleet): each check-in names a population, and the Selector keeps one
:class:`PopulationRoute` — pool, standing forwarding instruction,
Coordinator link, pace steering, quotas, and counters — per hosted
population.

A check-in is judged once.  The idle plane's sweep asks
:meth:`Selector.fast_checkin_decision` for one verdict per (selector,
tenant) group — draining, the row's cached attestation verdict, plan
compatibility, quota — and each admitted row reserves a pool slot
(``pending_admissions``).  The ``DeviceCheckin`` that follows only
releases its reservation and joins the pool; the one thing it can still
meet is a drain that began while it was in flight.

Selectors also watch each population's Coordinator and — arbitrated by
the shared lock service — respawn it exactly once if it dies (Sec. 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable, Optional

import numpy as np

from repro.actors.kernel import Actor, ActorRef, DeathNotice
from repro.actors.locking import LockService
from repro.actors import messages as msg
from repro.core.pace import PaceSteering
from repro.core.rounds import CheckinDecision


@dataclass
class SelectorStats:
    """Counters for analytics dashboards (Sec. 5, server side)."""

    checkins: int = 0
    accepted: int = 0
    rejected_quota: int = 0
    rejected_attestation: int = 0
    rejected_incompatible: int = 0
    rejected_unknown_population: int = 0
    rejected_draining: int = 0
    forwarded: int = 0
    disconnects: int = 0

    def __iadd__(self, other: "SelectorStats") -> "SelectorStats":
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self


@dataclass
class _ConnectedDevice:
    device_id: int
    ref: ActorRef
    runtime_version: int
    connected_at_s: float


@dataclass
class PopulationRoute:
    """One hosted population's routing state inside a Selector.

    ``plans`` exposes ``plan_for_runtime(version)`` / ``plan_for_task``;
    ``coordinator_factory`` builds a replacement Coordinator for the
    Sec. 4.4 respawn path.
    """

    population_name: str
    pace: PaceSteering
    plans: Any
    population_size: int
    pool_cap: int = 1000
    coordinator_factory: Callable[[], Actor] | None = None
    coordinator: ActorRef | None = None
    pool: dict[int, _ConnectedDevice] = field(default_factory=dict)
    forwarding: msg.ForwardDevices | None = None
    stats: SelectorStats = field(default_factory=SelectorStats)
    #: Memoized pace window for the current instant: a batched sweep can
    #: reject dozens of devices at one timestamp, and the suggestion only
    #: depends on (now, demand) — each device still samples its own
    #: reconnect time inside the shared window.
    window_cache: tuple[float, int, Any] | None = None
    #: Screen-admitted devices whose check-in message is still in flight.
    #: Counted against the pool quota so one batched sweep cannot admit a
    #: whole cohort into the last free slot.
    pending_admissions: int = 0
    #: Cached ``runtime_version -> has compatible plan`` verdicts (the
    #: plan directory is immutable after deployment).
    plan_compat: dict[int, bool] = field(default_factory=dict)
    #: The population is being drained from the fleet: admission is
    #: closed (new check-ins bounce with a pace window) while in-flight
    #: rounds wind down; the route is removed once the tenant retires.
    draining: bool = False


class Selector(Actor):
    """One selector; production runs many, spread geographically.

    Shared pieces (locks, checkpoint store) are fleet-wide; everything
    population-specific lives in :attr:`routes`.
    """

    def __init__(
        self,
        locks: LockService,
        checkpoint_store: Any,         # exposes latest(population)
        rng: np.random.Generator,
        recovery: Any = None,          # fleet RecoveryLedger, if any
    ):
        self.locks = locks
        self.store = checkpoint_store
        self.rng = rng
        self.recovery = recovery
        self.routes: dict[str, PopulationRoute] = {}

    # -- population registry ---------------------------------------------------
    def add_route(self, route: PopulationRoute) -> None:
        if route.population_name in self.routes:
            raise ValueError(
                f"population {route.population_name!r} already routed"
            )
        self.routes[route.population_name] = route

    def route_of(self, population_name: str) -> PopulationRoute:
        return self.routes[population_name]

    def begin_drain(self, population_name: str) -> None:
        """Close admission for a draining population (lifecycle phase 1):
        stop offering pooled devices to its rounds, bounce the pool, and
        reject every subsequent check-in with a pace window.  Devices
        already forwarded to the in-flight round are untouched."""
        route = self.routes.get(population_name)
        if route is None:
            return
        route.draining = True
        route.forwarding = None
        self._flush_pool(route, "draining")

    def remove_route(self, population_name: str) -> PopulationRoute | None:
        """Retire a drained population's route entirely.

        Any device still pooled (a check-in that raced the drain) has its
        stream reset so it retries — by which point its membership is gone
        and it will never announce this population again.
        """
        route = self.routes.pop(population_name, None)
        if route is None:
            return None
        if route.coordinator is not None:
            self.system.unwatch(self.ref, route.coordinator)
        for device in route.pool.values():
            self.tell(device.ref, msg.ConnectionReset())
        route.pool.clear()
        return route

    # -- lifecycle --------------------------------------------------------------
    def on_stop(self, crashed: bool) -> None:
        # A dying selector's open device streams break: notify the pooled
        # devices so they retry elsewhere (Sec. 4.4: "only the devices
        # connected to that actor will be lost" — lost from this round,
        # not forever).
        for route in self.routes.values():
            for device in route.pool.values():
                self.system.tell(device.ref, msg.ConnectionReset())
            route.pool.clear()

    # -- helpers ----------------------------------------------------------------
    def connected_count_for(self, population_name: str) -> int:
        route = self.routes.get(population_name)
        return len(route.pool) if route is not None else 0

    @property
    def stats(self) -> SelectorStats:
        """Aggregate counters across routes (legacy single-tenant view)."""
        total = SelectorStats()
        for route in self.routes.values():
            total += route.stats
        return total

    def _suggest_window(self, route: PopulationRoute):
        needed = route.forwarding.count if route.forwarding is not None else 100
        cached = route.window_cache
        if cached is not None and cached[0] == self.now and cached[1] == needed:
            return cached[2]
        window = route.pace.suggest_reconnect(
            now_s=self.now,
            population_size=route.population_size,
            needed_per_round=needed,
        )
        route.window_cache = (self.now, needed, window)
        return window

    def _reject(
        self, route: PopulationRoute, device_ref: ActorRef, reason: str
    ) -> None:
        window = self._suggest_window(route)
        self.tell(device_ref, msg.CheckinRejected(window=window, reason=reason))

    def checkin_lost(self, population_name: str) -> None:
        """A screen-admitted check-in message was lost in flight (fault
        plane): release the pool-quota slot its admission reserved."""
        route = self.routes.get(population_name)
        if route is not None and route.pending_admissions > 0:
            route.pending_admissions -= 1

    # -- vectorized-plane fast path ------------------------------------------------
    def fast_checkin_decision(
        self,
        population_name: str,
        attestation_ok: list[bool],
        runtime_versions: list[int],
    ):
        """Screen one sweep's check-ins for one population, synchronously,
        for the vectorized idle plane: one verdict for the whole group —
        the Selector's admission policy, and its only one.

        The group arrives in device-index order as parallel lists — each
        row's attestation verdict (cached in the plane at enrollment) and
        its FL runtime version.  Returns ``(admitted, window)``: the
        positions that should *materialize* — open a real stream, each
        holding a pool slot reserved here — and the pace window every
        other row bounces with (``None`` when none does).  Bounced rows
        are counted here, by reason; admitted ones by their check-in
        message, so nothing is double-counted.
        """
        count = len(attestation_ok)
        route = self.routes.get(population_name)
        if route is None:
            if not self.routes:
                # Nothing hosted: the message path silently drops the
                # check-in, so let the devices materialize into that fate.
                return range(count), None
            fallback = next(iter(self.routes.values()))
            fallback.stats.checkins += count
            fallback.stats.rejected_unknown_population += count
            return (), self._suggest_window(fallback)
        admitted = self._admit_group(route, attestation_ok, runtime_versions)
        bounced = count - len(admitted)
        if not bounced:
            return admitted, None
        route.stats.checkins += bounced
        return admitted, self._suggest_window(route)

    def _admit_group(
        self, route: PopulationRoute, attestation_ok: list[bool], runtime_versions: list[int]
    ):
        """The admission policy over a group of simultaneous check-ins, in
        order — draining, attestation, plan compatibility, quota: the
        positions admitted, every rejection counted under its reason.
        Admissions still in flight count against the quota and the ones
        made here are reserved at once, so the free slots go to the first
        admissible rows and ``len(pool) + pending_admissions`` never
        passes ``pool_cap``."""
        stats = route.stats
        if route.draining:
            stats.rejected_draining += len(attestation_ok)
            return ()
        live = range(len(attestation_ok))
        if not all(attestation_ok):
            live = [j for j in live if attestation_ok[j]]
            stats.rejected_attestation += len(attestation_ok) - len(live)
        if not all(map(route.plan_compat.get, runtime_versions)):
            # Some row's runtime has no plan — or has not been looked up yet.
            runnable = [
                j for j in live if self._compatible(route, runtime_versions[j])
            ]
            stats.rejected_incompatible += len(live) - len(runnable)
            live = runnable
        free = route.pool_cap - len(route.pool) - route.pending_admissions
        admitted = live[: max(free, 0)]
        stats.rejected_quota += len(live) - len(admitted)
        route.pending_admissions += len(admitted)
        return admitted

    # -- message handling ----------------------------------------------------------
    def receive(self, sender: Optional[ActorRef], message: Any) -> None:
        if isinstance(message, msg.DeviceCheckin):
            self._on_checkin(message)
        elif isinstance(message, msg.DeviceDisconnect):
            self._on_disconnect(message)
        elif isinstance(message, msg.ForwardDevices):
            route = self.routes.get(message.population_name)
            if route is not None:
                route.forwarding = message
                self._drain_pool(route)
        elif isinstance(message, msg.ClearForwarding):
            route = self.routes.get(message.population_name)
            if (
                route is not None
                and route.forwarding is not None
                and route.forwarding.round_id == message.round_id
            ):
                route.forwarding = None
        elif isinstance(message, msg.RegisterCoordinator):
            route = self.routes.get(message.population_name)
            if route is not None:
                route.coordinator = message.coordinator
                self.system.watch(self.ref, message.coordinator)
        elif isinstance(message, DeathNotice):
            self._on_coordinator_death(message)

    def _on_disconnect(self, message: msg.DeviceDisconnect) -> None:
        route = self.routes.get(message.population_name)
        if route is not None and route.pool.pop(message.device_id, None) is not None:
            route.stats.disconnects += 1

    # -- check-in path ---------------------------------------------------------
    def _compatible(self, route: PopulationRoute, runtime_version: int) -> bool:
        """Whether ``route`` has a plan this FL runtime version can run."""
        compatible = route.plan_compat.get(runtime_version)
        if compatible is None:
            compatible = route.plans.plan_for_runtime(runtime_version) is not None
            route.plan_compat[runtime_version] = compatible
        return compatible

    def _on_checkin(self, checkin: msg.DeviceCheckin) -> None:
        route = self.routes.get(checkin.population_name)
        if route is None:
            # No hosted population by that name: steer the device away with
            # an arbitrary route's pace (or drop if nothing is hosted).
            if self.routes:
                fallback = next(iter(self.routes.values()))
                fallback.stats.checkins += 1
                fallback.stats.rejected_unknown_population += 1
                self._reject(fallback, checkin.device_ref, "unknown_population")
            return
        route.stats.checkins += 1
        # The sweep's screen admitted this check-in and reserved its slot;
        # it has landed, and the slot becomes its place in the pool.  (A
        # stale one — its device left WAITING while it flew, and the route
        # was re-created by a re-attach since — finds no slot to release.)
        if route.pending_admissions > 0:
            route.pending_admissions -= 1
        if route.draining:
            # The one change a screen cannot see coming: the tenant began
            # to drain while the message was in flight.
            route.stats.rejected_draining += 1
            self._reject(route, checkin.device_ref, "draining")
            return
        device = _ConnectedDevice(
            device_id=checkin.device_id,
            ref=checkin.device_ref,
            runtime_version=checkin.runtime_version,
            connected_at_s=self.now,
        )
        route.pool[checkin.device_id] = device
        route.stats.accepted += 1
        if route.forwarding is not None:
            self._try_forward(route, device)

    # -- forwarding path -----------------------------------------------------------
    def _drain_pool(self, route: PopulationRoute) -> None:
        """Offer pooled devices to the newly started round, oldest first."""
        for device in sorted(route.pool.values(), key=lambda d: d.connected_at_s):
            if route.forwarding is None:
                break
            self._try_forward(route, device)

    def _try_forward(self, route: PopulationRoute, device: _ConnectedDevice) -> None:
        """Admission RPC to the Master Aggregator, then configure or reject."""
        assert route.forwarding is not None
        instruction = route.forwarding
        master = self.system.actor_of(instruction.master)
        if master is None:
            # Master died (Sec. 4.4): the round is gone; keep the device
            # pooled for the next round.
            route.forwarding = None
            return
        plan = route.plans.plan_for_task(
            instruction.task_id, device.runtime_version
        )
        if plan is None:
            # This task cannot be served to this runtime; keep the device
            # pooled for a differently versioned task.
            return
        decision, agg_ref = master.admit_device(  # type: ignore[attr-defined]
            device.device_id, device.ref, device.runtime_version
        )
        route.pool.pop(device.device_id, None)
        if decision is not CheckinDecision.ACCEPT or agg_ref is None:
            route.stats.rejected_quota += 1
            self._reject(route, device.ref, "round_full")
            return
        checkpoint = self.store.latest(route.population_name)
        route.stats.forwarded += 1
        self.tell(
            device.ref,
            msg.ConfigureDevice(
                round_id=instruction.round_id,
                task_id=instruction.task_id,
                plan=plan,
                checkpoint=checkpoint,
                aggregator=agg_ref,
            ),
        )

    def _flush_pool(self, route: PopulationRoute, reason: str) -> None:
        for device in list(route.pool.values()):
            self._reject(route, device.ref, reason)
        route.pool.clear()

    # -- coordinator recovery (Sec. 4.4) ------------------------------------------
    def _on_coordinator_death(self, notice: DeathNotice) -> None:
        route = next(
            (r for r in self.routes.values() if r.coordinator == notice.ref),
            None,
        )
        if route is None:
            return
        route.coordinator = None
        route.forwarding = None
        if not notice.crashed or route.coordinator_factory is None or route.draining:
            return  # a draining tenant's coordinator is never respawned
        # "Because the Coordinators are registered in a shared locking
        # service, this will happen exactly once": the respawn key embeds
        # the dead incarnation's actor id, so exactly one selector wins.
        key = f"respawn/{route.population_name}/{notice.ref.actor_id}"
        if self.locks.acquire(key, self.ref):
            if self.recovery is not None:
                self.recovery.record("coordinator_respawns")
            replacement = route.coordinator_factory()
            self.system.spawn(
                replacement,
                f"coordinator/{route.population_name}/r{notice.ref.actor_id}",
            )
