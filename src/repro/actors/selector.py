"""Selector actor (Sec. 4.2): accepts and forwards device connections.

Selectors are the globally distributed edge of the server: they hold the
open device streams, make local accept/reject decisions from soft quotas,
forward accepted devices to the round's Aggregators, and hand rejected
devices a pace-steering window (Sec. 2.3).  Sec. 4.3 pipelines selection
with the previous round's reporting; here it does not yet: while a round
forwards, its route bounces every row the round cannot take, so the pool
is empty when the round ends (ROADMAP.md, "Sec. 4.3 pipelining, for
real").

One Selector serves *many* FL populations at once (Sec. 2's multi-tenant
fleet): each check-in names a population, and the Selector keeps one
:class:`PopulationRoute` — standing forwarding instruction, pace
steering, quotas, counters, and the ``wake`` that tells the tenant's
Coordinator devices are waiting — per hosted population.  The
Coordinator sets and clears a route's instruction in calls
(:meth:`Selector.receive`, :meth:`Selector.clear_forwarding`); no
message reaches a Selector.

Its pool is not here: a device WAITING at it is a row of the idle
plane's columns (Lo et al.'s client registry), counted per ``(selector,
tenant)``.  A check-in is judged once: the plane's sweep asks
:meth:`Selector.fast_checkin_decision` for one verdict per (selector,
tenant) group — draining, the row's cached attestation verdict, plan
compatibility, quota — and each admitted row joins the pool by the
plane's column writes.  A round starts at a shard in one pass: its
Coordinator hands the first live Selector a :class:`RoundStart` naming
them all, their pools are read in one scan of the plane's columns, and
Selector by Selector each draws the rows the round still wants uniformly
from its own pool with its own stream (the paper's reservoir sampling,
footnote 1); rows admitted while the round forwards are offered to it
the same way, as one group.  Each drawn row's device is configured,
every other one is told to come back later — vector writes, like every
way out of the pool.  An admission while no round forwards wakes the
tenant's Coordinator (Sec. 4.2's report of how many devices are
connected, pushed rather than polled).

A Selector supervises nothing: the fleet restarts a crashed Selector, and
a tenant's lifecycle plane its Coordinator (Sec. 4.4's "restarted by the
layer above", :class:`~repro.actors.kernel.Restart`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, compress, islice
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from repro.actors.kernel import Actor, ActorRef
from repro.actors import messages as msg
from repro.core.pace import PaceSteering


@dataclass(frozen=True)
class Forwarding:
    """A route's standing instruction (Sec. 4.2): forward up to ``count``
    connected devices of ``population_name`` to round ``round_id`` of task
    ``task_id``, whose master admits each one to an Aggregator."""

    round_id: int
    task_id: str
    count: int
    master: ActorRef
    population_name: str


class RoundStart(NamedTuple):
    """A round starts at its shard (Sec. 4.2): its live ``selectors``, in
    index order, forward to ``instruction`` and offer it their pools at once."""

    instruction: Forwarding
    selectors: tuple[Any, ...]


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


@dataclass
class PopulationRoute:
    """One hosted population's routing state inside a Selector.

    ``plans`` exposes ``plan_for_runtime(version)`` / ``plan_for_task``.
    """

    population_name: str
    pace: PaceSteering
    plans: Any
    population_size: int
    #: What a round of the tenant selects (its Coordinator's start
    #: threshold): the demand a pace window is sized for while no round
    #: is forwarding.
    selection_goal: int
    #: Tells the tenant's live Coordinator that devices were admitted
    #: here (it arms a tick if its pool now suffices).
    wake: Callable[[], None]
    pool_cap: int = 1000
    forwarding: Forwarding | None = None
    stats: SelectorStats = field(default_factory=SelectorStats)
    #: Cached ``runtime_version -> has compatible plan`` verdicts (the
    #: plan directory is immutable after deployment).
    plan_compat: dict[int, bool] = field(default_factory=dict)
    #: The population is being drained from the fleet: admission is
    #: closed (new check-ins bounce with a pace window) while in-flight
    #: rounds wind down; the route is removed once the tenant retires.
    draining: bool = False


class Selector(Actor):
    """One selector; production runs many, spread geographically.

    Shared pieces (checkpoint store, the idle plane that holds its pool)
    are fleet-wide; everything population-specific lives in
    :attr:`routes`.  ``index`` is its place in the fleet's Selector list,
    which is how the plane's columns name it; ``rng`` draws its rounds'
    samples.
    """

    def __init__(
        self,
        checkpoint_store: Any,         # exposes latest(population)
        rng: np.random.Generator,
        plane: Any,                    # sim.idle_plane.VectorizedIdlePlane
        index: int,
    ):
        self.store = checkpoint_store
        self.rng = rng
        self.plane = plane
        self.index = index
        self.routes: dict[str, PopulationRoute] = {}

    # -- population registry ---------------------------------------------------
    def add_route(self, route: PopulationRoute) -> None:
        if route.population_name in self.routes:
            raise ValueError(f"population {route.population_name!r} already routed")
        self.routes[route.population_name] = route

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
        window = self._suggest_window(route)
        pool = self.plane.pools([self.index], population_name)[0]
        self.plane.bounce(pool, window.earliest_s, window.latest_s)

    def remove_route(self, population_name: str) -> PopulationRoute | None:
        """Retire a drained population's route entirely.

        Any device still pooled has its stream reset so it retries — by
        which point its membership is gone and it will never announce this
        population again.
        """
        route = self.routes.pop(population_name, None)
        if route is None:
            return None
        self.plane.reset(self.plane.pools([self.index], population_name)[0])
        return route

    # -- lifecycle --------------------------------------------------------------
    def on_stop(self, crashed: bool) -> None:
        # A dying selector's open device streams break: the pooled devices
        # retry elsewhere (Sec. 4.4: "only the devices connected to that
        # actor will be lost" — lost from this round, not forever).
        self.plane.reset(self.plane.pooled(self.index))

    # -- helpers ----------------------------------------------------------------
    def connected_count_for(self, population_name: str) -> int:
        if population_name in self.routes:
            return self.plane.connected([self.index], population_name)
        return 0

    def _suggest_window(self, route: PopulationRoute):
        """The pace window for now: a pure function of the route and demand."""
        forwarding = route.forwarding
        return route.pace.suggest_reconnect(
            now_s=self.now,
            population_size=route.population_size,
            needed_per_round=forwarding.count if forwarding else route.selection_goal,
        )

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
        positions that join the pool — open a stream and WAIT here — and
        the pace window every other row bounces with (``None`` when none
        does).  Every row is counted here, bounced ones by reason.
        """
        count = len(attestation_ok)
        route = self.routes.get(population_name)
        if route is None:
            if not self.routes:
                # Nothing hosted: the stream opens onto nothing, and the
                # devices wait out their deadlines.
                return range(count), None
            fallback = next(iter(self.routes.values()))
            fallback.stats.checkins += count
            fallback.stats.rejected_unknown_population += count
            return (), self._suggest_window(fallback)
        route.stats.checkins += count
        admitted = self._admit_group(route, attestation_ok, runtime_versions)
        route.stats.accepted += len(admitted)
        if len(admitted) == count:
            return admitted, None
        return admitted, self._suggest_window(route)

    def _admit_group(
        self, route: PopulationRoute, attestation_ok: list[bool], runtime_versions: list[int]
    ):
        """The admission policy over a group of simultaneous check-ins, in
        order — draining, attestation, plan compatibility, quota: the
        positions admitted, every rejection counted under its reason.  The
        free slots go to the first admissible rows, so the pool never
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
        name = route.population_name
        free = route.pool_cap - self.plane.connected([self.index], name)
        admitted = live[: max(free, 0)]
        stats.rejected_quota += len(live) - len(admitted)
        return admitted

    def admitted(self, population_name: str, rows: np.ndarray) -> None:
        """The plane pooled ``rows`` here, admitted by this Selector's
        screen: a round that is forwarding takes what it still wants;
        with none forwarding, the tenant's Coordinator hears of them (one
        that is forwarding has a round running and starts none)."""
        route = self.routes.get(population_name)
        if route is None:
            return
        if route.forwarding is not None:
            _drain(route.forwarding, [(self, route, rows)])
        else:
            route.wake()

    # -- the Coordinator's calls ---------------------------------------------------
    def receive(self, sender: Optional[ActorRef], start: RoundStart | Forwarding) -> None:
        """A round starts: its Coordinator calls the first live Selector of
        its shard with the :class:`RoundStart` of all of them (no message is
        told); a bare :class:`Forwarding` starts it at this Selector alone."""
        instruction, selectors = start if isinstance(start, RoundStart) else (start, [self])
        name = instruction.population_name
        hosts = [(s, s.routes[name]) for s in selectors if name in s.routes]
        for _, route in hosts:
            route.forwarding = instruction
        pools = self.plane.pools([s.index for s, _ in hosts], name)
        _drain(instruction, [(*host, rows) for host, rows in zip(hosts, pools)])

    def clear_forwarding(self, population_name: str, round_id: int | None) -> None:
        """Round ``round_id`` of the tenant is over: stop forwarding to it
        (another round's instruction stands)."""
        route = self.routes.get(population_name)
        if route is not None and route.forwarding is not None and (
            route.forwarding.round_id == round_id
        ):
            route.forwarding = None

    # -- check-in path ---------------------------------------------------------
    def _compatible(self, route: PopulationRoute, runtime_version: int) -> bool:
        """Whether ``route`` has a plan this FL runtime version can run."""
        compatible = route.plan_compat.get(runtime_version)
        if compatible is None:
            compatible = route.plans.plan_for_runtime(runtime_version) is not None
            route.plan_compat[runtime_version] = compatible
        return compatible


# -- forwarding path -----------------------------------------------------------------
def _drain(instruction: Forwarding, groups: list) -> None:
    """Offer pooled rows to the forwarding round, a ``(selector, route,
    rows)`` group at a time (rows in row order): each Selector draws
    uniformly, from its own stream, as many of its rows the task can serve
    as the master still wants; the rest of those are turned away, round
    full, and a row no plan serves stays pooled.  The turned-away rows
    share one row draw, the taken ones one forward; each Selector's sweep
    wake-up, admissions and configurations are then made in turn."""
    groups = [group for group in groups if group[2].size]
    master = groups and groups[0][0].system.actor_of(instruction.master)
    if not master:
        for _, route, _ in groups:
            # Master died (Sec. 4.4): the round is gone; keep the rows
            # pooled for the next round.
            route.forwarding = None
        return
    head, sizes = groups[0][0], [group[2].size for group in groups]
    plane, rows = head.plane, np.concatenate([group[2] for group in groups])
    versions = plane._runtime_version[rows].tolist()
    # A tenant's routes share its plan directory: one lookup per version.
    plan_for = partial(groups[0][1].plans.plan_for_task, instruction.task_id)
    plan_of = {version: plan_for(version) for version in dict.fromkeys(versions)}
    plans = list(map(plan_of.__getitem__, versions))
    if None in plan_of.values():
        servable = [plan is not None for plan in plans]
        sizes = [sum(servable[end - n : end]) for end, n in zip(accumulate(sizes), sizes)]
        rows, plans = rows[servable], list(compress(plans, servable))
    demand, taken, takes, spans, windows = master.demand, np.ones(rows.size, bool), [], [], {}
    for (selector, route, _), size, start in zip(groups, sizes, accumulate([0] + sizes)):
        takes.append(min(size, demand))
        if size > demand:
            # The rows holding the ``demand`` smallest of one uniform each:
            # a uniform draw of that many.
            taken[start + selector.rng.random(size).argsort()[demand:]] = False
            route.stats.rejected_quota += size - demand
            key = (route.pace, route.population_size)  # all a window depends on
            window = windows[key] = windows.get(key) or selector._suggest_window(route)
            spans.append((window.earliest_s, window.latest_s))
        route.stats.forwarded += takes[-1]
        demand -= takes[-1]
    if spans:
        counts = [size - take for size, take in zip(sizes, takes) if size > take]
        if len(windows) == 1:  # one pace window: it is two scalars
            earliest, latest = spans[0]
        else:
            earliest, latest = np.repeat(np.array(spans), counts, axis=0).T
        event_t = plane.bounce(rows[~taken], earliest, latest, wake=False)
        wakes = iter(np.minimum.reduceat(event_t, [0, *accumulate(counts[:-1])]).tolist())
    configured = iter(())
    if any(takes):
        checkpoint = head.store.latest(instruction.population_name)
        configured = zip(plane.forward(rows[taken]), compress(plans, taken.tolist()))
    for (selector, _, _), take, size in zip(groups, takes, sizes):
        if size > take:
            plane.wake_by(next(wakes))
        for device, plan in islice(configured, take):
            # The draw stays within the master's demand: it accepts each.
            aggregator = master.admit_device(device.device_id, device.ref)
            configure = msg.ConfigureDevice(
                instruction.round_id, instruction.task_id, plan, checkpoint, aggregator
            )
            selector.tell(device.ref, configure)
