"""The population lifecycle plane: tenants attach to and drain from a
*live* fleet.

The paper's FL server is long-lived and multi-tenant — populations come
and go while the device fleet keeps running (Sec. 9's "multiple
concurrent training sessions", Table 1) — and Lo et al.'s architectural
patterns name the shape: a client registry plus a deployment lifecycle
decoupled from server construction.  :class:`PopulationLifecycle` is that
registry for an :class:`~repro.system.fleet.FLFleet`: it owns every
hosted tenant's runtime state (:class:`PopulationRuntime`) and the two
transitions —

* :meth:`attach` — bring a population up on the running fleet: round-0
  checkpoint, plan directory, pace steering, a
  :class:`~repro.actors.selector.PopulationRoute` on every Selector, a
  freshly spawned Coordinator, device memberships sampled from the
  tenant's pinned RNG stream, a trainer built per member, and — on a
  live fleet — first check-ins scheduled from each device's own stream so
  the rollout reaches its cohort within one job interval.  A device's
  tenancy has one home: memberships are the idle plane's columns (one
  vector write over the member rows, whether or not a row's
  ``DeviceActor`` exists yet), trainers the tenant's
  :class:`PopulationRuntime`'s — one list in member order, beside one
  sorted array of the member rows — which a device's session asks
  through :meth:`PopulationLifecycle.trainer_of`.  Builder-time populations go
  through *exactly this code path* ("attach before start"); there is no
  second wiring path.
* :meth:`drain` — retire a population from the running fleet in three
  phases: stop admitting (every Selector flushes the tenant's pool and
  bounces new check-ins), quiesce (the event loop runs until the tenant's
  in-flight round and device sessions wind down, or a simulated-time
  deadline forces them), and retire (Coordinator stopped, routes removed,
  trainers dropped, idle-plane rows refreshed; memberships and queued
  requests went with the first phase, one column write).  The
  tenant's final committed checkpoint stays in the store, and the caller
  gets a typed :class:`~repro.system.reports.PopulationLifecycleReport`.

Fleet checkpoint/restore (:func:`write_snapshot` / :func:`read_snapshot`)
sits on the same state boundary: because every piece of tenant state is
owned here or reachable from the fleet object graph — per-tenant model
checkpoints, round counters, RNG stream cursors, pending events,
lifecycle state — a snapshot is a full-fidelity freeze, and a restored
fleet continues *byte-identically* to one that never stopped.
"""

from __future__ import annotations

import enum
import math
import os
import pickle
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.actors.coordinator import Coordinator
from repro.actors.kernel import ActorRef, Restart
from repro.actors.master_aggregator import MasterAggregator
from repro.actors.selector import PopulationRoute
from repro.analytics.dashboard import ScopedDashboard
from repro.core.pace import PaceSteering
from repro.core.plan import generate_plan
from repro.core.rounds import RoundResult
from repro.core.task import FLPopulation, FLTask, TaskScheduler
from repro.nn.serialization import checkpoint_nbytes
from repro.system.builder import FleetValidationError, PopulationSpec, device_ids
from repro.system.config import SELECTOR_RESTART_DELAY_S
from repro.system.reports import PopulationLifecycleReport
from repro.tools.versioning import PlanDirectory, PlanRepository, default_transforms

if TYPE_CHECKING:
    from repro.sim.population import DeviceProfile
    from repro.system.fleet import FLFleet

#: Disjoint round-id ranges per population *incarnation* so (device,
#: round) session keys in the event log never collide across tenants —
#: nor across a drained tenant and a later re-attach of the same name.
ROUND_ID_STRIDE = 1_000_000

#: How often (simulated seconds) a drain re-checks whether the tenant has
#: gone quiet.  A fixed cadence keeps drains deterministic; the checks
#: themselves never mutate state, so polling cannot perturb the run.
DRAIN_POLL_INTERVAL_S = 15.0

#: Member profiles an attach builds at a time, each chunk handed to the
#: factory as built: it holds one chunk of them, not one per member.
PROFILE_CHUNK_ROWS = 2048


class PopulationState(enum.Enum):
    """Where a tenant is in its lifecycle."""

    ATTACHED = "attached"
    DRAINING = "draining"
    DRAINED = "drained"


@dataclass
class PopulationRuntime:
    """Everything the fleet tracks for one hosted population."""

    spec: PopulationSpec
    index: int
    fl_population: FLPopulation
    plan_directory: PlanDirectory
    pace: PaceSteering
    scope: ScopedDashboard
    #: The members' idle-plane rows (= device ids), sorted: one array,
    #: the last enrolled set once the tenant has drained.
    members: np.ndarray
    #: Every member's trainer, in ``members`` order, from attach to
    #: retirement: the one home of a trainer (a device's session looks
    #: it up through :meth:`PopulationLifecycle.trainer_of`).
    trainers: list
    state: PopulationState = PopulationState.ATTACHED
    attached_at_s: float = 0.0
    drained_at_s: float | None = None
    coordinator_ref: ActorRef | None = None
    results: list[RoundResult] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def round_id_base(self) -> int:
        return self.index * ROUND_ID_STRIDE


class PopulationLifecycle:
    """The fleet's tenant registry and attach/drain state machine.

    ``active`` holds ATTACHED and DRAINING tenants (the ones Selectors
    still route); ``retired`` keeps DRAINED tenants so run reports cover
    their rounds.  Indices — and with them round-id ranges, checkpoint
    round bases, and coordinator actor names — are never reused, even
    when a name is re-attached.  (Dashboard scopes *are* name-keyed:
    incarnations of the same name continue one ``pop/<name>`` series.)
    """

    def __init__(self, fleet: "FLFleet"):
        self.fleet = fleet
        self.active: dict[str, PopulationRuntime] = {}
        self.retired: list[PopulationRuntime] = []
        self._next_index = 0

    # -- registry views ---------------------------------------------------------
    def runtimes(self) -> list[PopulationRuntime]:
        """Every tenant this fleet has ever hosted, in attach order."""
        return sorted(
            [*self.retired, *self.active.values()], key=lambda r: r.index
        )

    def runtime(self, name: str) -> PopulationRuntime:
        """The named *currently hosted* tenant (KeyError otherwise)."""
        return self.active[name]

    def find(self, name: str) -> PopulationRuntime | None:
        """The named tenant, hosted or retired (latest incarnation)."""
        runtime = self.active.get(name)
        if runtime is not None:
            return runtime
        for runtime in reversed(self.retired):
            if runtime.name == name:
                return runtime
        return None

    # -- attach -----------------------------------------------------------------
    def attach(
        self,
        spec: PopulationSpec,
        membership_overrides: Mapping[int, tuple[str, ...]] | None = None,
        membership: float | None = None,
        member_ids: Iterable[int] | None = None,
        profiles: Sequence[DeviceProfile] | None = None,
    ) -> PopulationRuntime:
        """Bring one population up on the fleet (running or not yet started).

        ``membership`` overrides the spec's membership fraction;
        ``member_ids`` pins the member set explicitly (no sampling).
        ``membership_overrides`` is the builder's global per-device map
        (device id -> population names the device belongs to).
        ``profiles`` is every row's profile, when the caller has built
        them (several builder tenants attach as one batch and share one
        build); otherwise the members' are built here, a chunk at a time.
        """
        if membership is not None:
            # Through the field's own bounds, before anything is written.
            spec = replace(spec, membership_fraction=membership)
        spec.validate()
        if spec.name in self.active:
            raise FleetValidationError(
                f"population {spec.name!r} is already attached"
            )
        # Membership is resolved and every member's trainer is built (the
        # raise-capable user code) before any server state is written, so
        # a failed attach leaves the fleet untouched.
        members = self._resolve_membership(
            spec.name,
            fraction=spec.membership_fraction,
            member_ids=member_ids,
            overrides=membership_overrides or {},
        )
        # Factories are user code that may consume shared state in call
        # order: called now, once per member in device-id order, object or
        # row alike, each with a profile built for the attach (bulk passes
        # over the plane's columns, one per chunk; the fleet keeps none).
        factory = self.fleet.resolve_trainer_factory(spec)
        if profiles is None:
            build, step = self.fleet.idle_plane.profiles, PROFILE_CHUNK_ROWS
            chunks = np.split(members, range(step, members.size, step))
            profiles = chain.from_iterable(map(build, chunks))
        else:
            profiles = map(profiles.__getitem__, members.tolist())
        trainers = [factory(profile) for profile in profiles]
        runtime = self._create_runtime(spec, members, trainers)
        self.active[spec.name] = runtime
        self._register_routes(runtime)
        self._spawn_coordinator(runtime)
        self._enroll_devices(runtime)
        return runtime

    def _create_runtime(
        self, spec: PopulationSpec, members: np.ndarray, trainers: list
    ) -> PopulationRuntime:
        """Per-population server state: plan directory, task registry,
        pace steering, round-0 checkpoint.  Everything that can *raise*
        (plan generation, repository builds) runs before anything is
        written, so a failed attach leaves no orphan server state."""
        fleet = self.fleet
        model_nbytes = checkpoint_nbytes(spec.initial_params)
        plan_directory = PlanDirectory()
        fl_population = FLPopulation(name=spec.name)
        for i, task_config in enumerate(spec.tasks):
            # An explicitly supplied plan applies to the first task (the
            # one the model engineer built it for); the rest are generated.
            task_plan = (
                spec.plan
                if spec.plan is not None and i == 0
                else generate_plan(
                    task_id=task_config.task_id,
                    kind=task_config.kind,
                    client_config=task_config.client_config,
                    secagg=task_config.secagg,
                    model_nbytes=model_nbytes,
                )
            )
            plan_directory.add(
                task_config.task_id,
                PlanRepository.build(
                    task_plan,
                    list(fleet.config.population.runtime_versions),
                    default_transforms(),
                ),
            )
            fl_population.add_task(FLTask(config=task_config, plan=task_plan))
        index = self._next_index
        self._next_index += 1
        # The round-0 checkpoint lands at the incarnation's round-id base,
        # so a re-attach of a drained name stays monotonic in the store:
        # the old incarnation's final commit stays a record in its log,
        # and this write replaces its model as ``latest(name)``.
        fleet.store.initialize(
            spec.initial_params,
            spec.name,
            spec.tasks[0].task_id,
            round_number=index * ROUND_ID_STRIDE,
        )
        return PopulationRuntime(
            spec=spec,
            index=index,
            fl_population=fl_population,
            plan_directory=plan_directory,
            pace=PaceSteering(
                spec.pace or fleet.config.pace, fleet.config.diurnal
            ),
            scope=fleet.dashboard.scoped(f"pop/{spec.name}"),
            members=members,
            trainers=trainers,
            attached_at_s=fleet.loop.now,
        )

    def _resolve_membership(
        self,
        name: str,
        fraction: float,
        member_ids: Iterable[int] | None,
        overrides: Mapping[int, tuple[str, ...]],
    ) -> np.ndarray:
        """Deterministic member rows, sorted: fraction-sampled from the
        tenant's pinned ``membership/<name>`` stream (or pinned
        explicitly), then per-device overrides."""
        fleet = self.fleet
        devices = len(fleet.devices)
        if member_ids is not None:
            ids = device_ids(member_ids, f"population {name!r}: member")
            unknown = sorted({i for i in ids if not 0 <= i < devices})
            if unknown:
                raise FleetValidationError(
                    f"population {name!r}: unknown member device ids "
                    f"{unknown} (fleet has {devices} devices)"
                )
            members = np.unique(np.array(ids, dtype=np.intp))
        elif fraction >= 1.0:
            members = np.arange(devices)
        else:
            # A *fresh* generator, not the cached registry stream: the
            # draw starts at cursor 0 every time, so a failed attach
            # consumes nothing (a retry samples the identical member set)
            # and a same-named re-attach re-pins the same members.
            rng = fleet.rngs.fresh(f"membership/{name}")
            members = np.flatnonzero(rng.random(devices) < fraction)
        if overrides:
            joined = [i for i, names in overrides.items() if name in names]
            left = [i for i, names in overrides.items() if name not in names]
            members = np.union1d(
                np.setdiff1d(members, np.array(left, dtype=np.intp)),
                np.array(joined, dtype=np.intp),
            )
        if not members.size:
            raise FleetValidationError(
                f"population {name!r} has no member devices "
                f"(fraction {fraction}, {devices} devices)"
            )
        return members

    def _register_routes(self, runtime: PopulationRuntime) -> None:
        # Routes live on the owning shard's Selectors only (the full set
        # on an unsharded fleet): a tenant's check-in traffic and pool
        # quotas never touch other shards.
        for selector in self.fleet.shard_selector_actors(runtime.name):
            selector.add_route(self._build_route(runtime))

    def _build_route(self, runtime: PopulationRuntime) -> PopulationRoute:
        """The tenant's route on one Selector — at attach and on a
        respawned Selector (which a draining tenant's bounces)."""
        return PopulationRoute(
            population_name=runtime.name,
            pace=runtime.pace,
            plans=runtime.plan_directory,
            population_size=len(runtime.members),
            selection_goal=runtime.fl_population.selection_goal,
            wake=partial(self._devices_waiting, runtime),
            pool_cap=runtime.spec.pool_cap,
            draining=runtime.state is PopulationState.DRAINING,
        )

    def make_coordinator(self, name: str) -> Coordinator:
        """A fresh Coordinator for ``name`` — at attach and at a Sec. 4.4
        respawn.  The one place that knows how the tenant's rounds are
        wired: the Coordinator gets a ``make_master`` with everything but
        the round bound."""
        fleet = self.fleet
        runtime = self.runtime(name)
        # The tenant's Coordinator talks to its owning shard's Selectors
        # only (the full set on an unsharded fleet); its rounds fold
        # through at most one shard aggregator per owned Selector.
        indices = fleet.shard_selector_indices(name)
        faults = fleet.config.faults
        scheduler = TaskScheduler(
            runtime.fl_population,
            runtime.spec.strategy,
            fleet.rngs.stream(f"scheduler/{name}"),
        )
        make_master = partial(
            MasterAggregator,
            store=fleet.store,
            rng=fleet.rngs.stream(f"coordinator/{name}"),
            round_listener=partial(fleet._on_round_result, name),
            metrics_store=fleet.metrics,
            checkpoint_retry=faults.checkpoint_retry if faults is not None else None,
            recovery=fleet.recovery,
            shard_slots=len(indices),
            shard_restart_delay_s=SELECTOR_RESTART_DELAY_S,
            fold_recorder=partial(fleet._record_shard_fold, name),
        )
        return Coordinator(
            population_name=name,
            scheduler=scheduler,
            fleet_selectors=fleet.selectors,
            selector_indices=indices,
            locks=fleet.locks,
            store=fleet.store,
            make_master=make_master,
            config=runtime.spec.coordinator or fleet.config.coordinator,
            round_id_base=runtime.round_id_base,
        )

    def _spawn_coordinator(self, runtime: PopulationRuntime) -> None:
        """The tenant's Coordinator, at attach and at a respawn: this plane
        spawned it, so this plane restarts it — at the crash instant,
        exactly once (Sec. 4.4)."""
        runtime.coordinator_ref = self.fleet.actors.spawn(
            self.make_coordinator(runtime.name),
            f"coordinator/{runtime.name}/{runtime.index}",
            restart=Restart(0.0, partial(self._respawn_coordinator, runtime)),
        )

    def _respawn_coordinator(
        self, runtime: PopulationRuntime, dead_ref: ActorRef
    ) -> None:
        """A crashed Coordinator's replacement — none for a draining or
        retired tenant.  It resumes from the last checkpoint (the dead one
        cleared its round's forwarding as it stopped)."""
        if runtime.state is not PopulationState.ATTACHED:
            return
        self._spawn_coordinator(runtime)
        self.fleet.recovery.record("coordinator_respawns")

    def trainer_of(self, device_id: int, name: str):
        """Device ``device_id``'s trainer for hosted tenant ``name``
        (ATTACHED or DRAINING: a session running when its tenant starts
        to drain trains to the end) — what a device's session resolves
        its trainer through: its position among the sorted members."""
        runtime = self.active[name]
        members = runtime.members
        position = members.searchsorted(device_id)
        if position < members.size and members[position] == device_id:
            return runtime.trainers[position]
        raise KeyError(device_id)

    def _enroll_devices(self, runtime: PopulationRuntime) -> None:
        """The tenant's membership, on every member's row (each kicked row
        draws from its own stream, so enrollment is deterministic)."""
        fleet = self.fleet
        name = runtime.name
        for trainer in runtime.trainers:
            fleet.enroll_cohort_trainer(name, trainer)
        rows = runtime.members
        plane = fleet.idle_plane
        plane.scheduler.enroll(rows, name)
        plane.memberships_changed(rows)
        if fleet.started:
            plane.kick_rows(rows)

    # -- drain ------------------------------------------------------------------
    def drain(
        self, name: str, deadline_s: float = 7200.0
    ) -> PopulationLifecycleReport:
        """Retire a population from the live fleet.

        Advances simulated time while the tenant winds down (other
        tenants keep running normally); returns once the tenant is fully
        retired — at most ``deadline_s`` simulated seconds later, with
        any straggling round/sessions forcibly terminated at the
        deadline.
        """
        runtime = self.active.get(name)
        if runtime is None or runtime.state is not PopulationState.ATTACHED:
            raise FleetValidationError(
                f"population {name!r} is not attached (cannot drain)"
            )
        if not (math.isfinite(deadline_s) and deadline_s >= 0):
            raise ValueError(
                f"deadline_s must be finite and >= 0, got {deadline_s}"
            )
        fleet = self.fleet
        drain_started_at_s = fleet.loop.now
        runtime.state = PopulationState.DRAINING

        # Phase 1 — stop admitting: Selectors flush the tenant's pools
        # and bounce new check-ins; the Coordinator stops starting rounds;
        # member devices stop *requesting* sessions (membership and queued
        # requests stripped now, so quiescence is reachable) while any
        # session already running finishes on its own clock.
        for selector in fleet.shard_selector_actors(name):
            selector.begin_drain(name)
        coordinator = self._coordinator_actor(runtime)
        if coordinator is not None:
            coordinator.draining = True
        fleet.idle_plane.scheduler.leave(runtime.members, name)
        fleet.idle_plane.memberships_changed(runtime.members)

        # Phase 2 — quiesce: let the in-flight round and device sessions
        # finish on their own clocks, checking at a fixed cadence.
        deadline = drain_started_at_s + deadline_s
        while not self._is_quiet(runtime):
            now = fleet.loop.now
            if now >= deadline:
                break
            fleet.loop.run(until=min(now + DRAIN_POLL_INTERVAL_S, deadline))
        forced_interrupts, forced_round_abort = 0, False
        if not self._is_quiet(runtime):
            forced_interrupts, forced_round_abort = self._force_quiet(runtime)

        # Phase 3 — retire: coordinator down, routes out, trainers
        # dropped, idle rows refreshed.
        self._retire(runtime)
        final = fleet.store.latest(name)
        return PopulationLifecycleReport(
            population=name,
            attached_at_s=runtime.attached_at_s,
            drain_started_at_s=drain_started_at_s,
            drained_at_s=fleet.loop.now,
            rounds_total=len(runtime.results),
            rounds_committed=sum(1 for r in runtime.results if r.committed),
            final_round_number=final.round_number,
            member_devices=len(runtime.members),
            forced_session_interrupts=forced_interrupts,
            forced_round_abort=forced_round_abort,
            clean=not forced_interrupts and not forced_round_abort,
        )

    def _coordinator_actor(self, runtime: PopulationRuntime) -> Coordinator | None:
        """The tenant's live Coordinator (``None`` once retired, and for a
        draining tenant's crashed one)."""
        ref = runtime.coordinator_ref
        return self.fleet.actors.actor_of(ref) if ref is not None else None

    def _devices_waiting(self, runtime: PopulationRuntime) -> None:
        """A route's ``wake``: tell the tenant's live Coordinator (an
        actor the lifecycle plane may have respawned since) that devices
        were admitted."""
        coordinator = self._coordinator_actor(runtime)
        if coordinator is not None:
            coordinator.devices_waiting()

    def _is_quiet(self, runtime: PopulationRuntime) -> bool:
        """No round in flight and no device-side session for the tenant.

        Pure reads — a quiescence check never perturbs the simulation, so
        drain polling cannot change the trajectory of other tenants.
        """
        coordinator = self._coordinator_actor(runtime)
        if coordinator is not None and coordinator.active_master is not None:
            return False
        # A session of the tenant's holds its device's worker from the
        # check-in that started it to the hand-back that ends it, so the
        # member rows' queue columns say it all — one vector read.
        return not self.fleet.idle_plane.scheduler.occupied_by(
            runtime.members, runtime.name
        )

    def _force_quiet(self, runtime: PopulationRuntime) -> tuple[int, bool]:
        """Deadline passed: abort the tenant's round and sessions."""
        fleet = self.fleet
        forced_round = False
        coordinator = self._coordinator_actor(runtime)
        if coordinator is not None and coordinator.active_master is not None:
            fleet.actors.crash(coordinator.active_master)
            forced_round = True
        # The tenant's WAITING rows hang up, its participating devices are
        # interrupted (index order — each interrupt draws).
        waiting, participating = fleet.idle_plane.sessions_of(runtime.members, runtime.name)
        fleet.idle_plane.hang_up(waiting)
        for i in participating.tolist():
            fleet.devices[i].interrupt_session("population_drained")
        return waiting.size + participating.size, forced_round

    def _retire(self, runtime: PopulationRuntime) -> None:
        fleet = self.fleet
        name = runtime.name
        fleet.actors.stop(runtime.coordinator_ref)
        runtime.coordinator_ref = None
        for selector in fleet.shard_selector_actors(name):
            selector.remove_route(name)
        # The memberships went in the drain's first phase; a member whose
        # last session for the tenant ended since then booked a check-in on
        # the way out, which a row left without a tenant must not keep.
        fleet.idle_plane.memberships_changed(runtime.members)
        runtime.trainers = []
        fleet.retire_cohort_plane(name)
        runtime.state = PopulationState.DRAINED
        runtime.drained_at_s = fleet.loop.now
        del self.active[name]
        self.retired.append(runtime)


# -- fleet checkpoint / restore ---------------------------------------------------

#: Bumped whenever the on-disk snapshot layout changes incompatibly (the
#: commit that bumps it says what moved).  20: the pickled fleet,
#: Coordinator and client-training configs and the synthetic trainers
#: lost six fields that no caller set.
SNAPSHOT_FORMAT_VERSION = 20

_SNAPSHOT_MAGIC = "repro-fleet-snapshot"


class SnapshotError(RuntimeError):
    """The file is not a readable fleet snapshot of this format, or its
    payload is not the fleet its header describes."""


@dataclass(frozen=True)
class PopulationSnapshotEntry:
    """One tenant's headline state inside a snapshot manifest."""

    name: str
    state: str
    round_number: int
    rounds_total: int
    rounds_committed: int


@dataclass(frozen=True)
class FleetSnapshotManifest:
    """Self-describing header persisted (and returned) with a snapshot."""

    format_version: int
    seed: int
    simulated_seconds: float
    devices: int
    populations: tuple[PopulationSnapshotEntry, ...]


def build_manifest(fleet: "FLFleet") -> FleetSnapshotManifest:
    entries = []
    for runtime in fleet.lifecycle.runtimes():
        name = runtime.name
        if runtime.state is PopulationState.DRAINED:
            # The store's latest(name) may already belong to a re-attached
            # incarnation; a retired tenant's headline round is its own
            # last commit (or its initial checkpoint's base).
            round_number = max(
                (r.round_id for r in runtime.results if r.committed),
                default=runtime.round_id_base,
            )
        else:
            round_number = (
                fleet.store.latest(name).round_number
                if fleet.store.has_checkpoint(name)
                else -1
            )
        entries.append(
            PopulationSnapshotEntry(
                name=name,
                state=runtime.state.value,
                round_number=round_number,
                rounds_total=len(runtime.results),
                rounds_committed=sum(1 for r in runtime.results if r.committed),
            )
        )
    return FleetSnapshotManifest(
        format_version=SNAPSHOT_FORMAT_VERSION,
        seed=fleet.config.seed,
        simulated_seconds=fleet.loop.now,
        devices=len(fleet.devices),
        populations=tuple(entries),
    )


def write_snapshot(fleet: "FLFleet", path) -> FleetSnapshotManifest:
    """Freeze a fleet — mid-run, rounds in flight and all — to ``path``.

    The payload is the full object graph (per-tenant checkpoints, round
    counters, RNG stream cursors, pending events, lifecycle state), so a
    restored fleet resumes byte-identically; the manifest rides along as
    a typed header.  Snapshotting is a pure read: it never perturbs the
    running fleet.
    """
    manifest = build_manifest(fleet)
    header = {"magic": _SNAPSHOT_MAGIC, "manifest": manifest}
    # Write-then-rename: a failed dump must neither clobber an existing
    # snapshot at ``path`` nor leave a truncated file whose header still
    # validates.
    path = os.fspath(path)
    scratch = f"{path}.tmp-{os.getpid()}"
    try:
        with open(scratch, "wb") as f:
            # Two consecutive pickles: the small typed header first, then
            # the fleet graph — so read_manifest never deserializes the
            # fleet.
            pickle.dump(header, f, protocol=pickle.HIGHEST_PROTOCOL)
            try:
                pickle.dump(fleet, f, protocol=pickle.HIGHEST_PROTOCOL)
            except (pickle.PicklingError, AttributeError, TypeError) as exc:
                raise SnapshotError(
                    "fleet state is not picklable — snapshot support needs "
                    "picklable trainer factories and trainers (module-level "
                    f"classes, not closures): {exc}"
                ) from exc
        os.replace(scratch, path)
    finally:
        if os.path.exists(scratch):
            os.remove(scratch)
    return manifest


def _read_header(f, path) -> FleetSnapshotManifest:
    try:
        header = pickle.load(f)
    except Exception as exc:
        raise SnapshotError(f"unreadable fleet snapshot {path!r}") from exc
    if (
        not isinstance(header, dict)
        or header.get("magic") != _SNAPSHOT_MAGIC
        or not isinstance(header.get("manifest"), FleetSnapshotManifest)
    ):
        raise SnapshotError(f"{path!r} is not a fleet snapshot")
    manifest = header["manifest"]
    if manifest.format_version != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotError(
            f"snapshot format {manifest.format_version} unsupported "
            f"(this build reads format {SNAPSHOT_FORMAT_VERSION})"
        )
    return manifest


def read_snapshot(path) -> "FLFleet":
    """Rebuild the frozen fleet from :func:`write_snapshot` output.  What
    unpickles must be a fleet whose manifest — seed, clock, device count,
    tenant set, states, round counters — is the one written beside it."""
    from repro.system.fleet import FLFleet  # deferred: it imports this module

    with open(path, "rb") as f:
        manifest = _read_header(f, path)
        try:
            fleet = pickle.load(f)
        except Exception as exc:
            raise SnapshotError(f"unreadable fleet snapshot {path!r}") from exc
    if not isinstance(fleet, FLFleet):
        raise SnapshotError(f"{path!r} holds {type(fleet).__name__}, not a fleet")
    found = build_manifest(fleet)
    if found != manifest:
        raise SnapshotError(
            f"{path!r} does not hold the fleet its header describes: "
            f"header {manifest}, payload {found}"
        )
    return fleet


def read_manifest(path) -> FleetSnapshotManifest:
    """The snapshot's typed header, without deserializing the fleet."""
    with open(path, "rb") as f:
        return _read_header(f, path)
