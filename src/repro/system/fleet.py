"""FLFleet: one shared device fleet hosting many FL populations.

The paper's Fig. 1 server is *multi-tenant*: a single fleet of devices
checks in to infrastructure hosting many FL populations, each with its own
Coordinator, round pipeline, and telemetry (Secs. 2-4, Sec. 9's "multiple
concurrent training sessions").  :class:`FLFleet` realizes that: one
``EventLoop`` / ``ActorSystem`` / device fleet, N populations, with
Selectors routing check-ins by the device's announced population and one
Coordinator spawned per population.

The server is also *long-lived*: populations come and go while the fleet
keeps running.  All population wiring lives in the fleet's **population
lifecycle plane** (:class:`repro.system.lifecycle.PopulationLifecycle`):
builder-declared populations are attached through the same code path as
:meth:`attach_population` on a live fleet, :meth:`drain_population`
retires a tenant from a running fleet, and :meth:`snapshot` /
:meth:`restore` freeze and resume the whole simulation byte-identically.

Construction goes through :class:`repro.system.builder.FleetBuilder`
(``FLFleet.builder()``), which validates the declared topology before a
single actor is spawned.  Results come back as typed
:class:`repro.system.reports.RunReport` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.actors.kernel import ActorRef, ActorSystem, Restart
from repro.actors.locking import LockService
from repro.actors.messages import ConfigureDevice
from repro.actors.selector import Selector
from repro.analytics.dashboard import Dashboard
from repro.analytics.events import EventLog
from repro.analytics.metrics_store import ModelMetricsStore
from repro.analytics.session_shapes import shape_distribution
from repro.core.checkpoint import CheckpointStore
from repro.core.rounds import RoundResult
from repro.device.actor import DeviceActor
from repro.device.attestation import AttestationService
from repro.device.cohort import CohortExecutionPlane
from repro.device.runtime import LocalTrainer, SyntheticTrainer
from repro.device.scheduler import RowScheduler
from repro.device.table import DeviceTable
from repro.nn.parameters import Parameters
from repro.sim.event_loop import SECONDS_PER_DAY, EventLoop
from repro.sim.idle_plane import ProfileTable, VectorizedIdlePlane
from repro.sim.population import DeviceProfile, build_population
from repro.sim.rng import RngRegistry, SessionStreams
from repro.system.builder import FleetBuilder, FleetValidationError, PopulationSpec
from repro.system.config import SELECTOR_RESTART_DELAY_S, FleetConfig
from repro.system.faults import FaultPlane, RecoveryLedger
from repro.system.lifecycle import (
    FleetSnapshotManifest,
    PopulationLifecycle,
    PopulationRuntime,
    read_snapshot,
    write_snapshot,
)
from repro.system.sharding import ShardRouter
from repro.system.reports import (
    FleetHealthReport,
    PopulationLifecycleReport,
    PopulationReport,
    RunReport,
    TaskReport,
    summarize_rounds,
)


@dataclass(frozen=True)
class SyntheticTrainerFactory:
    """The default per-device trainer: structurally faithful, numerically
    trivial updates (a picklable callable, so fleets that rely on it can
    be snapshotted)."""

    num_parameters: int

    def __call__(self, profile: DeviceProfile) -> LocalTrainer:
        return SyntheticTrainer(num_parameters=self.num_parameters)


class FLFleet:
    """N FL populations sharing one simulated device fleet and server."""

    def __init__(self, config: FleetConfig | None = None):
        self.config = config or FleetConfig()
        self.loop = EventLoop()
        self.rngs = RngRegistry(self.config.seed)
        self.actors = ActorSystem(self.loop, self.rngs.stream("actors/latency"))
        self.locks = LockService()
        self.actors.on_actor_terminated(self.locks.release_all)
        self.store = CheckpointStore()
        self.event_log = EventLog()
        self.dashboard = Dashboard()
        #: Fault/recovery accounting (always present; all-zero without a
        #: fault plan or crashes) — see :mod:`repro.system.faults`.
        self.recovery = RecoveryLedger(dashboard=self.dashboard)
        #: The fault-injection plane, when a plan was configured.
        self.fault_plane: FaultPlane | None = (
            FaultPlane(self, self.config.faults)
            if self.config.faults is not None
            else None
        )
        self.metrics = ModelMetricsStore()
        self.attestation = AttestationService()
        self.round_results: list[RoundResult] = []
        #: The fleet's devices by index.  A device is only a row of the
        #: idle plane outside a session: its ``DeviceActor`` is built when
        #: a round takes the row and goes when the session is over, and
        #: ``fleet.devices[i]`` of any other row is a detached look.
        self.devices = DeviceTable(self._construct_device, self._retire_device)
        #: Each device's session stream, where it stopped last session.
        self.device_streams = SessionStreams(self.rngs)
        self.actors.absent = self._configure_absent
        #: One cohort execution plane per population whose trainers can
        #: defer (built by the lifecycle plane at attach; trainers
        #: without ``attach_cohort_plane`` — synthetic ones — get none).
        self.cohort_planes: dict[str, CohortExecutionPlane] = {}
        self.selectors: list[ActorRef] = []
        #: Consistent-hash population -> selector-shard routing (the
        #: control-plane sharding plane; one shard = the unsharded,
        #: byte-identical legacy topology).
        self.shards = ShardRouter(
            num_selectors=self.config.num_selectors,
            num_shards=self.config.selector_shards,
        )
        #: The idle plane: every device's idle life, worker queue and
        #: Selector pick, as rows of fleet-wide columns.
        self.idle_plane = VectorizedIdlePlane(
            self.loop,
            self.rngs.row_draws("device/idle"),
            self.config.diurnal,
            selectors=self.selectors,
            actor_of=self.actors.actor_of,
            attestation=self.attestation,
            shard_router=self.shards,
            scheduler_policy=self.config.device_scheduler,
            capacity=self.config.population.num_devices,
            devices=self.devices,
            job=self.config.job,
            waiting_timeout_s=self.config.waiting_timeout_s,
        )
        # One row per device: its profile and link conditions are plane
        # columns (vectorized draws; a device object holds its records
        # only once built).  Memberships come and go with tenants.
        self.idle_plane.adopt_rows(
            build_population(self.config.population, self.rngs),
            self.config.job.base_interval_s,
            self.config.network.sample_conditions_batch(
                self.config.population.num_devices,
                self.rngs.stream("network/conditions"),
            ),
        )
        #: The devices' profiles, built from the plane's columns on read.
        self.profiles = ProfileTable(self.idle_plane)
        #: The population lifecycle plane: tenant registry plus the
        #: attach/drain state machine (see :mod:`repro.system.lifecycle`).
        self.lifecycle = PopulationLifecycle(self)
        self._installed = False
        #: True once the device fleet has started (devices run their idle
        #: machinery); a later attach must kick enrolled devices itself.
        self.started = False

    @staticmethod
    def builder() -> FleetBuilder:
        return FleetBuilder()

    # -- introspection -----------------------------------------------------------
    @property
    def population_names(self) -> tuple[str, ...]:
        """Currently hosted (attached or draining) populations."""
        return tuple(self.lifecycle.active)

    @property
    def coordinators(self) -> dict[str, ActorRef | None]:
        return {
            name: runtime.coordinator_ref
            for name, runtime in self.lifecycle.active.items()
        }

    def members_of(self, population_name: str) -> set[int]:
        """Device ids enrolled in a population (the last enrolled set,
        for a drained one)."""
        runtime = self.lifecycle.find(population_name)
        if runtime is None:
            raise KeyError(f"no population {population_name!r}")
        return set(runtime.members.tolist())

    def results_for(self, population_name: str) -> list[RoundResult]:
        runtime = self.lifecycle.find(population_name)
        if runtime is None:
            raise KeyError(f"no population {population_name!r}")
        return list(runtime.results)

    def selector_actors(self) -> list[Selector]:
        """The live Selector actor objects (lifecycle plane plumbing)."""
        actors = []
        for ref in self.selectors:
            actor = self.actors.actor_of(ref)
            if isinstance(actor, Selector):
                actors.append(actor)
        return actors

    # -- control-plane sharding --------------------------------------------------
    def shard_selector_indices(self, population_name: str) -> tuple[int, ...]:
        """Selector indices of the shard owning ``population_name`` (the
        full index set on an unsharded fleet)."""
        return self.shards.selector_indices_for(population_name)

    def shard_selectors(self, population_name: str) -> list[ActorRef]:
        """Refs of the owning shard's Selectors, in index order."""
        return [
            self.selectors[i]
            for i in self.shard_selector_indices(population_name)
        ]

    def shard_selector_actors(self, population_name: str) -> list[Selector]:
        """Live Selector objects of the owning shard (the lifecycle plane
        registers/drains/removes a tenant's routes through these only)."""
        actors = []
        for ref in self.shard_selectors(population_name):
            actor = self.actors.actor_of(ref)
            if isinstance(actor, Selector):
                actors.append(actor)
        return actors

    def _record_shard_fold(self, population_name: str) -> None:
        """One shard-aggregator partial folded upward for this tenant's
        round (per-shard telemetry for the aggregation tree)."""
        shard = self.shards.shard_of(population_name)
        self.dashboard.increment(f"shards/{shard}/folds")

    # -- deployment --------------------------------------------------------------
    def _install(
        self,
        specs: Sequence[PopulationSpec],
        membership_overrides: Mapping[int, tuple[str, ...]] | None = None,
    ) -> None:
        """Spawn the fleet substrate, then attach the declared populations
        through the lifecycle plane — the same path a live
        :meth:`attach_population` takes.  Called by :class:`FleetBuilder`,
        exactly once."""
        if self._installed:
            raise RuntimeError("fleet already deployed")
        if not specs:
            raise FleetValidationError("fleet declares no populations")
        self._build_substrate()
        overrides = membership_overrides or {}
        # Several tenants share one build of every row's profile (twelve
        # over the same rows would otherwise build twelve); one tenant
        # streams its members' profiles instead of holding every row's.
        profiles = self.profiles[:] if len(specs) > 1 else None
        for spec in specs:
            self.lifecycle.attach(
                spec, membership_overrides=overrides, profiles=profiles
            )
        self._start_devices()
        self.loop.schedule(self.config.sample_interval_s, self._sample_fleet)
        if self.fault_plane is not None:
            self.fault_plane.start()
        self._installed = True

    def _build_substrate(self) -> None:
        """The population-independent fleet the device rows (adopted at
        construction) do not cover: Selectors (routes come and go with
        tenants) and what every device is constructed with.  The fleet
        starts only after the builder's populations have attached."""
        config = self.config
        for i in range(config.num_selectors):
            self.selectors.append(self._spawn_selector(i).ref)
        #: What every device is constructed with.
        self._device_settings = dict(
            network=config.network,
            compute=config.compute,
            event_log=self.event_log,
            job=config.job,
            upload_retry=(
                config.faults.upload_retry if config.faults is not None else None
            ),
        )

    def _spawn_selector(self, index: int) -> Selector:
        """Selector ``index`` on its registry stream, at build and at a
        respawn (whose replacement continues the stream's cursor).  The
        fleet restarts it :data:`SELECTOR_RESTART_DELAY_S` after a crash
        (Sec. 4.4's cluster manager)."""
        selector = Selector(
            checkpoint_store=self.store,
            rng=self.rngs.stream(f"selector/{index}"),
            plane=self.idle_plane,
            index=index,
        )
        self.actors.spawn(
            selector,
            f"selector/{index}",
            restart=Restart(
                SELECTOR_RESTART_DELAY_S,
                partial(self._respawn_selector, index),
            ),
        )
        return selector

    def _respawn_selector(self, index: int, dead_ref: ActorRef) -> None:
        """Replace crashed Selector ``index``: a fresh route for every
        hosted tenant its shard owns (drain state carried over), swapped
        into entry ``index`` of the live list that Coordinators and the
        idle plane read — so nothing else is patched."""
        selector = self._spawn_selector(index)
        self.selectors[index] = selector.ref
        for runtime in self.lifecycle.active.values():
            if index in self.shard_selector_indices(runtime.name):
                selector.add_route(self.lifecycle._build_route(runtime))
        self.recovery.record("selector_respawns")

    def _construct_device(self, index: int, profile: DeviceProfile | None) -> DeviceActor:
        """Device ``index`` as an object (the table's constructor): its
        profile (``profile``, or built from its row) and link conditions,
        its row, the way to its tenants' trainers and to its session
        stream — spawned, on a started fleet, under the actor id reserved
        for it.  Pure: nothing is drawn, scheduled or written to a column,
        so *when* it happens cannot be observed."""
        plane = self.idle_plane
        profile = profile or plane.profile(index)
        device = DeviceActor(
            profile=profile,
            conditions=None,  # its row's link columns
            trainer_of=partial(self.lifecycle.trainer_of, profile.device_id),
            rng=partial(self.device_streams.open, index, f"device/{profile.device_id}"),
            plane=plane,
            row=index,
            scheduler=RowScheduler(plane.scheduler, index),
            **self._device_settings,
        )
        if self.started:
            self.actors.spawn(device, profile.name, self._first_device_actor_id + index)
        return device

    def _retire_device(self, device: DeviceActor) -> None:
        """``device``'s session (or look) is over: it stops, its stream saved."""
        self.device_streams.close(device.row)
        if self.started:
            self.actors.stop(device.ref)

    def _configure_absent(self, target: ActorRef, message: object) -> DeviceActor | None:
        """A configuration that comes after its row hung up gets a device
        built to turn it away; anything else for an absent one is dropped."""
        if not isinstance(message, ConfigureDevice):
            return None
        return self.devices.open(target.actor_id - self._first_device_actor_id)

    def _start_devices(self) -> None:
        """Fleet start.  The devices' contiguous block of actor ids is
        reserved here, so ``device-<i>`` has the same id whenever it is
        spawned; every row starts as one batch."""
        self._first_device_actor_id = self.actors.reserve_ids(len(self.devices))
        self.idle_plane.start()
        self.started = True

    # -- population lifecycle ----------------------------------------------------
    def attach_population(
        self,
        spec: PopulationSpec,
        membership: float | None = None,
        member_ids: Iterable[int] | None = None,
    ) -> PopulationRuntime:
        """Attach a new FL population to the *running* fleet.

        Spawns the tenant's Coordinator, registers its route on every
        Selector, samples memberships from the tenant's pinned stream
        (``membership`` overrides the spec's fraction; ``member_ids``
        pins the set explicitly), installs per-member trainers, and kicks
        newly-enrolled idle devices so their first check-in lands within
        one job interval.  New rounds start as soon as enough members
        pool at the Selectors.
        """
        if not self._installed:
            raise RuntimeError(
                "no fleet deployed: build the fleet before attaching "
                "populations mid-run (builder populations attach at build)"
            )
        return self.lifecycle.attach(
            spec, membership=membership, member_ids=member_ids
        )

    def drain_population(
        self, population_name: str, deadline_s: float = 7200.0
    ) -> PopulationLifecycleReport:
        """Retire a population from the running fleet.

        Stops admission immediately, lets the in-flight round and device
        sessions wind down (advancing simulated time, other tenants
        unaffected), then retires the Coordinator, removes every
        Selector route, and strips memberships and on-device scheduler
        queues.  Sessions still alive ``deadline_s`` simulated seconds
        in are forcibly interrupted.  The tenant's final committed
        checkpoint stays readable via :meth:`global_model` and the
        checkpoint store.
        """
        return self.lifecycle.drain(population_name, deadline_s=deadline_s)

    def snapshot(self, path) -> FleetSnapshotManifest:
        """Freeze the whole fleet to ``path`` (a pure read; the running
        fleet is not perturbed).  See :func:`repro.system.lifecycle.
        write_snapshot`."""
        return write_snapshot(self, path)

    @classmethod
    def restore(cls, path) -> "FLFleet":
        """Resume a fleet frozen by :meth:`snapshot`.

        The restored fleet continues byte-identically to the original:
        same pending events, same RNG stream cursors, same per-tenant
        round counters — ``restore(p).run_days(d)`` reports exactly what
        the uninterrupted fleet would have reported.
        """
        return read_snapshot(path)

    # -- population plumbing (lifecycle plane entry points) ----------------------
    def enroll_cohort_trainer(self, name: str, trainer: LocalTrainer) -> None:
        """Attach a deferral-capable trainer to its population's cohort
        execution plane (created on first enrollment from the trainer's
        own model, so custom trainer factories keep working)."""
        attach = getattr(trainer, "attach_cohort_plane", None)
        if attach is None:
            return
        plane = self.cohort_planes.get(name)
        if plane is None:
            plane = CohortExecutionPlane(trainer.model)
            self.cohort_planes[name] = plane
        attach(plane)

    def retire_cohort_plane(self, name: str) -> None:
        self.cohort_planes.pop(name, None)

    def resolve_trainer_factory(self, spec: PopulationSpec):
        if spec.trainer_factory is not None:
            return spec.trainer_factory
        return SyntheticTrainerFactory(spec.initial_params.num_parameters)

    # -- telemetry ------------------------------------------------------------
    def _on_round_result(self, population_name: str, result: RoundResult) -> None:
        runtime = self.lifecycle.find(population_name)
        if runtime is None:
            return
        self.round_results.append(result)
        runtime.results.append(result)
        if result.committed:
            # Crash->next-commit recovery latency (no-op when no crash is
            # pending, so healthy runs pay one list check).
            self.recovery.record_commit(result.ended_at_s)
        t = result.ended_at_s
        for board in (self.dashboard, runtime.scope):
            board.record("rounds/outcome", t, 1.0 if result.committed else 0.0)
            board.record("rounds/completed_devices", t, result.completed_count)
            board.record("rounds/aborted_devices", t, result.aborted_count)
            board.record("rounds/dropped_devices", t, result.dropped_count)
            board.record("rounds/drop_rate", t, result.drop_rate)
            board.record("rounds/run_time_s", t, result.round_run_time_s)
            board.increment("rounds/total")
            if result.committed:
                board.increment("rounds/committed")

    def _sample_fleet(self) -> None:
        now = self.loop.now
        plane = self.idle_plane
        # Census from the plane's tallies and columns: no device is visited.
        for state, count in plane.state_counts().items():
            self.dashboard.record(f"devices/{state.value}", now, count)
        scheduler = plane.scheduler
        slots = scheduler._running[plane.participating_rows()]
        per_slot = np.bincount(
            slots[slots >= 0], minlength=len(scheduler.tenants)
        ).tolist()
        for name, runtime in self.lifecycle.active.items():
            slot = scheduler._slot_of.get(name)
            count = per_slot[slot] if slot is not None else 0
            runtime.scope.record("devices/participating", now, count)
        self.loop.schedule(self.config.sample_interval_s, self._sample_fleet)

    # -- running ------------------------------------------------------------
    def run_for(self, duration_s: float) -> None:
        if not self._installed:
            raise RuntimeError(
                "no populations deployed: build the fleet before running"
            )
        self.loop.run_for(duration_s)

    def run_days(self, days: float) -> None:
        self.run_for(days * SECONDS_PER_DAY)

    # -- results ------------------------------------------------------------
    @property
    def committed_rounds(self) -> list[RoundResult]:
        return [r for r in self.round_results if r.committed]

    def session_shapes(self):
        return shape_distribution(self.event_log)

    def global_model(self, population_name: str | None = None) -> Parameters:
        if population_name is None:
            # Implicit resolution covers the single-tenant case; hosted
            # populations only, so a long-retired tenant never blocks it
            # (drained models stay reachable by name).
            names = list(self.lifecycle.active)
            if not names:
                retired = [r.name for r in self.lifecycle.retired]
                raise ValueError(
                    "fleet hosts no populations; drained tenants' final "
                    f"models remain reachable by name (one of {retired})"
                )
            if len(names) > 1:
                raise ValueError(
                    "fleet hosts several populations; name the one whose "
                    f"model you want (one of {names})"
                )
            population_name = names[0]
        return self.store.latest(population_name).to_params()

    def health_report(self) -> FleetHealthReport:
        """Fleet-wide health telemetry (Sec. 5): training time, session
        counts, errors by kind, and OS-version / population breakdowns —
        all PII-free aggregates of per-device counters, read off the idle
        plane's columns in device-index order (the summaries are
        streaming sketches, so order is part of the result).  No device
        is visited."""
        from repro.analytics.quantile import MetricSummary

        plane = self.idle_plane
        rows = len(self.devices)
        per_tenant = plane.scheduler.session_counts(rows)
        train_seconds = MetricSummary.empty()
        for seconds in plane.train_seconds[:rows].tolist():
            train_seconds.update(seconds)
        sessions = MetricSummary.empty()
        by_os: dict[int, int] = {}
        for os_version, count in zip(
            self.profiles.column("os_version").tolist(),
            per_tenant.sum(axis=1).tolist(),
        ):
            sessions.update(count)
            by_os[os_version] = by_os.get(os_version, 0) + count
        totals = dict(zip(plane.scheduler.tenants, per_tenant.sum(axis=0).tolist()))
        by_population = {
            runtime.name: totals.get(runtime.name, 0) for runtime in self.lifecycle.runtimes()
        }
        return FleetHealthReport(
            train_seconds=train_seconds.to_dict(),
            sessions=sessions.to_dict(),
            errors_by_reason=dict(plane.errors_by_reason),
            sessions_by_os_version=by_os,
            sessions_by_population=by_population,
        )

    def report(self) -> RunReport:
        """The structured results of the run so far (drained populations
        included — their rounds happened on this fleet)."""
        total, committed, drop, completed, run_time = summarize_rounds(
            self.round_results
        )
        health = self.health_report()
        populations = []
        for runtime in self.lifecycle.runtimes():
            p_total, p_committed, p_drop, p_completed, p_run_time = (
                summarize_rounds(runtime.results)
            )
            populations.append(
                PopulationReport(
                    name=runtime.name,
                    rounds_total=p_total,
                    rounds_committed=p_committed,
                    mean_drop_rate=p_drop,
                    mean_completed_per_round=p_completed,
                    mean_round_time_s=p_run_time,
                    device_sessions=health.sessions_by_population[runtime.name],
                    member_devices=len(runtime.members),
                    tasks=tuple(
                        TaskReport(
                            task_id=task.task_id,
                            kind=task.kind.value,
                            rounds_started=task.rounds_started,
                            rounds_committed=task.rounds_committed,
                        )
                        for task in runtime.fl_population.tasks
                    ),
                )
            )
        meter = self.config.network.meter
        return RunReport(
            simulated_seconds=self.loop.now,
            rounds_total=total,
            rounds_committed=committed,
            mean_drop_rate=drop,
            mean_completed_per_round=completed,
            mean_round_time_s=run_time,
            download_bytes=meter.downloaded_bytes,
            upload_bytes=meter.uploaded_bytes,
            populations=tuple(populations),
            health=health,
            recovery=self.recovery.build_report(
                rounds_total=total,
                rounds_committed=committed,
                upload_retries=int(self.idle_plane.upload_retries.sum()),
                upload_retries_exhausted=int(
                    self.idle_plane.upload_retries_exhausted.sum()
                ),
            ),
        )
