"""The array check-in dispatch against the per-row loop it replaced.

Two identically seeded fleets live through the same generated scenario —
1-3 selectors (sometimes sharded) x 1-3 tenants under ``fifo`` or
``fair_share``, a fleet with failed attestations and incompatible
runtimes in it, quotas that run out mid-sweep, draining routes, unknown
populations, busy on-device workers — over several staged sweeps, with a
tenant attached, the fleet snapshotted and restored, and a tenant
drained in between.

One fleet runs ``VectorizedIdlePlane._checkin_rows`` as shipped: column
scheduler, one Selector verdict per group, bounces as vector writes.  The
other runs ``reference_checkin_rows`` below for its whole life — the old
row-at-a-time code kept here as the oracle: every due row walked through
its own ``MultiTenantScheduler``, its own scalar screen and its own
rejection (memberships it reads where they live, in the plane's columns,
it hears of a drain and of a worker freed by a vector write through
``reference_leave`` / ``reference_abort_rows``, and the drain reads its
quiescence by ``reference_occupied_by``, the per-device walk the vector
read replaced).  The rows both admit WAIT through the same
``_wait_rows``.  Everything a check-in touches must agree after every
sweep, each device's worker queue, the pools' columns and the *order* in
which a round's Selectors forward rows included: it fixes the shared
``actors/latency`` stream.
"""

from collections import Counter
from dataclasses import asdict

import numpy as np

from reference.scheduler import MultiTenantScheduler
from repro import FLFleet
from repro.actors.selector import Selector
from repro.core.config import RoundConfig, TaskConfig
from repro.device.scheduler import ColumnScheduler, RowScheduler
from repro.nn.models import MLPClassifier
from repro.sim.idle_plane import VectorizedIdlePlane
from repro.sim.population import PopulationConfig
from repro.system.builder import PopulationSpec

_INF = float("inf")
SWEEPS = 4
CONSTRUCT_DEVICE = FLFleet._construct_device
PARAMS = MLPClassifier(input_dim=8, hidden_dims=(8,), n_classes=4).init(
    np.random.default_rng(0)
)


# -- the oracle: the per-row check-in as it was before the array dispatch --------


def reference_verdict(selector, route, attestation_ok, runtime_version, pending):
    """The admission policy for one screened check-in, the sweep's
    earlier admissions (``pending``) counted against the quota."""
    if route.draining:
        route.stats.rejected_draining += 1
        return "draining"
    if not attestation_ok:
        route.stats.rejected_attestation += 1
        return "attestation_failed"
    if route.plans.plan_for_runtime(runtime_version) is None:
        route.stats.rejected_incompatible += 1
        return "no_compatible_plan"
    if selector.connected_count_for(route.population_name) + pending >= route.pool_cap:
        route.stats.rejected_quota += 1
        return "over_quota"
    return None


def reference_screen(selector, population_name, device, attestation_ok, pending):
    """``Selector.fast_checkin_decision`` for one device: the rejection
    window, or ``None`` to join the pool (``pending`` counts the sweep's
    admissions per route)."""
    route = selector.routes.get(population_name)
    if route is None:
        if not selector.routes:
            return None
        fallback = next(iter(selector.routes.values()))
        fallback.stats.checkins += 1
        fallback.stats.rejected_unknown_population += 1
        return selector._suggest_window(fallback)
    route.stats.checkins += 1
    key = (selector.index, population_name)
    reason = reference_verdict(
        selector, route, attestation_ok, device.profile.runtime_version,
        pending.get(key, 0),
    )
    if reason is not None:
        return selector._suggest_window(route)
    route.stats.accepted += 1
    pending[key] = pending.get(key, 0) + 1
    return None


def reference_pool(plane, population_name):
    """The indices of the Selectors a tenant's devices may check in to
    (its owning shard's), from what the plane holds."""
    return plane._shard_router.selector_indices_for(population_name)


def memberships_of(plane, i):
    """Row ``i``'s tenants, read off the membership columns (a reference
    device's ``scheduler`` is not its row's view)."""
    return RowScheduler(plane.scheduler, i).memberships


def reference_attempt(plane, device, attestation_ok, pick, pending):
    """A device's check-in as it was, row at a time: the worker queue
    dance, the Selector pick, the screen, and the device half of a
    rejection.  Returns the window when bounced, ``(tenant slot, Selector
    index)`` when admitted (a crashed Selector's index is nowhere's), and
    ``None`` when nothing was started.  The worker's running slot is
    mirrored on the plane's column, where a WAITING row's tenant lives."""
    memberships = memberships_of(plane, device.device_id)
    if not memberships:
        return None
    for membership in memberships:
        device.scheduler.enqueue(membership)
    started = device.scheduler.try_start()
    if started is None:
        plane.schedule_checkin(device.row, device.job.delay_at(pick))
        return None
    slot = plane.scheduler.slot(started)
    plane.scheduler._running[device.row] = slot
    pool = reference_pool(plane, started)
    index = pool[int(pick * len(pool))]
    selector = device.system.actor_of(plane._selectors[index])
    if isinstance(selector, Selector):
        window = reference_screen(selector, started, device, attestation_ok, pending)
    else:
        window, index = None, len(plane._selectors)
    plane._health_checkins[device.row] += 1
    if window is None:
        return slot, index
    device.scheduler.abort()
    plane.scheduler._running[device.row] = -1
    return window


def reference_checkin_rows(self, rows, u_pick, u_window, now):
    """``VectorizedIdlePlane._checkin_rows`` with the row loop in it."""
    self.next_checkin_t[rows] = _INF
    self._next_event_t[rows] = self.next_flip_t[rows]
    go = self.eligible[rows] & ~self.active[rows]
    rows, u_pick, u_window = rows[go], u_pick[go], u_window[go]
    self.checkins_dispatched += rows.size
    self.pending_window_t[rows] = -_INF
    rejected, windows, waiting, pending = [], [], [], {}
    for j, (i, attested, pick) in enumerate(zip(
        rows.tolist(), self._attestation_ok[rows].tolist(), u_pick.tolist()
    )):
        outcome = reference_attempt(self, self._devices[i], attested, pick, pending)
        if isinstance(outcome, tuple):
            waiting.append((i, *outcome))
        elif outcome is not None:
            rejected.append(j)
            windows.append(outcome)
    if waiting:
        if len(self._pools) != len(self.scheduler.tenants):
            self._resolve_pools()
        admitted, slots, at = (np.array(column) for column in zip(*waiting))
        self._wait_rows(admitted, slots, at, now)
    if not rejected:
        return
    self.checkins_fast_rejected += len(rejected)
    rows = rows[rejected]
    earliest = np.array([w.earliest_s for w in windows])
    latest = np.array([w.latest_s for w in windows])
    reconnect_at = earliest + (latest - earliest) * u_window[rejected]
    checkin_t = now + np.maximum(reconnect_at - now, 1.0)
    self.pending_window_t[rows] = reconnect_at
    self.next_checkin_t[rows] = checkin_t
    self._next_event_t[rows] = np.minimum(self.next_flip_t[rows], checkin_t)


def reference_leave(fleets):
    """``ColumnScheduler.leave`` for the reference run, whose worker queues
    are not the columns: a drain's first phase also drops the tenant's
    queued request from each leaving device's ``MultiTenantScheduler``
    (``fleets[-1]`` is the run's fleet, as last reborn)."""
    original = ColumnScheduler.leave

    def leave(self, rows, name):
        original(self, rows, name)
        devices = fleets[-1].devices
        for i in rows.tolist():
            devices[i].scheduler.remove(name)

    return leave


def reference_abort_rows(fleets):
    """``ColumnScheduler.abort_rows`` for the reference run: a worker freed
    by a vector write (a hang-up, a bounce out of the pool) is freed on
    each device's own ``MultiTenantScheduler`` too."""
    original = ColumnScheduler.abort_rows

    def abort_rows(self, rows):
        original(self, rows)
        devices = fleets[-1].devices
        for i in rows.tolist():
            devices[i].scheduler.abort()

    return abort_rows


def _construct_device(self, index, profile):
    """``FLFleet._construct_device`` for the reference run: a device built
    for a row — a look, or one for a session — carries the row's own
    ``MultiTenantScheduler``.  (Named as the method it stands in for: a
    snapshot pickles the device table's bound constructor by name.)"""
    device = CONSTRUCT_DEVICE(self, index, profile)
    device.scheduler = self.reference_schedulers[index]
    return device


def reference_occupied_by(fleets):
    """``ColumnScheduler.occupied_by`` — a drain's quiescence read — for
    the reference run: the per-device walk it replaced, over the devices'
    own ``MultiTenantScheduler``s."""

    def occupied_by(self, rows, name):
        devices = fleets[-1].devices
        return any(
            devices[i].scheduler.running == name or devices[i].scheduler.is_queued(name)
            for i in rows.tolist()
        )

    return occupied_by


# -- scenarios --------------------------------------------------------------------


def spec_for(name: str, membership: float = 0.7) -> PopulationSpec:
    task = TaskConfig(
        task_id=f"train/{name}",
        population_name=name,
        round_config=RoundConfig(target_participants=5),
    )
    return PopulationSpec(
        name=name, tasks=[task], initial_params=PARAMS,
        membership_fraction=membership,
    )


def build_fleet(selectors: int, shards: int, tenants: int, policy: str):
    builder = (
        FLFleet.builder()
        .seed(5)
        # One device in ten fails attestation, one in ten runs a runtime
        # no plan serves.
        .devices(PopulationConfig(
            num_devices=120,
            runtime_versions=(0, 8, 9, 10),
            runtime_weights=(0.1, 0.2, 0.3, 0.4),
            compromised_fraction=0.1,
        ))
        .selectors(selectors)
        .selector_shards(shards)
        .device_scheduler(policy)
    )
    for t in range(tenants):
        builder.add_spec(spec_for(f"tenant{t}"))
    return builder.build()


def stage_due_set(fleet, scenario: np.random.Generator, first: bool):
    """Stage the next sweep through the fleet's own interfaces; returns
    the rows made due."""
    plane = fleet.idle_plane
    for selector in fleet.selector_actors():
        for name, route in selector.routes.items():
            # A handful of slots: the quota runs out mid-sweep.
            route.pool_cap = selector.connected_count_for(name) + int(
                scenario.integers(1, 8)
            )
            if first and scenario.random() < 0.15:
                selector.begin_drain(name)
    idle = plane.eligible & ~plane.active & plane._has_memberships
    candidates = np.nonzero(idle)[0]
    rows = sorted(scenario.choice(
        candidates, size=min(40, candidates.size), replace=False
    ).tolist())
    for i in rows:
        device = fleet.devices[i]
        kind = scenario.random()
        if kind < 0.1 and "ghost" not in memberships_of(plane, i):
            # A population no Selector routes.
            row = np.array([i])
            plane.scheduler.enroll(row, "ghost")
            plane.memberships_changed(row)
        elif kind < 0.2:
            if device.scheduler.running is None:
                # The worker is busy with a session of its own.
                device.scheduler.enqueue(memberships_of(plane, i)[-1])
                device.scheduler.try_start()
            else:
                device.scheduler.abort()
        plane.schedule_checkin(i, 0.0)
    return rows


def scheduler_state(scheduler):
    if isinstance(scheduler, RowScheduler):
        queue = scheduler.queue
        started = scheduler._columns._last_started[scheduler._row]
        recency = {
            name: int(started[slot])
            for slot, name in enumerate(scheduler._columns.tenants)
            if started[slot] >= 0
        }
    else:
        assert isinstance(scheduler, MultiTenantScheduler)
        queue = list(scheduler._queue)
        recency = scheduler._last_started
    # Clock readings differ; who started longer ago than whom must not.
    return scheduler.running, queue, sorted(recency, key=recency.get)


def observe(fleet):
    plane = fleet.idle_plane
    routes = {
        (selector.ref.name, name): (
            asdict(route.stats), selector.connected_count_for(name)
        )
        for selector in fleet.selector_actors()
        for name, route in selector.routes.items()
    }
    return {
        "now": fleet.loop.now,
        "routes": routes,
        "pending_window_t": plane.pending_window_t.tolist(),
        "next_checkin_t": plane.next_checkin_t.tolist(),
        "next_event_t": plane._next_event_t.tolist(),
        "active": plane.active.tolist(),
        "waiting_at": plane._waiting_at.tolist(),
        "connected_at": plane.connected_at_s.tolist(),
        "waiting": [
            (index, value) for index, value in np.ndenumerate(plane._waiting) if value
        ],
        "draw_count": plane._draw_count.tolist(),
        "counters": (
            plane.sweeps, plane.checkins_dispatched,
            plane.checkins_fast_rejected, plane.materializations,
        ),
        "health_checkins": [d.health.checkins for d in fleet.devices],
        "schedulers": [scheduler_state(d.scheduler) for d in fleet.devices],
        "memberships": [memberships_of(plane, i) for i in range(len(plane))],
        "latency_stream": repr(
            fleet.rngs.stream("actors/latency").bit_generator.state
        ),
        "sweeper": plane._sweeper.armed_at,
    }


def run_scenario(scenario_seed: int, reference: list | None, materialized: list, tmp_path):
    """``reference``: ``None`` for the dispatch as shipped; for the oracle
    run a list, which receives the fleet each time it is (re)born."""
    shape = np.random.default_rng([scenario_seed, 0])
    selectors = int(shape.integers(1, 4))
    shards = int(shape.integers(1, selectors + 1))
    tenants = int(shape.integers(1, 4))
    policy = ("fifo", "fair_share")[scenario_seed % 2]
    fleet = build_fleet(selectors, shards, tenants, policy)
    if reference is not None:
        reference.append(fleet)
        # Each row's own worker queue, held by the fleet (so a snapshot
        # freezes it) and handed to every device object built for the row.
        fleet.reference_schedulers = [
            MultiTenantScheduler(policy) for _ in range(len(fleet.devices))
        ]
        assert fleet.devices[0].scheduler is fleet.reference_schedulers[0]
    fleet.run_for(600.0)
    scenario = np.random.default_rng([scenario_seed, 1])
    materialized.clear()
    seen = []
    for sweep in range(SWEEPS):
        rows = stage_due_set(fleet, scenario, first=sweep == 0)
        fleet.run_for(fleet.idle_plane.sweep_interval_s)
        seen.append((rows, list(materialized), observe(fleet)))
        # Between sweeps the tenant set changes and the fleet is reborn.
        if sweep == 0:
            fleet.attach_population(spec_for("late", membership=0.5))
        elif sweep == 1:
            path = tmp_path / f"fleet-{scenario_seed}-{reference is None}.snapshot"
            fleet.snapshot(path)
            fleet = FLFleet.restore(path)
            if reference is not None:
                reference.append(fleet)
        elif sweep == 2:
            fleet.drain_population("tenant0", deadline_s=300.0)
    fleet.run_for(3600.0)
    seen.append(([], list(materialized), observe(fleet)))
    return seen, fleet.report()


def test_batched_checkin_sweep_matches_per_row_reference(monkeypatch, tmp_path):
    materialized: list[int] = []
    original = VectorizedIdlePlane.forward

    def recording(self, rows):
        materialized.extend(rows.tolist())
        return original(self, rows)

    monkeypatch.setattr(VectorizedIdlePlane, "forward", recording)

    exercised = Counter()
    busy_retries = groups = 0
    for scenario_seed in range(10):
        seen, report = run_scenario(scenario_seed, None, materialized, tmp_path)
        with monkeypatch.context() as patch:
            fleets: list[FLFleet] = []
            patch.setattr(VectorizedIdlePlane, "_checkin_rows", reference_checkin_rows)
            patch.setattr(FLFleet, "_construct_device", _construct_device)
            patch.setattr(ColumnScheduler, "leave", reference_leave(fleets))
            patch.setattr(ColumnScheduler, "abort_rows", reference_abort_rows(fleets))
            patch.setattr(ColumnScheduler, "occupied_by", reference_occupied_by(fleets))
            ref_seen, ref_report = run_scenario(
                scenario_seed, fleets, materialized, tmp_path
            )
        for step, ((rows, order, state), (ref_rows, ref_order, ref_state)) in enumerate(
            zip(seen, ref_seen, strict=True)
        ):
            assert rows == ref_rows
            for key in state:
                assert state[key] == ref_state[key], (scenario_seed, step, key)
            assert order == ref_order, (scenario_seed, step)
        assert report == ref_report
        for stats, _pending in seen[-1][2]["routes"].values():
            exercised.update(stats)
        busy_retries += sum(
            1 for running, queue, _ in seen[0][2]["schedulers"] if running and queue
        )
        groups = max(groups, len(seen[0][2]["routes"]))
    # Across the scenarios the screen took every exit, workers were found
    # busy, and a sweep spanned several (selector, tenant) groups.
    for reason in (
        "rejected_quota", "rejected_attestation", "rejected_incompatible",
        "rejected_unknown_population", "rejected_draining", "accepted",
    ):
        assert exercised[reason] > 0, reason
    assert busy_retries > 0 and groups > 1
