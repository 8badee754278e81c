"""The batched check-in sweep against the per-row loop it replaced.

Two identically seeded fleets get the same generated due-set — over 1-3
selectors x 1-3 tenants, with quotas running out mid-sweep, paused and
draining routes, failed attestation, incompatible runtimes and unknown
populations.  One sweeps it with ``VectorizedIdlePlane._sweep``; the other
walks it with ``reference_checkin_loop`` below, the old row-at-a-time
code kept here as the oracle.  Everything the screen touches must agree,
including the *order* in which admitted devices materialize: it fixes
the shared ``actors/latency`` stream.
"""

from dataclasses import asdict, replace

import numpy as np

from repro import FLFleet
from repro.actors.selector import SelectorStats
from repro.core.config import RoundConfig, TaskConfig
from repro.device.actor import DeviceActor
from repro.device.runtime import SyntheticTrainer
from repro.nn.models import MLPClassifier
from repro.sim.population import PopulationConfig

_INF = float("inf")


def reference_checkin_loop(plane, now):
    """One sweep's check-ins the way ``_run_sweep`` made them before the
    batch: every due row walked through its own calls and array writes —
    and its own draw, taken from the row stream one row at a time."""
    plane.sweeps += 1
    plane._sweeping = True
    for i in np.nonzero(plane._next_event_t <= now)[0].tolist():
        pick, sample = (float(u[0]) for u in plane._draw(np.array([i])))
        if plane.next_checkin_t[i] > now:
            continue
        plane.next_checkin_t[i] = _INF
        plane._next_event_t[i] = plane.next_flip_t[i]
        if not plane.eligible[i] or plane.active[i]:
            continue
        plane.checkins_dispatched += 1
        device = plane._devices[i]
        cached = plane._attestation_ok[i]
        verdict = bool(cached) if cached >= 0 else None
        plane.pending_window_t[i] = -_INF
        window = device._attempt_screened_checkin(verdict, pick)
        if window is None:
            continue
        plane.checkins_fast_rejected += 1
        reconnect_at = window.earliest_s + (window.latest_s - window.earliest_s) * sample
        device.idle.set_pending_window(reconnect_at)
        device.idle.schedule_checkin(max(reconnect_at - now, 1.0))
        if verdict:
            device.attestation.verified_count += 1
        else:
            device.attestation.rejected_count += 1
    plane._sweeping = False
    plane._rearm()


def build_fleet(selectors: int, tenants: int):
    params = MLPClassifier(input_dim=8, hidden_dims=(8,), n_classes=4).init(
        np.random.default_rng(0)
    )
    builder = (
        FLFleet.builder()
        .seed(5)
        .devices(PopulationConfig(num_devices=80))
        .selectors(selectors)
    )
    for t in range(tenants):
        name = f"tenant{t}"
        task = TaskConfig(
            task_id=f"train/{name}",
            population_name=name,
            round_config=RoundConfig(target_participants=5),
        )
        builder.population(name, tasks=[task], model=params, membership=0.7)
    return builder.build()


def stage_due_set(fleet, scenario: np.random.Generator):
    """Mutate ``fleet`` into the generated scenario; returns the due rows."""
    plane = fleet.idle_plane
    now = fleet.loop.now
    for selector in fleet.selector_actors():
        if scenario.random() < 0.2:
            selector._paused = True
        for name, route in selector.routes.items():
            # A handful of slots: the quota runs out mid-sweep.
            route.pool_cap = int(scenario.integers(1, 8))
            if scenario.random() < 0.15:
                selector.begin_drain(name)
    members = [
        i for i, d in enumerate(fleet.devices)
        if d.memberships and not plane.active[i]
    ]
    rows = sorted(
        scenario.choice(members, size=min(50, len(members)), replace=False).tolist()
    )
    for i in rows:
        device = fleet.devices[i]
        plane.eligible[i] = True
        plane.next_flip_t[i] = now + 1e6
        plane.next_checkin_t[i] = plane._next_event_t[i] = now
        plane.pending_window_t[i] = now - 1.0
        kind = scenario.random()
        if kind < 0.1:
            plane._attestation_ok[i] = 0
        elif kind < 0.2:
            device.profile = replace(device.profile, runtime_version=0)
        elif kind < 0.3:
            device.memberships = ("ghost",)
            device.trainers["ghost"] = SyntheticTrainer(num_parameters=10)
    plane._eligible_count = int(plane.eligible.sum())
    return rows


def observe(fleet):
    plane = fleet.idle_plane
    routes = {
        (selector.ref.name, name): (asdict(route.stats), route.pending_admissions)
        for selector in fleet.selector_actors()
        for name, route in selector.routes.items()
    }
    return {
        "routes": routes,
        "attestation": (
            fleet.attestation.verified_count, fleet.attestation.rejected_count
        ),
        "pending_window_t": plane.pending_window_t.tolist(),
        "next_checkin_t": plane.next_checkin_t.tolist(),
        "next_event_t": plane._next_event_t.tolist(),
        "active": plane.active.tolist(),
        "draw_count": plane._draw_count.tolist(),
        "counters": (
            plane.sweeps, plane.checkins_dispatched,
            plane.checkins_fast_rejected, plane.materializations,
        ),
        "health_checkins": [d.health.checkins for d in fleet.devices],
        "latency_stream": repr(
            fleet.rngs.stream("actors/latency").bit_generator.state
        ),
        "sweeper": plane._sweeper.armed_at,
    }


def run_scenario(scenario_seed: int, sweep: str, materialized: list[int]):
    shape = np.random.default_rng([scenario_seed, 0])
    fleet = build_fleet(int(shape.integers(1, 4)), int(shape.integers(1, 4)))
    fleet.run_for(600.0)
    rows = stage_due_set(fleet, np.random.default_rng([scenario_seed, 1]))
    materialized.clear()
    if sweep == "batched":
        fleet.idle_plane._sweep()
    else:
        reference_checkin_loop(fleet.idle_plane, fleet.loop.now)
    order = list(materialized)
    seen = observe(fleet)
    fleet.run_for(3600.0)
    return rows, order, seen, fleet.report()


def test_batched_checkin_sweep_matches_per_row_reference(monkeypatch):
    materialized: list[int] = []
    original = DeviceActor._materialize_checkin

    def recording(self, started):
        materialized.append(self.device_id)
        original(self, started)

    monkeypatch.setattr(DeviceActor, "_materialize_checkin", recording)

    exercised = SelectorStats()
    for scenario_seed in range(12):
        rows, order, seen, report = run_scenario(scenario_seed, "batched", materialized)
        ref_rows, ref_order, ref_seen, ref_report = run_scenario(
            scenario_seed, "reference", materialized
        )
        assert rows == ref_rows
        for key in seen:
            assert seen[key] == ref_seen[key], (scenario_seed, key)
        # Admitted devices materialize in device-index order, in both.
        assert order == ref_order == sorted(order)
        assert report == ref_report
        for stats, _pending in seen["routes"].values():
            exercised += SelectorStats(**stats)
    # Across the scenarios the screen took every exit.
    for reason in (
        "rejected_quota", "rejected_attestation", "rejected_incompatible",
        "rejected_unknown_population", "rejected_draining",
    ):
        assert getattr(exercised, reason) > 0, reason
