"""Dynamic tenancy: attach, drain, and restore populations on a LIVE fleet.

The paper's FL server is long-lived — training workloads come and go
while the device fleet keeps running (Sec. 9's "multiple concurrent
training sessions").  This example drives the population lifecycle plane
end to end:

1. a fleet starts with one tenant ("keyboard") and runs for a while;
2. a second tenant ("ranker") is **attached mid-run** — coordinator
   spawned, Selector routes registered, memberships sampled, idle
   devices kicked — and starts committing rounds on the live fleet;
3. the whole fleet is **snapshotted** mid-flight (a pure read);
4. the ranker tenant is **drained**: admission stops, in-flight work
   winds down, the coordinator retires, devices forget the tenant —
   its final committed checkpoint stays in the store;
5. the snapshot is **restored** and run over the same horizon without
   the drain, showing the same fleet continuing byte-identically down a
   different lifecycle script.

    python examples/dynamic_tenancy.py
"""

import os
import tempfile

import numpy as np

from repro import FLFleet, PopulationSpec, RoundConfig, TaskConfig
from repro.device.scheduler import JobSchedule
from repro.nn.models import LogisticRegression
from repro.sim.population import PopulationConfig

HOUR = 3600.0


def round_config() -> RoundConfig:
    return RoundConfig(
        target_participants=12, selection_timeout_s=90, reporting_timeout_s=180
    )


def ranker_spec() -> PopulationSpec:
    model = LogisticRegression(input_dim=6, n_classes=3)
    return PopulationSpec(
        name="ranker",
        tasks=[
            TaskConfig(
                task_id="ranker/train",
                population_name="ranker",
                round_config=round_config(),
            )
        ],
        initial_params=model.init(np.random.default_rng(1)),
        membership_fraction=0.5,
    )


def main() -> None:
    keyboard_model = LogisticRegression(input_dim=10, n_classes=4)
    fleet = (
        FLFleet.builder()
        .seed(23)
        .devices(PopulationConfig(num_devices=250))
        .selectors(2)
        .job(JobSchedule(900.0, 0.5))
        .device_scheduler("fair_share")
        .population(
            "keyboard",
            tasks=[
                TaskConfig(
                    task_id="keyboard/train",
                    population_name="keyboard",
                    round_config=round_config(),
                )
            ],
            model=keyboard_model.init(np.random.default_rng(0)),
        )
        .build()
    )

    print("== 1. single-tenant warm-up (2h) ==")
    fleet.run_for(2 * HOUR)
    print(f"keyboard rounds committed: "
          f"{fleet.report().population('keyboard').rounds_committed}")

    print("\n== 2. attach 'ranker' on the LIVE fleet ==")
    runtime = fleet.attach_population(ranker_spec())
    print(f"attached at t={runtime.attached_at_s / HOUR:.1f}h with "
          f"{len(runtime.members)} member devices")
    fleet.run_for(2 * HOUR)
    mid = fleet.report()
    print(f"ranker rounds committed mid-run: "
          f"{mid.population('ranker').rounds_committed}")
    assert mid.population("ranker").rounds_committed > 0

    print("\n== 3. snapshot the running fleet (pure read) ==")
    snap_path = os.path.join(tempfile.mkdtemp(), "fleet.snap")
    manifest = fleet.snapshot(snap_path)
    for entry in manifest.populations:
        print(f"  {entry.name}: state={entry.state} "
              f"rounds={entry.rounds_committed}/{entry.rounds_total}")

    print("\n== 4. drain 'ranker' from the live fleet ==")
    drain = fleet.drain_population("ranker", deadline_s=HOUR)
    print(f"drained in {drain.drain_duration_s:.0f}s simulated "
          f"(clean={drain.clean}, forced interrupts="
          f"{drain.forced_session_interrupts})")
    print(f"final committed checkpoint: round {drain.final_round_number}")
    assert all("ranker" not in s.routes for s in fleet.selector_actors())
    # The drained tenant's last members, by id: walking ``fleet.devices``
    # would build (and retire) a DeviceActor for every row of the fleet.
    assert all(
        "ranker" not in fleet.devices[i].memberships
        for i in fleet.members_of("ranker")
    )
    fleet.run_for(1 * HOUR)
    post = fleet.report()
    print(f"keyboard keeps training after the drain: "
          f"{post.population('keyboard').rounds_committed} rounds")

    print("\n== 5. restore the snapshot and run the road not taken ==")
    restored = FLFleet.restore(snap_path)
    print(f"restored at t={restored.loop.now / HOUR:.2f}h with tenants "
          f"{list(restored.population_names)}")
    restored.run_for(2 * HOUR)
    alt = restored.report()
    print(f"without the drain, ranker reached "
          f"{alt.population('ranker').rounds_committed} committed rounds")
    assert alt.population("ranker").rounds_committed >= (
        mid.population("ranker").rounds_committed
    )
    os.remove(snap_path)

    print("\nlifecycle demo complete.")


if __name__ == "__main__":
    main()
