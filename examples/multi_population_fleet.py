"""Two FL populations sharing one 600-device fleet (multi-tenancy, Sec. 2).

The paper's server hosts *many* FL populations at once: here a next-word
training population ("keyboard") and a federated-analytics population
("telemetry", an evaluation-style task whose product is metrics, not model
updates) run concurrently on one shared event loop, actor server, and
device fleet.  60% of devices are enrolled in both populations; their
on-device worker queue (Sec. 11 "Device Scheduling") serializes the two
tenants' sessions.

    python examples/multi_population_fleet.py
"""

import numpy as np

from repro import FLFleet, RoundConfig, TaskConfig, TaskKind
from repro.device.scheduler import JobSchedule
from repro.nn.models import BagOfWordsLanguageModel, LogisticRegression
from repro.sim.population import PopulationConfig


def main() -> None:
    seed = 17
    round_config = RoundConfig(
        target_participants=20, selection_timeout_s=90, reporting_timeout_s=180
    )
    keyboard_model = BagOfWordsLanguageModel(vocab_size=500, embed_dim=16)
    telemetry_model = LogisticRegression(input_dim=8, n_classes=2)
    model_rng = np.random.default_rng(seed)

    fleet = (
        FLFleet.builder()
        .seed(seed)
        .devices(PopulationConfig(num_devices=600))
        .selectors(3)
        .job(JobSchedule(1800.0, 0.5))
        .sample_interval(300.0)
        .population(
            "keyboard",
            tasks=[
                TaskConfig(
                    task_id="keyboard/next-word",
                    population_name="keyboard",
                    round_config=round_config,
                )
            ],
            model=keyboard_model.init(model_rng),
        )
        .population(
            "telemetry",
            tasks=[
                TaskConfig(
                    task_id="telemetry/stats",
                    population_name="telemetry",
                    kind=TaskKind.EVALUATION,
                    round_config=round_config,
                )
            ],
            model=telemetry_model.init(model_rng),
            membership=0.6,
        )
        .build()
    )

    print("simulating 12 hours of a two-tenant fleet...")
    fleet.run_for(12 * 3600)
    report = fleet.report()

    print("\n== Per-population round outcomes ==")
    for pop in report.populations:
        print(f"population {pop.name!r}:")
        print(f"  member devices:        {pop.member_devices}")
        print(f"  rounds run/committed:  {pop.rounds_total} / "
              f"{pop.rounds_committed}")
        print(f"  mean drop-out rate:    {pop.mean_drop_rate:.1%}")
        print(f"  device sessions:       {pop.device_sessions}")
        committed_series = fleet.dashboard.counter(
            f"pop/{pop.name}/rounds/committed"
        )
        assert committed_series == pop.rounds_committed, "dashboard mismatch"

    print("\n== Cross-population session interleaving ==")
    # Each row's sessions per tenant are worker-queue columns (a device
    # object exists only while its row is in a session): no walk needed.
    plane = fleet.idle_plane
    sessions = plane.scheduler.session_counts(len(plane))
    dual = [row for row, counts in enumerate(sessions.tolist())
            if sum(1 for c in counts if c) > 1]
    print(f"devices with sessions in BOTH populations: {len(dual)} "
          f"of {len(fleet.members_of('telemetry'))} dual-enrolled")
    for row in dual[:5]:
        health = plane.health(row)
        split = ", ".join(
            f"{name}: {count}"
            for name, count in sorted(health.sessions_by_population.items())
        )
        print(f"  device-{row:<4d} sessions -> {split}")

    print("\n== Fleet-wide ==")
    print(f"rounds committed (all tenants): {report.rounds_committed}")
    print(f"sessions by population:         "
          f"{dict(report.health.sessions_by_population)}")


if __name__ == "__main__":
    main()
