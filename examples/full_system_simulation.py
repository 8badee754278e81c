"""Run the full FL system for one simulated day and print its analytics.

Stands up the complete Fig. 1 / Fig. 3 architecture — Coordinator,
Selectors, per-round Master Aggregators and Aggregators, a fleet of
devices with diurnal availability — then prints the operational profile:
round outcomes, Table 1 session shapes, traffic asymmetry, and the
hour-by-hour round completion rate (Fig. 5's oscillation).

    python examples/full_system_simulation.py
"""

import numpy as np

from repro import FLFleet, RoundConfig, TaskConfig
from repro.analytics.session_shapes import format_table
from repro.device.scheduler import JobSchedule
from repro.nn.models import LogisticRegression
from repro.sim.population import PopulationConfig


def main() -> None:
    seed = 7
    task = TaskConfig(
        task_id="demo/train",
        population_name="demo",
        round_config=RoundConfig(
            target_participants=30,
            selection_timeout_s=90,
            reporting_timeout_s=180,
        ),
    )
    model = LogisticRegression(input_dim=20, n_classes=5)
    fleet = (
        FLFleet.builder()
        .seed(seed)
        .devices(PopulationConfig(num_devices=600))
        .selectors(3)
        .job(JobSchedule(1800.0, 0.5))
        .sample_interval(300.0)
        # The model init shares the fleet seed so the whole run is governed
        # by one knob, not a stray constant.
        .population(
            "demo", tasks=[task], model=model.init(np.random.default_rng(seed))
        )
        .build()
    )

    print("simulating 24 hours of fleet time...")
    fleet.run_days(1.0)

    report = fleet.report()
    print("\n== Operational summary (cf. Sec. 9) ==")
    print(f"rounds run / committed:  {report.rounds_total} / "
          f"{report.rounds_committed}")
    print(f"mean drop-out rate:      {report.mean_drop_rate:.1%} "
          f"(paper: 6-10%)")
    print(f"mean devices completed:  {report.mean_completed_per_round:.1f}")
    print(f"mean round run time:     {report.mean_round_time_s:.0f}s")
    ratio = report.download_bytes / max(report.upload_bytes, 1)
    print(f"traffic down/up ratio:   {ratio:.1f}x (download dominates, Fig. 9)")

    print("\n== Session shapes (cf. Table 1) ==")
    print(format_table(fleet.session_shapes(), top=6))

    print("\n== Rounds per 2h bucket (diurnal oscillation, Fig. 5) ==")
    times, outcomes = fleet.dashboard.series("rounds/outcome").bucketed(
        7200.0, reducer="count"
    )
    for t, count in zip(times, outcomes):
        hour = int(t // 3600) % 24
        print(f"  {hour:02d}:00  {'#' * int(count)} {count:.0f}")


if __name__ == "__main__":
    main()
