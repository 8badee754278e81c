"""Event budget: host cost must follow rounds, not simulated seconds.

A count, so it cannot flake: the same seed processes the same events.
What it guards is the shape of the control plane's cost — Coordinators
sleep through a round and through the gap after it, and a tenant short of
devices holds no tick at all (its Selectors' admissions wake it), so a
fleet whose tenants spend most of their time *between* rounds processes
under fifty events per committed round.  Anything that starts polling
again moves that figure, where no wall-clock gate would notice: one
tenant ticking once a second is 7,200 events here, about 240 more per
committed round.
"""

import numpy as np

from repro import FLFleet, RoundConfig, TaskConfig
from repro.actors.coordinator import CoordinatorConfig
from repro.device.scheduler import JobSchedule
from repro.nn.models import LogisticRegression
from repro.sim.population import PopulationConfig

#: Events per committed round on the fleet below: at most 49.4 over seeds
#: 2019 and 1-5 (47.5 at 2019) when pinned, plus 30 % headroom.  With a
#: round's forwarding, its clearing, its end and its master's death
#: notice sent as messages (ten events a round at four Selectors a
#: shard), the same seeds read 57.7-59.2; with each leaf also relaying
#: every report and drop to its master as a message, 61.8-63.3; with
#: Coordinators polling their Selectors once a grid instant while short
#: of devices, 116-141.
EVENTS_PER_COMMITTED_ROUND_CEILING = 64


def test_events_per_committed_round_stay_within_budget():
    params = LogisticRegression(input_dim=4, n_classes=3).init(
        np.random.default_rng(0)
    )
    builder = (
        FLFleet.builder()
        .seed(2019)
        .devices(PopulationConfig(num_devices=200))
        .selectors(8)
        .selector_shards(2)
        .coordinator(
            CoordinatorConfig(
                tick_interval_s=1.0, pipelining=False, inter_round_gap_s=900.0
            )
        )
        .job(JobSchedule(7200.0, 0.5))
        .waiting_timeout(1800.0)
        .sample_interval(300.0)
    )
    for t in range(4):
        name = f"tenant{t:02d}"
        task = TaskConfig(
            task_id=f"{name}/train",
            population_name=name,
            round_config=RoundConfig(target_participants=4),
        )
        builder.population(name, tasks=[task], model=params)
    fleet = builder.build()
    fleet.run_for(2 * 3600.0)
    committed = fleet.report().rounds_committed
    assert committed >= 25  # every tenant turned its gap-limited ~7 rounds
    per_round = fleet.loop.events_processed / committed
    assert per_round <= EVENTS_PER_COMMITTED_ROUND_CEILING, (
        f"{fleet.loop.events_processed} events for {committed} committed "
        f"rounds = {per_round:.0f} per round: something is polling"
    )
