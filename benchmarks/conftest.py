"""Shared fixtures for the benchmark harness.

The operational-profile figures (Figs. 5-8, Table 1) and the traffic
figure (Fig. 9) are all views over *one* deployment's telemetry, so a
single 3-simulated-day reference fleet is built once per session and
shared across benchmark files.

Calibration targets the paper's Appendix A operating point, scaled to a
laptop: a ~100k-parameter model (0.8 MB checkpoint, plan of comparable
size), on-device training of tens of seconds, rounds of a few hundred
seconds, a single-time-zone population, and 130% over-selection.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import FLFleet, RoundConfig, TaskConfig
from repro.device.runtime import ComputeModel, SyntheticTrainer
from repro.device.scheduler import JobSchedule
from repro.nn.models import BagOfWordsLanguageModel
from repro.sim.population import PopulationConfig

#: Simulated days for the reference fleet run.
REFERENCE_DAYS = 3.0


def build_reference_fleet(seed: int = 2019) -> FLFleet:
    builder = (
        FLFleet.builder()
        .seed(seed)
        # 750 devices with a 360s check-in wait bound keeps the fleet
        # *supply-limited* in daytime while night rounds run at full
        # cadence, which is what makes the Fig. 5 oscillation visible.
        # (The original 900-device calibration relied on a device-actor
        # bug that permanently wedged almost the whole fleet's on-device
        # schedulers over 3 days; with that fixed, a healthy 900-device
        # fleet saturates the round cadence around the clock.)
        .devices(PopulationConfig(num_devices=750, tz_offset_hours=-8.0))
        .selectors(3)
        .job(JobSchedule(1800.0, 0.5))
        # ~4 examples/s puts median on-device training around 60-90s, so
        # rounds run for minutes (Fig. 8) and eligibility churn during the
        # round lands drop-out in the paper's 6-10% band (Fig. 7).
        .compute(ComputeModel(examples_per_second=4.0, setup_overhead_s=3.0))
        # Prime-ish sampling interval: a 300s grid would alias against the
        # pace-steering round period (also 300s) and systematically sample
        # the inter-round gaps.
        .sample_interval(97.0)
        # Devices hang up after ~1.2 pace round periods (300s) without
        # being selected and retry on the job cadence; raising this back
        # toward the 1800s default re-saturates daytime rounds and
        # flattens the Fig. 5 oscillation.
        .waiting_timeout(360.0)
    )
    task = TaskConfig(
        task_id="ref/train",
        population_name="ref",
        round_config=RoundConfig(
            target_participants=30,
            overselection_factor=1.3,
            selection_timeout_s=90.0,
            reporting_timeout_s=300.0,
        ),
    )
    model = BagOfWordsLanguageModel(vocab_size=2000, embed_dim=24)
    params = model.init(np.random.default_rng(0))

    def trainer_factory(profile):
        return SyntheticTrainer(
            num_parameters=params.num_parameters,
            mean_examples=300.0,
            examples_sigma=0.6,
            update_compression_ratio=3.0,
        )

    return builder.population(
        "ref", tasks=[task], model=params, trainer_factory=trainer_factory
    ).build()


@pytest.fixture(scope="session")
def fleet() -> FLFleet:
    """The reference fleet, after 3 simulated days of operation."""
    fleet = build_reference_fleet()
    fleet.run_days(REFERENCE_DAYS)
    return fleet


def local_hour(wall_time_s: float, tz_offset_hours: float = -8.0) -> float:
    """Convert simulation wall time to the population's local hour."""
    return ((wall_time_s / 3600.0) + tz_offset_hours) % 24.0


def is_daytime(wall_time_s: float, tz_offset_hours: float = -8.0) -> bool:
    hour = local_hour(wall_time_s, tz_offset_hours)
    return 9.0 <= hour < 21.0
