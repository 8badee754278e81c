"""The four pinned `fleet-day` workloads.

Each workload is a fleet built through the public API only
(``FLFleet.builder()``, the config dataclasses, ``PopulationSpec``,
``FaultPlan`` and its schedules, the model classes, ``RealTrainer`` /
``SyntheticTrainer``, ``ExampleStore``) plus a *script* that drives the
timed window.  Nothing here names a plane lever, ``FLSystem`` or
``repro.tools.perf``: those are what later PRs delete, and this
benchmark must keep measuring across that deletion.

A workload's inputs — fleet seed, initial model weights, every device's
synthetic examples — are functions of ``--seed`` alone.  The timed
window is a fixed amount of *simulated* time, ``seconds * pace_sim_s``,
where ``pace_sim_s`` was measured once on the reference box so that a
window takes about ``seconds`` of host time at the commit that defined
the benchmark; a faster simulator finishes the same window sooner.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, ContextManager

import numpy as np

from repro import (
    ClientTrainingConfig,
    FaultPlan,
    FLFleet,
    PopulationSpec,
    RoundConfig,
    SecAggConfig,
    TaskConfig,
)
from repro.actors.coordinator import CoordinatorConfig
from repro.core.pace import PaceConfig
from repro.device.example_store import ExampleStore
from repro.device.runtime import RealTrainer, SyntheticTrainer
from repro.device.scheduler import JobSchedule
from repro.nn.models import LogisticRegression, MLPClassifier, Model
from repro.sim.diurnal import DiurnalModel
from repro.sim.population import DeviceProfile, PopulationConfig
from repro.system import (
    ActorCrashSchedule,
    CheckpointFaultConfig,
    DeviceInterruptSchedule,
    MessageFaultConfig,
)

#: Untimed simulated prefix before every window: lazy hazard tables, DH
#: window tables, buffer growth and the fleet's initial check-in stagger
#: are paid here, not in the measurement.
WARM_PREFIX_SIM_S = 0.02 * 86400.0
#: ``training_rounds`` simulates ~300 s per host second, so the common
#: prefix would cost 6 s a run; a quarter of it still covers a dozen
#: rounds per tenant.
TRAINING_WARM_PREFIX_SIM_S = 0.005 * 86400.0


# -- picklable trainer factories ---------------------------------------------
# Module-level dataclasses, not closures: ``fleet.snapshot()`` pickles the
# population specs, and one factory shape across all four workloads keeps
# set-up cost comparable.


@dataclass(frozen=True)
class SyntheticFactory:
    """Protocol-faithful, numerically trivial sessions (control-plane
    workloads: the session must cost nothing so the plane shows)."""

    num_parameters: int

    def __call__(self, profile: DeviceProfile) -> SyntheticTrainer:
        return SyntheticTrainer(num_parameters=self.num_parameters)


@dataclass(frozen=True)
class RealFactory:
    """Real local SGD over per-device synthetic examples.

    Each device's examples come from a generator keyed by
    ``(seed, tenant tag, device id)``, so a device's data does not depend
    on which other devices enrolled."""

    model: Model
    seed: int
    tag: int
    input_dim: int
    n_classes: int
    min_examples: int
    max_examples: int

    def __call__(self, profile: DeviceProfile) -> RealTrainer:
        rng = np.random.default_rng([self.seed, self.tag, profile.device_id])
        n = int(rng.integers(self.min_examples, self.max_examples + 1))
        store = ExampleStore(ttl_s=None)
        store.add_batch(
            rng.normal(size=(n, self.input_dim)),
            rng.integers(0, self.n_classes, size=n),
            timestamp_s=0.0,
        )
        return RealTrainer(model=self.model, store=store)


def _small_model_params(seed: int):
    """The 340-parameter model the synthetic-trainer workloads ship: big
    enough that checkpoints and folds are not degenerate, small enough
    that they never show in the profile."""
    return MLPClassifier(input_dim=16, hidden_dims=(16,), n_classes=4).init(
        np.random.default_rng(seed)
    )


def _synthetic_spec(
    name: str, params, target: int, membership: float = 1.0
) -> PopulationSpec:
    return PopulationSpec(
        name=name,
        tasks=[
            TaskConfig(
                task_id=f"train/{name}",
                population_name=name,
                round_config=RoundConfig(target_participants=target),
            )
        ],
        initial_params=params,
        trainer_factory=SyntheticFactory(params.num_parameters),
        membership_fraction=membership,
    )


# -- idle_fleet_day ------------------------------------------------------------
def build_idle_fleet_day(seed: int, tiny: bool) -> FLFleet:
    devices = 200 if tiny else 50_000
    params = _small_model_params(seed)
    return (
        FLFleet.builder()
        .seed(seed)
        .devices(PopulationConfig(num_devices=devices))
        .selectors(1)
        # ~26-device rounds (K=20 at 130 % over-selection) on a fixed
        # 45-minute cadence: demand is constant while the fleet is huge.
        .coordinator(
            CoordinatorConfig(pipelining=False, inter_round_gap_s=2700.0)
        )
        .pace(
            PaceConfig(
                round_period_s=2700.0,
                small_population_threshold=500,
                max_reconnect_delay_s=43200.0,
            )
        )
        .job(JobSchedule(10800.0, 0.5))
        .waiting_timeout(3600.0)
        .sample_interval(60.0)
        .add_spec(_synthetic_spec("pop", params, target=20))
        .build()
    )


# -- training_rounds -------------------------------------------------------------
def training_models() -> dict[str, Model]:
    """Tenant name -> model object, the two sizes that use the cohort
    kernels differently (dispatch-bound vs dgemm/bandwidth-bound)."""
    return {
        "ranker": MLPClassifier(input_dim=96, hidden_dims=(48, 24), n_classes=8),
        "keyboard": LogisticRegression(input_dim=1024, n_classes=96),
    }


def build_training_rounds(seed: int, tiny: bool) -> FLFleet:
    devices = 200 if tiny else 2_000
    models = training_models()
    ranker, keyboard = models["ranker"], models["keyboard"]
    ranker_task = TaskConfig(
        task_id="train/ranker",
        population_name="ranker",
        round_config=RoundConfig(target_participants=10 if tiny else 50),
        client_config=ClientTrainingConfig(
            epochs=2, batch_size=8, learning_rate=0.1
        ),
    )
    keyboard_task = TaskConfig(
        task_id="train/keyboard",
        population_name="keyboard",
        round_config=RoundConfig(target_participants=8 if tiny else 20),
        client_config=ClientTrainingConfig(
            epochs=2, batch_size=16, learning_rate=0.05, max_examples=32
        ),
    )
    return (
        FLFleet.builder()
        .seed(seed)
        .devices(PopulationConfig(num_devices=devices))
        # Flat, high availability and a 10-minute job cadence: the short
        # window is dense with training sessions, not diurnal dynamics.
        .job(JobSchedule(600.0, 0.5))
        .diurnal(
            DiurnalModel(
                amplitude=0.0,
                base_eligible_fraction=0.7,
                mean_eligible_minutes=240.0,
            )
        )
        .population(
            "ranker",
            tasks=[ranker_task],
            model=ranker.init(np.random.default_rng([seed, 1])),
            trainer_factory=RealFactory(
                ranker, seed, tag=1, input_dim=96, n_classes=8,
                min_examples=96, max_examples=96,
            ),
        )
        .population(
            "keyboard",
            tasks=[keyboard_task],
            model=keyboard.init(np.random.default_rng([seed, 2])),
            trainer_factory=RealFactory(
                keyboard, seed, tag=2, input_dim=1024, n_classes=96,
                min_examples=12, max_examples=40,
            ),
            membership=0.5 if tiny else 0.2,
        )
        .build()
    )


# -- tenant_control_plane ----------------------------------------------------------
def build_tenant_control_plane(seed: int, tiny: bool) -> FLFleet:
    devices, tenants, selectors, shards = (
        (200, 4, 8, 2) if tiny else (2_000, 12, 32, 4)
    )
    params = _small_model_params(seed)
    builder = (
        FLFleet.builder()
        .seed(seed)
        .devices(PopulationConfig(num_devices=devices))
        .selectors(selectors)
        .selector_shards(shards)
        # A 1 s Coordinator tick polls every tenant's Selectors at a
        # production cadence; a 15-minute gap keeps all twelve round
        # pipelines continuously active.
        .coordinator(
            CoordinatorConfig(
                tick_interval_s=1.0, pipelining=False, inter_round_gap_s=900.0
            )
        )
        .job(JobSchedule(7200.0, 0.5))
        .waiting_timeout(1800.0)
        .sample_interval(300.0)
    )
    for t in range(tenants):
        builder.add_spec(
            _synthetic_spec(f"tenant{t:02d}", params, target=4 if tiny else 10)
        )
    return builder.build()


# -- secure_chaos_lifecycle ----------------------------------------------------------
def _chaos_plan() -> FaultPlan:
    """``examples/fault_injection.py``'s plan plus a crash clock for the
    aggregation tree's middle tier."""
    return FaultPlan(
        crashes=(
            ActorCrashSchedule("selector", mean_interval_s=3600.0),
            ActorCrashSchedule("coordinator", mean_interval_s=5400.0),
            ActorCrashSchedule("master_aggregator", mean_interval_s=2700.0),
            ActorCrashSchedule("aggregator", mean_interval_s=2700.0),
            ActorCrashSchedule("shard_aggregator", mean_interval_s=2700.0),
        ),
        messages=MessageFaultConfig(
            drop_prob=0.01, delay_prob=0.02, delay_mean_s=2.0
        ),
        checkpoint=CheckpointFaultConfig(write_failure_prob=0.25),
        device_interrupts=DeviceInterruptSchedule(mean_interval_s=1800.0),
    )


def _secure_spec(seed: int, tiny: bool) -> PopulationSpec:
    params = _small_model_params(seed)
    return PopulationSpec(
        name="secure",
        tasks=[
            TaskConfig(
                task_id="train/secure",
                population_name="secure",
                round_config=RoundConfig(
                    target_participants=6 if tiny else 80
                ),
                secagg=SecAggConfig(
                    enabled=True, group_size=4 if tiny else 40
                ),
            )
        ],
        initial_params=params,
        trainer_factory=SyntheticFactory(params.num_parameters),
    )


def build_secure_chaos_lifecycle(seed: int, tiny: bool) -> FLFleet:
    params = _small_model_params(seed)
    return (
        FLFleet.builder()
        .seed(seed)
        .devices(PopulationConfig(num_devices=200 if tiny else 3_000))
        .selectors(8)
        .selector_shards(2)
        .job(JobSchedule(900.0, 0.5))
        .faults(_chaos_plan())
        .add_spec(_secure_spec(seed, tiny))
        .add_spec(
            _synthetic_spec(
                "plain", params, target=3 if tiny else 12, membership=0.5
            )
        )
        .build()
    )


# -- window scripts ---------------------------------------------------------------
# A script drives the timed window through two callables that
# ``fleetday_measure`` supplies: ``run(fleet, sim_s)`` advances the fleet
# (timed in slices), ``operation(name)`` times one lifecycle operation
# (also reported as ``system.lifecycle.<name>_s``).  Anything a script
# does outside them is not measured.
Run = Callable[[FLFleet, float], None]
Operation = Callable[[str], ContextManager[None]]
Script = Callable[[FLFleet, float, int, str, Run, Operation], FLFleet]


def run_steady(
    fleet: FLFleet, sim_s: float, seed: int, scratch: str,
    run: Run, operation: Operation,
) -> FLFleet:
    run(fleet, sim_s)
    return fleet


def run_chaos_lifecycle(
    fleet: FLFleet, sim_s: float, seed: int, scratch: str,
    run: Run, operation: Operation,
) -> FLFleet:
    """run ¼ → attach "late" → run ¼ → snapshot → restore → run ¼ on the
    restored fleet → drain "plain" → run ¼.  Returns the restored fleet,
    which is the one that finishes the window."""
    quarter = sim_s / 4.0
    tiny = len(fleet.devices) <= 200
    run(fleet, quarter)
    with operation("attach"):
        fleet.attach_population(
            _synthetic_spec(
                "late",
                _small_model_params(seed),
                target=3 if tiny else 12,
                membership=0.5,
            )
        )
    run(fleet, quarter)
    path = os.path.join(scratch, "fleet.snapshot")
    with operation("snapshot"):
        fleet.snapshot(path)
    with operation("restore"):
        fleet = FLFleet.restore(path)
    run(fleet, quarter)
    with operation("drain"):
        # The deadline only binds at --tiny scale, where a quarter is shorter.
        fleet.drain_population("plain", deadline_s=min(1800.0, quarter))
    run(fleet, quarter)
    return fleet


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, bool], FLFleet]
    script: Script
    #: Simulated seconds of window per requested host second (pinned on
    #: the reference box; see the module docstring).
    pace_sim_s: float
    #: Window length at ``--tiny`` scale (the smoke test).
    tiny_sim_s: float
    warm_sim_s: float = WARM_PREFIX_SIM_S
    #: Tenants the script adds mid-window (they must commit too).
    late_tenants: tuple[str, ...] = ()


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="idle_fleet_day",
        why="50k devices, one small tenant: the idle majority (idle plane, "
            "diurnal sampling, device check-in, selector screening) is the cost; "
            "the only workload where setup_s and peak_rss_mb track per-device cost",
        build=build_idle_fleet_day,
        script=run_steady,
        pace_sim_s=11_520.0,  # 2 sim-days at --seconds 15
        tiny_sim_s=4 * 3600.0,
    ),
    Workload(
        name="training_rounds",
        why="2k devices, RealTrainer on a 6k-param MLP and a 98k-param "
            "logistic model: cohort SGD kernels dominate, dispatch-bound and "
            "dgemm-bound side by side; zero numeric work in the other three",
        build=build_training_rounds,
        script=run_steady,
        pace_sim_s=288.0,  # 0.05 sim-day
        tiny_sim_s=240.0,
        warm_sim_s=TRAINING_WARM_PREFIX_SIM_S,
    ),
    Workload(
        name="tenant_control_plane",
        why="2k devices x 12 tenants, 32 selectors in 4 shards, 1 s ticks: "
            "event loop, actor kernel, coordinators, aggregation tree, multi-tenant "
            "check-in; no numeric kernels, so hook overhead shows here",
        build=build_tenant_control_plane,
        script=run_steady,
        pace_sim_s=8_640.0,  # 1.5 sim-days
        tiny_sim_s=2 * 3600.0,
    ),
    Workload(
        name="secure_chaos_lifecycle",
        why="3k devices, SecAgg tenant + fault plan + attach/snapshot/restore/"
            "drain over four sim-hours: the only workload with secagg and with the "
            "planes' write side (crash/respawn, membership change, pickling)",
        build=build_secure_chaos_lifecycle,
        script=run_chaos_lifecycle,
        pace_sim_s=960.0,  # 4 sim-hours
        tiny_sim_s=1.5 * 3600.0,
        late_tenants=("late",),
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
