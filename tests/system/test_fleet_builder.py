"""FleetBuilder: topology validation happens before anything spawns."""

import numpy as np
import pytest

from repro import (
    FaultPlan,
    FLFleet,
    FleetValidationError,
    RoundConfig,
    TaskConfig,
)
from repro.actors.coordinator import CoordinatorConfig
from repro.core.config import ClientTrainingConfig
from repro.core.fedavg import FedAvgConfig
from repro.core.pace import PaceConfig
from repro.device.runtime import ComputeModel, SyntheticTrainer
from repro.device.scheduler import JobSchedule
from repro.nn.models import LogisticRegression
from repro.nn.optimizers import SGD
from repro.sim.population import PopulationConfig
from repro.system import (
    ActorCrashSchedule,
    DeviceInterruptSchedule,
    MessageFaultConfig,
    RetryPolicy,
)


def params(seed=0, dim=3, classes=2):
    return LogisticRegression(input_dim=dim, n_classes=classes).init(
        np.random.default_rng(seed)
    )


def task(task_id, population, target=10):
    return TaskConfig(
        task_id=task_id,
        population_name=population,
        round_config=RoundConfig(
            target_participants=target,
            selection_timeout_s=60,
            reporting_timeout_s=120,
        ),
    )


def base_builder(num_devices=60):
    return (
        FLFleet.builder()
        .seed(3)
        .devices(PopulationConfig(num_devices=num_devices))
        .selectors(2)
    )


def test_duplicate_population_name_rejected():
    builder = base_builder().population("a", tasks=[task("a/t", "a")], model=params())
    with pytest.raises(FleetValidationError, match="duplicate population"):
        builder.population("a", tasks=[task("a/t2", "a")], model=params())


def test_empty_task_list_rejected():
    with pytest.raises(FleetValidationError, match="no tasks"):
        base_builder().population("a", tasks=[], model=params())


def test_task_targeting_other_population_rejected():
    with pytest.raises(FleetValidationError, match="targets population"):
        base_builder().population("a", tasks=[task("b/t", "b")], model=params())


def test_duplicate_task_id_rejected():
    with pytest.raises(FleetValidationError, match="duplicate task id"):
        base_builder().population(
            "a", tasks=[task("a/t", "a"), task("a/t", "a")], model=params()
        )


def test_membership_fraction_out_of_range_rejected():
    for fraction in (0.0, -0.5, 1.5):
        with pytest.raises(FleetValidationError, match="membership_fraction must"):
            base_builder().population(
                "a", tasks=[task("a/t", "a")], model=params(),
                membership=fraction,
            )


def test_no_populations_rejected():
    with pytest.raises(FleetValidationError, match="no populations"):
        base_builder().build()


def test_membership_override_unknown_population_rejected():
    builder = (
        FLFleet.builder()
        .devices(
            PopulationConfig(num_devices=60),
            memberships={5: ("a", "ghost")},
        )
        .population("a", tasks=[task("a/t", "a")], model=params())
    )
    with pytest.raises(FleetValidationError, match="unknown population"):
        builder.build()


@pytest.mark.parametrize("device_id", [2.5, 3.0, True, float("nan")])
def test_membership_override_non_integral_device_id_refused(device_id):
    """An override's device id is an integer or refused, by name, before
    the builder writes anything — never truncated to a row it does not
    mean."""
    builder = base_builder()
    with pytest.raises(FleetValidationError, match=f"device id {device_id!r} is not"):
        builder.devices(PopulationConfig(num_devices=61), memberships={device_id: ("a",)})
    assert builder._config.population.num_devices == 60
    assert builder._membership_overrides == {}


def test_membership_override_unknown_device_rejected():
    builder = (
        FLFleet.builder()
        .devices(PopulationConfig(num_devices=60), memberships={999: ("a",)})
        .population("a", tasks=[task("a/t", "a")], model=params())
    )
    with pytest.raises(FleetValidationError, match="unknown device"):
        builder.build()


@pytest.mark.parametrize("knob", ["waiting_timeout", "sample_interval"])
@pytest.mark.parametrize("value", [-5, 0, float("nan"), float("inf")])
def test_nonpositive_or_nonfinite_interval_rejected(knob, value):
    builder = base_builder().population(
        "a", tasks=[task("a/t", "a")], model=params()
    )
    with pytest.raises(FleetValidationError, match=f"{knob}_s must be"):
        getattr(builder, knob)(value).build()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "knob, field",
    [("selectors", "num_selectors"), ("selector_shards", "selector_shards"),
     ("seed", "seed")],
)
@pytest.mark.parametrize("value", [2.5, True, NAN, INF])
def test_count_knobs_keep_what_they_are_given(knob, field, value):
    """A count knob does not round: ``.selectors(2.5)`` is not two
    Selectors and ``.seed(True)`` is not seed 1 — ``.build()`` refuses
    each, naming the field."""
    builder = base_builder().population(
        "a", tasks=[task("a/t", "a")], model=params()
    )
    with pytest.raises(FleetValidationError, match=f"^{field} must be an integer"):
        getattr(builder, knob)(value).build()


def crash(**fields):
    return lambda: FaultPlan(crashes=(ActorCrashSchedule("selector", **fields),))


def interrupts(**fields):
    return lambda: FaultPlan(device_interrupts=DeviceInterruptSchedule(**fields))


def plan_of(**fields):
    return lambda: FaultPlan(**{
        name: make() for name, make in fields.items()
    })


@pytest.mark.parametrize(
    "plan, field",
    [
        pytest.param(crash(mean_interval_s=NAN), "mean_interval_s", id="crash-interval-nan"),
        pytest.param(crash(mean_interval_s=60.0, start_s=NAN), "start_s", id="crash-start-nan"),
        pytest.param(crash(mean_interval_s=60.0, stop_s=NAN), "stop_s", id="crash-stop-nan"),
        pytest.param(crash(mean_interval_s=60.0, max_crashes=NAN), "max_crashes", id="crash-cap-nan"),
        pytest.param(interrupts(mean_interval_s=NAN), "mean_interval_s", id="interrupt-interval-nan"),
        pytest.param(interrupts(mean_interval_s=60.0, start_s=NAN), "start_s", id="interrupt-start-nan"),
        pytest.param(
            interrupts(mean_interval_s=60.0, max_interrupts=NAN), "max_interrupts",
            id="interrupt-cap-nan",
        ),
        pytest.param(
            plan_of(messages=lambda: MessageFaultConfig(delay_prob=0.5, delay_mean_s=NAN)),
            "delay_mean_s", id="delay-mean-nan",
        ),
        pytest.param(
            plan_of(messages=lambda: MessageFaultConfig(delay_prob=0.5, delay_mean_s=INF)),
            "delay_mean_s", id="delay-mean-inf",
        ),
        pytest.param(
            plan_of(upload_retry=lambda: RetryPolicy(base_backoff_s=NAN)), "base_backoff_s",
            id="backoff-nan",
        ),
        pytest.param(
            plan_of(upload_retry=lambda: RetryPolicy(base_backoff_s=INF)), "base_backoff_s",
            id="backoff-inf",
        ),
        pytest.param(
            plan_of(checkpoint_retry=lambda: RetryPolicy(multiplier=NAN)), "multiplier",
            id="multiplier-nan",
        ),
        pytest.param(
            plan_of(checkpoint_retry=lambda: RetryPolicy(multiplier=INF)), "multiplier",
            id="multiplier-inf",
        ),
        pytest.param(
            plan_of(upload_retry=lambda: RetryPolicy(max_retries=1.5)), "max_retries",
            id="retries-fractional",
        ),
        pytest.param(
            plan_of(upload_retry=lambda: RetryPolicy(max_retries=NAN)), "max_retries",
            id="retries-nan",
        ),
    ],
)
def test_nonfinite_fault_plan_refused_at_build(plan, field):
    """A NaN passes ``value <= 0``: it used to build, put a NaN-time event
    on the heap and silently wreck the run.  Every ``FaultPlan`` number
    that is meant to be finite is refused by name — when its config is
    constructed, so at the latest at ``.build()``."""
    builder = base_builder().population(
        "a", tasks=[task("a/t", "a")], model=params()
    )
    with pytest.raises(ValueError, match=f"{field} must be"):
        builder.faults(plan()).build()


def round_of(**fields):
    return lambda builder: builder.population(
        "a",
        tasks=[TaskConfig(
            task_id="a/t", population_name="a",
            round_config=RoundConfig(target_participants=10, **fields),
        )],
        model=params(),
    )


def knob(name, make):
    """``builder.<name>(make())`` plus one plain population — the config
    is built inside the case, where its refusal is expected."""
    return lambda builder: getattr(builder, name)(make()).population(
        "a", tasks=[task("a/t", "a")], model=params()
    )


@pytest.mark.parametrize(
    "declare, field",
    [
        pytest.param(knob("job", lambda: JobSchedule(NAN, 0.5)), "base_interval_s", id="job-nan"),
        pytest.param(knob("job", lambda: JobSchedule(INF, 0.5)), "base_interval_s", id="job-inf"),
        pytest.param(
            knob("coordinator", lambda: CoordinatorConfig(tick_interval_s=NAN)),
            "tick_interval_s", id="tick-nan",
        ),
        pytest.param(
            knob("coordinator", lambda: CoordinatorConfig(tick_interval_s=INF)),
            "tick_interval_s", id="tick-inf",
        ),
        pytest.param(
            knob("coordinator", lambda: CoordinatorConfig(pipelining=False, inter_round_gap_s=NAN)),
            "inter_round_gap_s", id="gap-nan",
        ),
        pytest.param(knob("pace", lambda: PaceConfig(round_period_s=NAN)), "round_period_s", id="period-nan"),
        pytest.param(
            knob("pace", lambda: PaceConfig(min_reconnect_delay_s=NAN)),
            "min_reconnect_delay_s", id="min-reconnect-nan",
        ),
        pytest.param(
            knob("pace", lambda: PaceConfig(max_reconnect_delay_s=NAN)),
            "max_reconnect_delay_s", id="max-reconnect-nan",
        ),
        pytest.param(
            knob("pace", lambda: PaceConfig(sync_window_width_s=NAN)),
            "sync_window_width_s", id="sync-width-nan",
        ),
        pytest.param(round_of(selection_timeout_s=NAN), "selection_timeout_s", id="selection-nan"),
        pytest.param(round_of(reporting_timeout_s=NAN), "reporting_timeout_s", id="reporting-nan"),
        pytest.param(round_of(overselection_factor=NAN), "overselection_factor", id="overselection-nan"),
    ],
)
def test_nonfinite_time_fields_refused_before_anything_runs(declare, field):
    """``value <= 0`` is NaN-blind: each of these used to build, and then
    wedged the idle plane's sweeper (a NaN job interval: one sweep, no
    round, no error), died in ``_arm_tick`` or a pace window with an
    untyped error, or silently committed a round or two.  Now the config
    that holds the field refuses it by name — a ``ValueError``, as
    ``FleetValidationError`` is — at the latest at ``.build()``."""
    with pytest.raises(ValueError, match=f"{field} must"):
        declare(base_builder()).build()


def client_of(**fields):
    return lambda: base_builder().population(
        "a",
        tasks=[TaskConfig(
            task_id="a/t", population_name="a",
            client_config=ClientTrainingConfig(**fields),
        )],
        model=params(),
    ).build()


def compute_of(**fields):
    return lambda: knob("compute", lambda: ComputeModel(**fields))(base_builder()).build()


def synthetic_of(**fields):
    """A fleet whose tenant trains on ``SyntheticTrainer(**fields)`` (its
    trainers are built at attach, so at ``.build()``)."""
    init = params()
    return lambda: base_builder().population(
        "a", tasks=[task("a/t", "a")], model=init,
        trainer_factory=lambda profile: SyntheticTrainer(
            num_parameters=init.num_parameters, **fields
        ),
    ).build()


@pytest.mark.parametrize(
    "construct, field",
    [
        pytest.param(client_of(learning_rate=NAN), "learning_rate", id="client-lr-nan"),
        pytest.param(client_of(learning_rate=INF), "learning_rate", id="client-lr-inf"),
        pytest.param(compute_of(examples_per_second=NAN), "examples_per_second", id="rate-nan"),
        pytest.param(compute_of(examples_per_second=0.0), "examples_per_second", id="rate-zero"),
        pytest.param(compute_of(examples_per_second=-200.0), "examples_per_second", id="rate-negative"),
        pytest.param(compute_of(setup_overhead_s=NAN), "setup_overhead_s", id="overhead-nan"),
        pytest.param(compute_of(setup_overhead_s=INF), "setup_overhead_s", id="overhead-inf"),
        pytest.param(synthetic_of(mean_examples=NAN), "mean_examples", id="synthetic-examples-nan"),
        pytest.param(synthetic_of(mean_examples=0.0), "mean_examples", id="synthetic-examples-zero"),
        pytest.param(
            synthetic_of(update_compression_ratio=NAN), "update_compression_ratio",
            id="synthetic-compression-nan",
        ),
        pytest.param(
            synthetic_of(update_compression_ratio=-3.0), "update_compression_ratio",
            id="synthetic-compression-negative",
        ),
        pytest.param(synthetic_of(examples_sigma=INF), "examples_sigma", id="synthetic-sigma-inf"),
        pytest.param(synthetic_of(examples_sigma=-0.8), "examples_sigma", id="synthetic-sigma-negative"),
        pytest.param(lambda: SGD(NAN), "learning_rate", id="sgd-lr-nan"),
        pytest.param(lambda: SGD(INF), "learning_rate", id="sgd-lr-inf"),
        pytest.param(lambda: FedAvgConfig(epochs=0), "epochs", id="fedavg-epochs-zero"),
        pytest.param(lambda: FedAvgConfig(batch_size=0), "batch_size", id="fedavg-batch-zero"),
        pytest.param(lambda: FedAvgConfig(learning_rate=NAN), "learning_rate", id="fedavg-lr-nan"),
        pytest.param(lambda: FedAvgConfig(max_examples_per_client=0), "max_examples_per_client", id="fedavg-max-examples-zero"),
        pytest.param(
            lambda: TaskConfig(task_id="a/t", population_name="a", priority=NAN),
            "priority", id="priority-nan",
        ),
        pytest.param(
            lambda: TaskConfig(task_id="a/t", population_name="a", priority=INF),
            "priority", id="priority-inf",
        ),
    ],
)
def test_nonfinite_training_and_compute_settings_refused(construct, field):
    """The same NaN-blind ``value <= 0`` checks, on the training and
    compute settings: a NaN learning rate used to commit every round on
    a non-finite model, a NaN / zero / negative device speed put NaN-time events on
    the heap, died untyped mid-run or made more work finish sooner.  A
    ``SyntheticTrainer`` with a NaN example count or compression ratio
    committed no round, and with an infinite spread fewer than half of
    them.
    Each is refused by name — a ``ValueError``, as
    ``FleetValidationError`` is — at the latest at ``.build()``."""
    with pytest.raises(ValueError, match=f"{field} must"):
        construct()


@pytest.mark.parametrize(
    "fields, field",
    [
        pytest.param({"tz_offset_hours": NAN}, "tz_offset_hours", id="tz-offset-nan"),
        pytest.param({"tz_offset_hours": INF}, "tz_offset_hours", id="tz-offset-inf"),
        pytest.param({"tz_spread_hours": NAN}, "tz_spread_hours", id="tz-spread-nan"),
        pytest.param({"tz_spread_hours": INF}, "tz_spread_hours", id="tz-spread-inf"),
        pytest.param({"tz_spread_hours": -1.0}, "tz_spread_hours", id="tz-spread-negative"),
        pytest.param({"speed_sigma": NAN}, "speed_sigma", id="sigma-nan"),
        pytest.param({"speed_sigma": INF}, "speed_sigma", id="sigma-inf"),
        pytest.param({"speed_sigma": -0.4}, "speed_sigma", id="sigma-negative"),
        pytest.param(
            {"memory_weights": (NAN, 0.25, 0.25, 0.12, 0.08)}, "memory_weights",
            id="memory-weights-nan",
        ),
        pytest.param(
            {"os_weights": (1.15, -0.15, 0.0, 0.0)}, "os_weights", id="os-weights-negative",
        ),
        pytest.param(
            {"runtime_weights": (0.5, 0.5)}, "runtime_weights", id="runtime-weights-short",
        ),
        pytest.param(
            {"memory_choices": (), "memory_weights": ()}, "memory_choices",
            id="memory-choices-empty",
        ),
        pytest.param({"os_versions": (), "os_weights": ()}, "os_versions", id="os-versions-empty"),
        pytest.param(
            {"runtime_versions": (), "runtime_weights": ()}, "runtime_versions",
            id="runtime-versions-empty",
        ),
    ],
)
def test_malformed_population_config_refused_at_build(fields, field):
    """Each of these used to build: a non-finite time zone then died
    mid-run inside the diurnal tables' lookup, a NaN speed spread
    committed no round and raised nothing, an infinite one died mid-run;
    a negative spread, a NaN or negative weight or an empty choice list
    failed inside numpy naming no field.  Now ``PopulationConfig``
    refuses the field by name when it is constructed — and, assigned
    after construction, at ``.build()``."""
    with pytest.raises(ValueError, match=f"{field} must"):
        PopulationConfig(num_devices=300, **fields)
    config = PopulationConfig(num_devices=300)
    for name, value in fields.items():
        setattr(config, name, value)
    builder = (
        FLFleet.builder()
        .seed(3)
        .devices(config)
        .selectors(2)
        .population("a", tasks=[task("a/t", "a")], model=params())
    )
    with pytest.raises(FleetValidationError, match=f"{field} must"):
        builder.build()


def test_schedules_that_never_fire_or_never_stop_stay_legal():
    ActorCrashSchedule("selector", mean_interval_s=INF, stop_s=INF)
    DeviceInterruptSchedule(mean_interval_s=INF)


def test_law_broken_after_construction_rejected_at_build():
    """Both laws validate at construction; the builder validates again,
    for a field assigned since."""
    from repro.sim.network import NetworkModel

    network = NetworkModel()
    network.median_uplink_bytes_per_s = -1.0
    builder = base_builder().population(
        "a", tasks=[task("a/t", "a")], model=params()
    )
    with pytest.raises(FleetValidationError, match="median_uplink_bytes_per_s"):
        builder.network(network).build()


def test_validation_failures_spawn_nothing():
    builder = (
        FLFleet.builder()
        .devices(PopulationConfig(num_devices=60), memberships={999: ("a",)})
        .population("a", tasks=[task("a/t", "a")], model=params())
    )
    with pytest.raises(FleetValidationError):
        builder.build()
    # The failed build left no half-constructed fleet behind: a corrected
    # builder still works from scratch.
    fleet = (
        FLFleet.builder()
        .devices(PopulationConfig(num_devices=60))
        .population("a", tasks=[task("a/t", "a")], model=params())
        .build()
    )
    assert fleet.population_names == ("a",)
    assert len(fleet.devices) == 60


def test_membership_overrides_and_fractions_applied():
    fleet = (
        base_builder(num_devices=80)
        .devices(
            PopulationConfig(num_devices=80),
            memberships={0: ("a",), 1: ("a", "b"), 2: ()},
        )
        .population("a", tasks=[task("a/t", "a")], model=params())
        .population("b", tasks=[task("b/t", "b")], model=params(1), membership=0.5)
        .build()
    )
    a, b = fleet.members_of("a"), fleet.members_of("b")
    assert 0 in a and 0 not in b
    assert 1 in a and 1 in b
    assert 2 not in a and 2 not in b
    # Fraction sampling is a strict, non-empty subset of the fleet.
    assert 0 < len(b) < 80
    # A device's memberships are in population-declaration order, and its
    # trainers its tenants'.
    device_1 = fleet.devices[1]
    assert device_1.memberships == ("a", "b")
    for name in ("a", "b"):
        runtime = fleet.lifecycle.runtime(name)
        position = runtime.members.tolist().index(1)
        assert device_1.trainer_of(name) is runtime.trainers[position]


def test_pool_cap_uses_largest_task_goal():
    """The selector quota must be sized to the largest round any task in
    the population runs, not whichever task happens to be listed first."""
    small = task("a/small", "a", target=10)    # selection goal 13
    large = task("a/large", "a", target=100)   # selection goal 130
    fleet = (
        base_builder()
        .population("a", tasks=[small, large], model=params())
        .build()
    )
    selector = fleet.actors.actor_of(fleet.selectors[0])
    assert selector.route_of("a").pool_cap == 2 * large.round_config.selection_goal


def test_public_knob_surface_is_pinned():
    """The option count, as an assertion: a new fleet-level lever is a
    reviewed edit to these lists, never a side effect of another change."""
    import dataclasses

    from repro.core.config import SecAggConfig
    from repro.system.builder import FleetBuilder
    from repro.system.config import FleetConfig

    assert {f.name for f in dataclasses.fields(FleetConfig)} == {
        "seed", "population", "diurnal", "network", "pace", "coordinator",
        "job", "compute", "num_selectors", "selector_shards",
        "sample_interval_s", "waiting_timeout_s", "device_scheduler", "faults",
    }
    assert {f.name for f in dataclasses.fields(SecAggConfig)} == {
        "enabled", "group_size", "threshold_fraction", "modulus_bits",
    }
    assert {n for n in vars(FleetBuilder) if not n.startswith("_")} == {
        "seed", "devices", "selectors", "selector_shards", "diurnal",
        "network", "job", "compute", "pace", "coordinator",
        "device_scheduler", "sample_interval", "waiting_timeout", "faults",
        "population", "add_spec", "validate", "build",
    }
