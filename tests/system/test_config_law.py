"""The config field law: every numeric field of every config, probed.

The classes are found by walking dataclass field types from the fleet's
roots — ``FleetConfig`` and ``PopulationSpec``, which reaches
``TaskConfig`` — not from a hand-kept list.  To them the law adds the
trainer every member row builds (``SyntheticTrainer``, reached through a
factory, which the walk does not enter) and the algorithm configs,
among them the reporting-window tuner's, which lives beside its
ablation in ``benchmarks/``.

For every numeric field and every probe in {nan, +inf, -inf, -1, 0} —
and, for an integer field, a fraction and a bool — one of two things
holds:

* constructing the class with that value raises a ``ValueError`` naming
  the field (and, on a mutable class, the value assigned after
  construction is refused by ``.build()`` with a ``FleetValidationError``
  naming it); or
* the case is in ``LEGAL``, with a reason, and builds a small fleet that
  runs one simulated hour.  An algorithm config is legal at a probe only
  where the probe is its default.
"""

from __future__ import annotations

import dataclasses
import math
import re
import types
import typing

import numpy as np
import pytest

from repro import bounds
from repro.core.config import RoundConfig, TaskConfig
from repro.core.fedavg import FedAvgConfig
from repro.core.plan import ExampleSelectionCriteria, FLPlan
from repro.device.runtime import SyntheticTrainer
from repro.device.scheduler import JobSchedule
from repro.nn.models import LogisticRegression
from repro.sim.network import TrafficMeter
from repro.sim.population import PopulationConfig
from repro.system import (
    ActorCrashSchedule,
    DeviceInterruptSchedule,
    FLFleet,
    FleetValidationError,
)
from repro.system.builder import PopulationSpec
from repro.system.config import FleetConfig
from window_tuner import AdaptiveWindowConfig

HOUR = 3600.0
PROBES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-1": -1, "0": 0}
#: What an integer field must refuse on top of the probes.
COUNT_PROBES = {"1.5": 1.5, "True": True}

ROOTS = (FleetConfig, PopulationSpec)
ALGORITHM_CONFIGS = (
    FedAvgConfig, AdaptiveWindowConfig, ExampleSelectionCriteria,
)
#: Dataclasses the walk reaches that are not settings.
NOT_CONFIGS = {
    TrafficMeter: "the network's byte tally for a run",
    FLPlan: "compiled by generate_plan from the task's configs",
}

PARAMS = LogisticRegression(input_dim=3, n_classes=2).init(np.random.default_rng(0))
ROUND = RoundConfig(target_participants=5, selection_timeout_s=60, reporting_timeout_s=120)
TASK = TaskConfig(task_id="a/t", population_name="a", round_config=ROUND)

#: Constructor arguments every probe of a class starts from: its required
#: fields, and what keeps the law's fleets small.
BASE: dict[type, dict] = {
    PopulationConfig: dict(num_devices=40),
    JobSchedule: dict(base_interval_s=900.0),
    TaskConfig: dict(task_id="a/t", population_name="a", round_config=ROUND),
    PopulationSpec: dict(name="a", tasks=[TASK], initial_params=PARAMS),
    SyntheticTrainer: dict(num_parameters=PARAMS.num_parameters),
    ActorCrashSchedule: dict(kind="selector", mean_interval_s=1800.0),
    DeviceInterruptSchedule: dict(mean_interval_s=1800.0),
}
BASE[FleetConfig] = dict(
    seed=3,
    population=PopulationConfig(**BASE[PopulationConfig]),
    job=JobSchedule(**BASE[JobSchedule]),
)

#: Every probe a config accepts, and why it is meaningful.
LEGAL = {
    ("FleetConfig", "seed", "0"): "the default seed",
    ("PopulationConfig", "tz_offset_hours", "-1"): "a time zone",
    ("PopulationConfig", "tz_offset_hours", "0"): "a time zone",
    ("PopulationConfig", "tz_spread_hours", "0"): "every device in one time zone",
    ("PopulationConfig", "speed_sigma", "0"): "every device at the median speed",
    ("PopulationConfig", "compromised_fraction", "0"): "every device genuine",
    ("DiurnalModel", "peak_hour", "-1"): "11pm",
    ("DiurnalModel", "peak_hour", "0"): "midnight",
    ("DiurnalModel", "amplitude", "0"): "no day/night swing",
    ("NetworkModel", "bandwidth_sigma", "0"): "every link at the median bandwidth",
    ("NetworkModel", "rtt_sigma", "0"): "every link at the median round trip",
    ("NetworkModel", "transfer_failure_prob", "0"): "a lossless network",
    ("PaceConfig", "small_population_threshold", "0"): "every population is large",
    ("PaceConfig", "sync_window_width_s", "0"): "reconnect at the round boundary",
    ("CoordinatorConfig", "inter_round_gap_s", "0"): "no gap between rounds",
    ("JobSchedule", "jitter_fraction", "0"): "an unjittered job cadence",
    ("ComputeModel", "setup_overhead_s", "0"): "training starts at once",
    ("RetryPolicy", "max_retries", "0"): "fail on the first error",
    ("RetryPolicy", "jitter", "0"): "unjittered backoff",
    ("ActorCrashSchedule", "mean_interval_s", "inf"): "never fires",
    ("ActorCrashSchedule", "start_s", "0"): "crashes from the start",
    ("ActorCrashSchedule", "stop_s", "inf"): "runs to the end",
    ("MessageFaultConfig", "drop_prob", "0"): "no drops",
    ("MessageFaultConfig", "delay_prob", "0"): "no delays",
    ("CheckpointFaultConfig", "write_failure_prob", "0"): "no write faults",
    ("DeviceInterruptSchedule", "mean_interval_s", "inf"): "never fires",
    ("DeviceInterruptSchedule", "start_s", "0"): "interrupts from the start",
    ("DeviceInterruptSchedule", "stop_s", "inf"): "runs to the end",
    ("SyntheticTrainer", "examples_sigma", "0"): "every device holds the mean",
}


def _configs_in(hint) -> list[type]:
    """The dataclasses a field annotation holds: itself, or those of its
    ``X | None`` / ``tuple[X, ...]`` / ``list[X]`` arguments (a callable's
    arguments are not what the field holds)."""
    if dataclasses.is_dataclass(hint):
        return [hint]
    if typing.get_origin(hint) in (typing.Union, types.UnionType, tuple, list):
        return [c for arg in typing.get_args(hint) for c in _configs_in(arg)]
    return []


def discover() -> dict[type, tuple[tuple[type, str], ...]]:
    """Every config class the roots reach, with its path: the
    ``(owner, field)`` steps from its root."""
    paths: dict[type, tuple[tuple[type, str], ...]] = {root: () for root in ROOTS}
    queue = list(ROOTS)
    while queue:
        cls = queue.pop(0)
        for name, hint in typing.get_type_hints(cls).items():
            for sub in _configs_in(hint):
                if sub not in paths and sub not in NOT_CONFIGS:
                    paths[sub] = paths[cls] + ((cls, name),)
                    queue.append(sub)
    return paths


PATHS = discover()
CLASSES = (*PATHS, SyntheticTrainer, *ALGORITHM_CONFIGS)


def numeric_fields(cls: type) -> list[tuple[str, type]]:
    """``(field, int or float)`` for each field annotated ``int``,
    ``float`` or either ``| None``."""
    found = []
    for name, hint in typing.get_type_hints(cls).items():
        kinds = set(typing.get_args(hint) or (hint,)) - {type(None)}
        if len(kinds) == 1 and kinds <= {int, float}:
            found.append((name, kinds.pop()))
    return found


CASES = [
    pytest.param(cls, name, label, value, id=f"{cls.__name__}.{name}={label}")
    for cls in CLASSES
    for name, kind in numeric_fields(cls)
    for label, value in {**PROBES, **(COUNT_PROBES if kind is int else {})}.items()
]


def construct(cls: type, **fields):
    return cls(**{**BASE.get(cls, {}), **fields})


def place(config, cls: type):
    """The law's fleet, as ``(FleetConfig, PopulationSpec)``, with
    ``config`` (an instance of ``cls``) where the fleet holds one."""
    if cls is SyntheticTrainer:
        return construct(FleetConfig), construct(
            PopulationSpec, trainer_factory=lambda profile: config
        )
    value = config
    for owner, name in reversed(PATHS[cls]):
        container = typing.get_origin(typing.get_type_hints(owner)[name])
        if container in (tuple, list):
            value = container((value,))
        value = construct(owner, **{name: value})
    if isinstance(value, FleetConfig):
        return value, construct(PopulationSpec)
    return construct(FleetConfig), value


def builder_of(config: FleetConfig, spec: PopulationSpec):
    builder = FLFleet.builder().add_spec(spec)
    builder._config = config  # the builder's knobs assign exactly these fields
    return builder


def holder_of(root, cls: type):
    """The instance of ``cls`` inside ``root`` (the first of a sequence)."""
    value = root
    for _, name in PATHS[cls]:
        value = getattr(value, name)
        if isinstance(value, (tuple, list)):
            value = value[0]
    return value


@pytest.mark.parametrize("cls, name, label, value", CASES)
def test_field_law(cls, name, label, value):
    legal = LEGAL.get((cls.__name__, name, label))
    try:
        config = construct(cls, **{name: value})
    except ValueError as exc:
        assert legal is None, f"refused, but listed legal ({legal}): {exc}"
        assert re.search(rf"\b{name}\b", str(exc)), f"refusal names another field: {exc}"
        if cls in PATHS and not cls.__dataclass_params__.frozen:
            # Mutable: assigned after construction, refused at ``.build()``.
            config, spec = place(construct(cls), cls)
            builder = builder_of(config, spec)
            root = spec if cls is PopulationSpec else config
            setattr(holder_of(root, cls), name, value)
            with pytest.raises(FleetValidationError, match=rf"\b{name} must"):
                builder.build()
        return
    assert legal is not None, f"{cls.__name__}({name}={label}) constructs: refuse it or list it"
    if cls in ALGORITHM_CONFIGS:
        default = next(f.default for f in dataclasses.fields(cls) if f.name == name)
        assert value == default, "an algorithm config may be legal only at its default"
        return
    fleet = builder_of(*place(config, cls)).build()
    fleet.run_for(HOUR)
    assert fleet.loop.now == HOUR
    fleet.report()


def test_legal_list_names_only_probes_the_law_makes():
    probed = {(cls.__name__, name, label) for cls, name, label, _ in (c.values for c in CASES)}
    assert set(LEGAL) <= probed


def test_the_walk_reaches_every_config_a_fleet_holds():
    assert {cls.__name__ for cls in PATHS} == {
        "FleetConfig", "PopulationConfig", "DiurnalModel", "NetworkModel",
        "PaceConfig", "CoordinatorConfig", "JobSchedule", "ComputeModel",
        "FaultPlan", "ActorCrashSchedule", "MessageFaultConfig",
        "CheckpointFaultConfig", "DeviceInterruptSchedule", "RetryPolicy",
        "PopulationSpec", "TaskConfig", "RoundConfig", "ClientTrainingConfig",
        "SecAggConfig",
    }
    # The mutable ones, which ``.build()`` checks again.
    assert {cls.__name__ for cls in PATHS if not cls.__dataclass_params__.frozen} == {
        "FleetConfig", "PopulationConfig", "NetworkModel", "PopulationSpec",
    }


@pytest.mark.parametrize("cls", list(PATHS), ids=lambda cls: cls.__name__)
def test_fields_holding_configs_are_checked_with_their_owner(cls):
    """A field that holds a config is declared nested, so its owner's
    check re-runs the config's own (a mutable one may have changed)."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if set(_configs_in(hints[f.name])) - set(NOT_CONFIGS):
            assert f.metadata == bounds.nested().metadata, f.name


def test_counts_accept_any_integral():
    assert construct(SyntheticTrainer, num_parameters=np.int64(5)).num_parameters == 5
    assert construct(FleetConfig, num_selectors=np.int32(3)).num_selectors == 3


def test_a_non_number_is_refused_by_name():
    with pytest.raises(ValueError, match="selection_timeout_s must"):
        RoundConfig(selection_timeout_s="60")
