"""Population sampling: validation, determinism, constraint ranges — and
the fleet's profile columns against the per-row build they replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.population import build_population as build_profile_objects
from repro import FLFleet
from repro.sim.population import DeviceProfile, PopulationConfig, build_population
from repro.sim.rng import RngRegistry
from repro.system.config import FleetConfig


def test_population_size_and_ids():
    pop = build_population(PopulationConfig(num_devices=50), RngRegistry(0))
    assert set(pop) == set(DeviceProfile._fields)
    assert all(len(column) == 50 for column in pop.values())
    assert pop["device_id"].tolist() == list(range(50))


def test_population_is_deterministic():
    a = build_population(PopulationConfig(num_devices=20), RngRegistry(42))
    b = build_population(PopulationConfig(num_devices=20), RngRegistry(42))
    assert all(np.array_equal(a[name], b[name]) for name in DeviceProfile._fields)


def test_fields_within_configured_choices():
    config = PopulationConfig(num_devices=300)
    pop = build_population(config, RngRegistry(1))
    assert np.isin(pop["memory_mb"], config.memory_choices).all()
    assert np.isin(pop["os_version"], config.os_versions).all()
    assert np.isin(pop["runtime_version"], config.runtime_versions).all()
    assert (pop["speed_factor"] > 0).all()


def test_compromised_fraction_roughly_respected():
    config = PopulationConfig(num_devices=5000, compromised_fraction=0.1)
    pop = build_population(config, RngRegistry(2))
    frac = np.count_nonzero(~pop["genuine"]) / config.num_devices
    assert 0.07 < frac < 0.13


def test_timezones_center_on_configured_offset():
    config = PopulationConfig(
        num_devices=1000, tz_offset_hours=-8.0, tz_spread_hours=1.0
    )
    pop = build_population(config, RngRegistry(3))
    mean_tz = np.mean(pop["tz_offset_hours"])
    assert -8.3 < mean_tz < -7.7


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_devices": 0},
        {"memory_weights": (0.5, 0.5, 0.5, 0.2, 0.2)},
        {"compromised_fraction": 1.5},
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ValueError):
        build_population(PopulationConfig(**kwargs), RngRegistry(0))


@st.composite
def choices(draw, values):
    """A choice tuple and weights summing to 1."""
    picked = draw(st.lists(values, min_size=1, max_size=5, unique=True))
    raw = draw(st.lists(st.integers(1, 9), min_size=len(picked), max_size=len(picked)))
    return tuple(picked), tuple(w / sum(raw) for w in raw)


@st.composite
def population_configs(draw):
    memory, memory_weights = draw(choices(st.integers(512, 16384)))
    os_versions, os_weights = draw(choices(st.integers(20, 40)))
    runtimes, runtime_weights = draw(choices(st.integers(1, 12)))
    return PopulationConfig(
        num_devices=draw(st.integers(1, 300)),
        tz_offset_hours=draw(st.floats(-12.0, 14.0)),
        tz_spread_hours=draw(st.floats(0.0, 3.0)),
        speed_sigma=draw(st.floats(0.0, 1.0)),
        memory_choices=memory,
        memory_weights=memory_weights,
        os_versions=os_versions,
        os_weights=os_weights,
        runtime_versions=runtimes,
        runtime_weights=runtime_weights,
        compromised_fraction=draw(st.floats(0.0, 1.0)),
    )


@settings(max_examples=40, deadline=None)
@given(config=population_configs(), seed=st.integers(0, 2**32 - 1))
def test_fleet_profiles_match_the_per_row_build(config, seed):
    """``fleet.profiles`` — built from the idle plane's columns on read —
    is the list the per-row build made, field by field and with the same
    Python types; indexing, slicing and a column read agree with it."""
    expected = build_profile_objects(config, RngRegistry(seed))
    profiles = FLFleet(FleetConfig(seed=seed, population=config)).profiles
    built = list(profiles)
    assert len(profiles) == len(built) == len(expected) == config.num_devices
    for profile, oracle in zip(built, expected):
        assert type(profile) is DeviceProfile
        assert profile.name == oracle.name
        for name in DeviceProfile._fields:
            value, want = getattr(profile, name), getattr(oracle, name)
            assert type(value) is type(want) and value == want, name
    assert profiles[-1] == built[-1] and profiles[0] == built[0]
    assert profiles[1::2] == built[1::2]
    with pytest.raises(IndexError):
        profiles[len(built)]
    for name in DeviceProfile._fields:
        column = profiles.column(name)
        assert column.tolist() == [getattr(p, name) for p in expected]
        assert not column.flags.writeable
