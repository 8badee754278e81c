"""Selection strategies: reservoir sampling and resource-aware selection."""

import numpy as np
import pytest

from reference.selection import (
    DeviceEstimate,
    ReservoirSampler,
    resource_aware_select,
    uniform_select,
)


def test_reservoir_keeps_first_k():
    sampler = ReservoirSampler(3, np.random.default_rng(0))
    for i in range(3):
        sampler.offer(i)
    assert sorted(sampler.sample()) == [0, 1, 2]


def test_reservoir_size_bounded(rng):
    sampler = ReservoirSampler(5, rng)
    for i in range(1000):
        sampler.offer(i)
    assert len(sampler.sample()) == 5
    assert sampler.seen == 1000


def test_reservoir_is_approximately_uniform():
    """Each stream item should survive with probability k/n."""
    counts = np.zeros(20)
    for seed in range(2000):
        sampler = ReservoirSampler(5, np.random.default_rng(seed))
        for i in range(20):
            sampler.offer(i)
        for kept in sampler.sample():
            counts[kept] += 1
    expected = 2000 * 5 / 20
    # Each count is Binomial(2000, 0.25): sd ~ 19.4, allow 5 sigma.
    assert np.all(np.abs(counts - expected) < 5 * 19.4)


def test_reservoir_rejects_bad_k(rng):
    with pytest.raises(ValueError):
        ReservoirSampler(0, rng)


def test_resource_aware_prefers_fast_devices():
    candidates = [
        DeviceEstimate(0, 5.0, 50.0, 5.0),   # 60s
        DeviceEstimate(1, 1.0, 10.0, 1.0),   # 12s
        DeviceEstimate(2, 2.0, 20.0, 2.0),   # 24s
        DeviceEstimate(3, 10.0, 100.0, 10.0),  # 120s
    ]
    selected = resource_aware_select(candidates, deadline_s=70.0, max_devices=10)
    assert selected == [1, 2, 0]  # fastest-first, device 3 misses the deadline


def test_resource_aware_respects_max_devices():
    candidates = [DeviceEstimate(i, 1, 1, 1) for i in range(10)]
    assert len(resource_aware_select(candidates, 100.0, 4)) == 4


def test_resource_aware_bad_deadline():
    with pytest.raises(ValueError):
        resource_aware_select([], 0.0, 5)


def test_uniform_select(rng):
    ids = list(range(100))
    chosen = uniform_select(ids, 10, rng)
    assert len(chosen) == 10
    assert len(set(chosen)) == 10
    assert uniform_select(ids, 200, rng) != []  # clamps to n
    assert uniform_select([], 5, rng) == []
