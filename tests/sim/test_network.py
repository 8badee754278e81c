"""Network model: transfer times, failures, and the traffic meter."""

import numpy as np
import pytest

from repro.sim.network import (
    NetworkConditions,
    NetworkModel,
    TrafficMeter,
    TransferDirection,
)


def test_transfer_time_includes_rtt_and_bandwidth():
    cond = NetworkConditions(
        downlink_bytes_per_s=1e6, uplink_bytes_per_s=1e5, rtt_s=0.1
    )
    assert cond.transfer_time(1_000_000, TransferDirection.DOWNLOAD) == pytest.approx(
        1.1
    )
    assert cond.transfer_time(1_000_000, TransferDirection.UPLOAD) == pytest.approx(
        10.1
    )


def test_meter_buckets_by_direction():
    meter = TrafficMeter()
    meter.record(100, TransferDirection.DOWNLOAD)
    meter.record(40, TransferDirection.UPLOAD)
    meter.record(60, TransferDirection.DOWNLOAD)
    assert meter.downloaded_bytes == 160
    assert meter.uploaded_bytes == 40
    assert meter.download_count == 2
    assert meter.upload_count == 1
    assert meter.download_upload_ratio == pytest.approx(4.0)


def test_ratio_with_zero_upload():
    meter = TrafficMeter()
    assert meter.download_upload_ratio == 0.0
    meter.record(10, TransferDirection.DOWNLOAD)
    assert meter.download_upload_ratio == float("inf")


def test_successful_transfer_is_metered(rng):
    model = NetworkModel(transfer_failure_prob=0.0)
    cond = model.sample_conditions(rng)
    duration, ok = model.transfer(cond, 1000, TransferDirection.UPLOAD, rng)
    assert ok
    assert duration > 0
    assert model.meter.uploaded_bytes == 1000


def test_failed_transfer_counts_failure_not_bytes(rng):
    model = NetworkModel(transfer_failure_prob=1.0)
    cond = model.sample_conditions(rng)
    duration, ok = model.transfer(cond, 1000, TransferDirection.DOWNLOAD, rng)
    assert not ok
    assert duration > 0
    assert model.meter.downloaded_bytes == 0
    assert model.meter.failed_transfers == 1


def test_failure_rate_matches_probability(rng):
    model = NetworkModel(transfer_failure_prob=0.2)
    cond = model.sample_conditions(rng)
    failures = sum(
        not model.transfer(cond, 10, TransferDirection.UPLOAD, rng)[1]
        for _ in range(5000)
    )
    assert 0.15 < failures / 5000 < 0.25


def test_sampled_conditions_are_heterogeneous(rng):
    model = NetworkModel()
    downs = [model.sample_conditions(rng).downlink_bytes_per_s for _ in range(200)]
    assert np.std(downs) > 0
    assert min(downs) > 0
    # Log-normal: median near the configured median.
    assert 0.5 * model.median_downlink_bytes_per_s < np.median(downs) < 2.0 * (
        model.median_downlink_bytes_per_s
    )


def test_batch_sampler_shapes_and_positivity():
    model = NetworkModel()
    links = model.sample_conditions_batch(200, np.random.default_rng(5))
    assert len(links) == 3
    for column in links:  # downlink, uplink, rtt
        assert column.shape == (200,) and column.dtype == np.float64
        assert (column > 0).all()
    # log-normal heterogeneity: a real spread, not a constant
    downs, _, _ = links
    assert downs.std() > 0
    with pytest.raises(ValueError):
        model.sample_conditions_batch(0, np.random.default_rng(5))


def test_scalar_sampler_delegates_to_batch():
    """sample_conditions(rng) must be stream-compatible with
    sample_conditions_batch(1, rng): same draws, same values."""
    model = NetworkModel()
    a = model.sample_conditions(np.random.default_rng(9))
    down, up, rtt = model.sample_conditions_batch(1, np.random.default_rng(9))
    assert a == NetworkConditions(down[0], up[0], rtt[0])
    # and the stream positions agree afterwards
    rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
    model.sample_conditions(rng_a)
    model.sample_conditions_batch(1, rng_b)
    assert rng_a.integers(1 << 30) == rng_b.integers(1 << 30)


def test_batch_sampler_median_scales():
    fast = NetworkModel(median_downlink_bytes_per_s=1e9, bandwidth_sigma=0.0)
    downs, _, _ = fast.sample_conditions_batch(8, np.random.default_rng(1))
    assert downs == pytest.approx(np.full(8, 1e9))


@pytest.mark.parametrize(
    "law",
    [
        {"median_uplink_bytes_per_s": -1.0},   # a transfer of negative duration
        {"median_downlink_bytes_per_s": 0.0},
        {"median_rtt_s": float("nan")},
        {"bandwidth_sigma": -0.1},
        {"rtt_sigma": float("inf")},
        {"transfer_failure_prob": 1.5},
    ],
)
def test_law_without_finite_positive_transfer_times_fails_at_construction(law):
    with pytest.raises(ValueError, match=next(iter(law))):
        NetworkModel(**law)
