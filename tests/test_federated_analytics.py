"""Federated Analytics (Sec. 11 Federated Computation extension)."""

import numpy as np
import pytest

from repro.federated_analytics import (
    AnalyticsResult,
    HistogramSpec,
    count_statistic,
    histogram_statistic,
    run_federated_analytics,
    sum_and_count_statistic,
)
from repro.secagg.protocol import DropoutSchedule


def device_data(rng, n=30):
    return {uid: rng.normal(5.0, 2.0, size=rng.integers(5, 50)) for uid in range(n)}


def test_plain_aggregation_matches_ground_truth(rng):
    data = device_data(rng)
    spec = HistogramSpec(edges=tuple(np.linspace(-5, 15, 11)))
    result = run_federated_analytics(
        data,
        [count_statistic(), sum_and_count_statistic("latency"),
         histogram_statistic(spec)],
        rng,
    )
    assert result.totals["count"][0] == len(data)
    all_values = np.concatenate(list(data.values()))
    assert result.mean("latency") == pytest.approx(all_values.mean())
    expected_hist, _ = np.histogram(all_values, bins=spec.edges)
    np.testing.assert_array_equal(result.totals["histogram"], expected_hist)


def test_secure_aggregation_mode_matches_plain(rng):
    data = device_data(rng, n=12)
    stats = [count_statistic(), sum_and_count_statistic("m")]
    plain = run_federated_analytics(data, stats, np.random.default_rng(0))
    secure = run_federated_analytics(
        data, stats, np.random.default_rng(0), secure=True
    )
    assert secure.totals["count"][0] == pytest.approx(
        plain.totals["count"][0], abs=0.01
    )
    assert secure.mean("m") == pytest.approx(plain.mean("m"), rel=1e-3)


def test_secure_mode_tolerates_dropouts(rng):
    data = device_data(rng, n=12)
    dropouts = DropoutSchedule(after_share=frozenset({0, 1}))
    result = run_federated_analytics(
        data,
        [count_statistic()],
        rng,
        secure=True,
        dropouts=dropouts,
    )
    assert result.totals["count"][0] == pytest.approx(10, abs=0.01)


def test_mean_requires_sum_and_count_shape(rng):
    result = AnalyticsResult(totals={"x": np.array([1.0])}, num_reports=1)
    with pytest.raises(ValueError, match="sum-and-count"):
        result.mean("x")


def test_histogram_spec_validation():
    with pytest.raises(ValueError):
        HistogramSpec(edges=(1.0,))
    with pytest.raises(ValueError):
        HistogramSpec(edges=(2.0, 1.0))


def test_input_validation(rng):
    with pytest.raises(ValueError, match="no devices"):
        run_federated_analytics({}, [count_statistic()], rng)
    with pytest.raises(ValueError, match="no statistics"):
        run_federated_analytics({0: np.ones(3)}, [], rng)
    with pytest.raises(ValueError, match="unique"):
        run_federated_analytics(
            {0: np.ones(3)}, [count_statistic("a"), count_statistic("a")], rng
        )


@pytest.mark.parametrize(
    "fraction", [0.0, -1, 0.5, 1.5, float("nan"), float("inf")]
)
def test_secure_mode_refuses_a_bad_threshold_fraction(fraction):
    """The one Shamir-threshold rule: a fraction outside (0.5, 1] is a
    ValueError naming it, before the rng has drawn a byte."""
    rng = np.random.default_rng(0)
    data = device_data(np.random.default_rng(1), n=10)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="threshold_fraction"):
        run_federated_analytics(
            data, [count_statistic()], rng, secure=True,
            secagg_threshold_fraction=fraction,
        )
    assert rng.bit_generator.state == before
