"""P² sketch accuracy and streaming moments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics.quantile import MetricSummary, P2Quantile, StreamingMoments


def test_p2_median_of_uniform(rng):
    sketch = P2Quantile(0.5)
    data = rng.uniform(0, 100, size=5000)
    for v in data:
        sketch.update(v)
    assert sketch.value() == pytest.approx(np.quantile(data, 0.5), abs=3.0)


@pytest.mark.parametrize("q", [0.25, 0.5, 0.75, 0.95])
def test_p2_tracks_normal_quantiles(q, rng):
    sketch = P2Quantile(q)
    data = rng.normal(50, 10, size=8000)
    for v in data:
        sketch.update(v)
    true = np.quantile(data, q)
    assert abs(sketch.value() - true) < 1.0


def test_p2_small_sample_exactish():
    sketch = P2Quantile(0.5)
    for v in [5.0, 1.0, 3.0]:
        sketch.update(v)
    assert sketch.value() == 3.0


def test_p2_empty_raises():
    with pytest.raises(ValueError):
        P2Quantile(0.5).value()


def test_p2_invalid_quantile():
    with pytest.raises(ValueError):
        P2Quantile(0.0)
    with pytest.raises(ValueError):
        P2Quantile(1.0)


@given(st.lists(st.floats(-1e4, 1e4), min_size=6, max_size=200))
@settings(max_examples=40, deadline=None)
def test_p2_value_within_observed_range(values):
    sketch = P2Quantile(0.5)
    for v in values:
        sketch.update(v)
    assert min(values) <= sketch.value() <= max(values)


def test_moments_match_numpy(rng):
    data = rng.normal(10, 3, size=1000)
    moments = StreamingMoments()
    for v in data:
        moments.update(v)
    assert moments.mean == pytest.approx(np.mean(data))
    assert moments.std == pytest.approx(np.std(data, ddof=1), rel=1e-9)
    assert moments.min == data.min()
    assert moments.max == data.max()


def test_moments_empty_raises():
    with pytest.raises(ValueError):
        StreamingMoments().mean


def test_metric_summary_to_dict(rng):
    summary = MetricSummary.empty()
    for v in rng.uniform(0, 1, size=500):
        summary.update(v)
    d = summary.to_dict()
    assert d["count"] == 500
    assert 0 <= d["p25"] <= d["p50"] <= d["p75"] <= d["p95"] <= 1
    assert MetricSummary.empty().to_dict() == {"count": 0}


# -- the marker arithmetic, bit for bit ------------------------------------------


class ArrayP2Quantile:
    """``P2Quantile`` as it was when its five markers were numpy arrays —
    frozen here as the oracle: the list-of-floats version performs the
    same IEEE operations in the same order, so every output must be equal
    to the last bit."""

    def __init__(self, quantile):
        self.quantile = quantile
        self._initial = []
        self._q = np.zeros(5)
        self._n = np.zeros(5)
        self._np = np.zeros(5)
        self._dn = np.zeros(5)
        self._count = 0

    def update(self, value):
        value = float(value)
        self._count += 1
        if self._count <= 5:
            self._initial.append(value)
            if self._count == 5:
                p = self.quantile
                self._q = np.array(sorted(self._initial))
                self._n = np.arange(1.0, 6.0)
                self._np = np.array([1, 1 + 2 * p, 1 + 4 * p, 3 + 2 * p, 5])
                self._dn = np.array([0, p / 2, p, (1 + p) / 2, 1])
            return
        q, n = self._q, self._n
        if value < q[0]:
            q[0] = value
            k = 0
        elif value >= q[4]:
            q[4] = value
            k = 3
        else:
            k = int(np.searchsorted(q, value, side="right")) - 1
            k = min(max(k, 0), 3)
        n[k + 1 :] += 1
        self._np += self._dn
        for i in (1, 2, 3):
            d = self._np[i] - n[i]
            if (d >= 1 and n[i + 1] - n[i] > 1) or (d <= -1 and n[i - 1] - n[i] < -1):
                sign = 1.0 if d >= 1 else -1.0
                candidate = q[i] + sign / (n[i + 1] - n[i - 1]) * (
                    (n[i] - n[i - 1] + sign) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                    + (n[i + 1] - n[i] - sign) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
                )
                if q[i - 1] < candidate < q[i + 1]:
                    q[i] = candidate
                else:
                    j = i + int(sign)
                    q[i] = q[i] + sign * (q[j] - q[i]) / (n[j] - n[i])
                n[i] += sign

    def value(self):
        if self._count <= 5:
            data = sorted(self._initial)
            return data[min(int(self.quantile * len(data)), len(data) - 1)]
        return float(self._q[2])


def array_summary():
    summary = MetricSummary.empty()
    for name in ("p25", "p50", "p75", "p95"):
        setattr(summary, name, ArrayP2Quantile(getattr(summary, name).quantile))
    return summary


#: Random values, and long runs of one value (a fleet's health report is
#: mostly zeros: the devices that never trained).
_RUNS = st.lists(
    st.tuples(
        st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, 1.0, 3600.0])),
        st.integers(1, 60),
    ),
    min_size=1,
    max_size=40,
)


@given(_RUNS)
@settings(max_examples=150, deadline=None)
def test_float_markers_match_the_array_implementation_exactly(runs):
    summary, oracle = MetricSummary.empty(), array_summary()
    seen = 0
    for value, repeat in runs:
        for _ in range(repeat):
            summary.update(value)
            oracle.update(value)
        seen += repeat
        # repr() tells -0.0 from 0.0 and spells out every last bit.
        assert repr(summary.to_dict()) == repr(oracle.to_dict()), seen
