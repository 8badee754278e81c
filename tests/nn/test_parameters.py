"""Parameters: arithmetic, flattening, and the FedAvg combination rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn.parameters import Parameters, weighted_mean


def make(w=1.0, b=2.0):
    return Parameters({"w": np.full((2, 3), w), "b": np.full(3, b)})


def test_mapping_protocol():
    p = make()
    assert set(p) == {"w", "b"}
    assert len(p) == 2
    assert p["w"].shape == (2, 3)
    assert p.num_parameters == 9
    assert p.nbytes == 72


def test_add_sub_scale_axpy():
    a, b = make(1, 1), make(2, 3)
    assert (a + b)["w"][0, 0] == 3
    assert (b - a)["b"][0] == 2
    assert a.scale(4.0)["w"][0, 0] == 4
    assert a.axpy(2.0, b)["b"][0] == 7


def test_structure_mismatch_raises():
    a = make()
    b = Parameters({"w": np.zeros((2, 3))})
    with pytest.raises(ValueError, match="structure mismatch"):
        _ = a + b


def test_zeros_like_and_copy_do_not_alias():
    a = make()
    z = a.zeros_like()
    assert z.l2_norm() == 0.0
    c = a.copy()
    c["w"][0, 0] = 99.0
    assert a["w"][0, 0] == 1.0


def test_l2_norm():
    p = Parameters({"v": np.array([3.0, 4.0])})
    assert p.l2_norm() == pytest.approx(5.0)


@given(
    hnp.arrays(
        np.float64,
        st.integers(min_value=1, max_value=30),
        elements=st.floats(-1e6, 1e6, allow_nan=False),
    )
)
@settings(max_examples=50, deadline=None)
def test_vector_roundtrip(values):
    split = len(values) // 2
    p = Parameters({"a": values[:split], "b": values[split:]})
    recovered = p.from_vector(p.to_vector())
    assert recovered.allclose(p)


def test_from_vector_wrong_size():
    with pytest.raises(ValueError, match="entries"):
        make().from_vector(np.zeros(5))


def test_weighted_mean_matches_manual():
    a, b = make(1, 1), make(3, 3)
    mean = weighted_mean([(a, 1.0), (b, 3.0)])
    # (1*1 + 3*3) / 4 = 2.5
    assert mean["w"][0, 0] == pytest.approx(2.5)


def test_weighted_mean_rejects_empty_and_zero_weight():
    with pytest.raises(ValueError):
        weighted_mean([])
    with pytest.raises(ValueError):
        weighted_mean([(make(), 0.0)])


def test_map_applies_elementwise():
    doubled = make(2, 4).map(lambda x: x / 2)
    assert doubled["w"][0, 0] == 1.0
    assert doubled["b"][0] == 2.0
