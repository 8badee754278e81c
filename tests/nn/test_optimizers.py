"""SGD semantics: plain step, functional inputs, refused learning rates."""

import numpy as np
import pytest

from repro.nn.optimizers import SGD
from repro.nn.parameters import Parameters


def p(val):
    return Parameters({"w": np.array([val])})


def test_plain_sgd_step():
    opt = SGD(0.1)
    updated = opt.step(p(1.0), p(2.0))
    assert updated["w"][0] == pytest.approx(1.0 - 0.1 * 2.0)


def test_step_is_functional():
    params = p(1.0)
    SGD(0.1).step(params, p(1.0))
    assert params["w"][0] == 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"learning_rate": 0.0},
        {"learning_rate": -1.0},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
    ],
)
def test_invalid_configs(kwargs):
    with pytest.raises(ValueError, match="learning_rate"):
        SGD(**kwargs)
