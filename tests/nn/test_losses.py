"""Loss correctness: values and gradients against finite differences."""

import numpy as np
import pytest

from repro.nn.losses import softmax, softmax_cross_entropy


def test_softmax_rows_sum_to_one(rng):
    logits = rng.normal(size=(7, 5)) * 10
    probs = softmax(logits)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0)
    assert (probs >= 0).all()


def test_softmax_is_shift_invariant(rng):
    logits = rng.normal(size=(3, 4))
    np.testing.assert_allclose(softmax(logits), softmax(logits + 100.0))


def test_cross_entropy_uniform_logits():
    logits = np.zeros((4, 8))
    labels = np.array([0, 1, 2, 3])
    loss, _ = softmax_cross_entropy(logits, labels)
    assert loss == pytest.approx(np.log(8))


def test_cross_entropy_gradient_finite_difference(rng):
    logits = rng.normal(size=(5, 4))
    labels = rng.integers(0, 4, size=5)
    _, grad = softmax_cross_entropy(logits.copy(), labels)
    eps = 1e-6
    for i in range(5):
        for j in range(4):
            bumped = logits.copy()
            bumped[i, j] += eps
            up, _ = softmax_cross_entropy(bumped, labels)
            bumped[i, j] -= 2 * eps
            down, _ = softmax_cross_entropy(bumped, labels)
            fd = (up - down) / (2 * eps)
            assert grad[i, j] == pytest.approx(fd, abs=1e-5)


def test_cross_entropy_batch_mismatch():
    with pytest.raises(ValueError, match="batch mismatch"):
        softmax_cross_entropy(np.zeros((3, 2)), np.zeros(4, dtype=int))

