"""Cohort-batched model kernels vs K independent per-client calls.

``loss_and_grad_cohort`` must be bitwise row-exact when every row's
minibatch is full (the per-row GEMM shapes then match the per-client
call), equal up to float summation order for ragged rows, and produce a
zero gradient row plus zero loss for inactive clients (count 0).
"""

import numpy as np
import pytest

from repro.nn.losses import softmax_cross_entropy, softmax_cross_entropy_cohort
from repro.nn.models import (
    BagOfWordsLanguageModel,
    LogisticRegression,
    MLPClassifier,
    Model,
    RNNLanguageModel,
)
from repro.nn.optimizers import SGD
from repro.nn.parameters import Parameters, StackedParameters

K, B = 5, 6

MODELS = {
    "logreg": LogisticRegression(input_dim=11, n_classes=4),
    "mlp": MLPClassifier(input_dim=11, hidden_dims=(9, 7), n_classes=4),
    "rnn": RNNLanguageModel(vocab_size=17, embed_dim=5, hidden_dim=8),
    "bow": BagOfWordsLanguageModel(vocab_size=17, embed_dim=5),
}


def make_batch(name, rng, k=K, b=B):
    """Cohort inputs shaped for the named model."""
    if name in ("rnn", "bow"):
        x = rng.integers(0, 17, size=(k, b, 4))
        y = rng.integers(0, 17, size=(k, b))
    else:
        x = rng.normal(size=(k, b, 11))
        y = rng.integers(0, 4, size=(k, b))
    return x, y


def make_stack(model, k=K, seed=0):
    """K distinct parameter rows for one model."""
    template = model.init(np.random.default_rng(seed))
    stack = template.layout.stacked(k)
    for i in range(k):
        row = model.init(np.random.default_rng(seed + 1 + i))
        for name in row:
            stack[name][i] = row[name]
    return template.layout, stack


@pytest.mark.parametrize("name", sorted(MODELS))
def test_full_batches_bitwise_exact(name, rng):
    model = MODELS[name]
    layout, stack = make_stack(model)
    grads = layout.stacked(K)
    x, y = make_batch(name, rng)
    counts = np.full(K, B)
    losses = model.loss_and_grad_cohort(stack, x.copy(), y, counts, out=grads)
    for i in range(K):
        loss, g = model.loss_and_grad(stack.row(i), x[i], y[i])
        assert losses[i] == loss
        for arr in g:
            assert np.array_equal(grads[arr][i], g[arr]), (name, i, arr)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_ragged_counts_close(name, rng):
    """K=..1 rows, a single-example device, and an inactive device."""
    model = MODELS[name]
    layout, stack = make_stack(model)
    grads = layout.stacked(K)
    x, y = make_batch(name, rng)
    counts = np.array([B, 4, 2, 1, 0])
    losses = model.loss_and_grad_cohort(stack, x.copy(), y, counts, out=grads)
    for i in range(K):
        c = counts[i]
        if c == 0:
            assert losses[i] == 0.0
            for arr in grads:
                assert not grads[arr][i].any()
            continue
        loss, g = model.loss_and_grad(stack.row(i), x[i][:c], y[i][:c])
        assert losses[i] == pytest.approx(loss, rel=1e-12, abs=1e-15)
        for arr in g:
            np.testing.assert_allclose(
                grads[arr][i], g[arr], rtol=1e-9, atol=1e-12
            )


def test_cohort_of_one(rng):
    model = MODELS["mlp"]
    layout, stack = make_stack(model, k=1)
    grads = layout.stacked(1)
    x, y = make_batch("mlp", rng, k=1)
    losses = model.loss_and_grad_cohort(
        stack, x.copy(), y, np.array([B]), out=grads
    )
    loss, g = model.loss_and_grad(stack.row(0), x[0], y[0])
    assert losses[0] == loss
    for arr in g:
        assert np.array_equal(grads[arr][0], g[arr])


def test_padding_values_are_masked_out(rng):
    """Garbage (finite) padding beyond counts must not leak into grads."""
    model = MODELS["logreg"]
    layout, stack = make_stack(model)
    x, y = make_batch("logreg", rng)
    counts = np.array([3, 3, 3, 3, 3])
    grads_a = layout.stacked(K)
    model.loss_and_grad_cohort(stack, x.copy(), y, counts, out=grads_a)
    x2 = x.copy()
    x2[:, 3:] = 1e6  # extreme but finite padding
    grads_b = layout.stacked(K)
    losses_b = model.loss_and_grad_cohort(stack, x2, y, counts, out=grads_b)
    assert np.all(np.isfinite(losses_b))
    for arr in grads_a:
        assert np.array_equal(grads_a[arr], grads_b[arr])


def test_base_fallback_matches_kernels(rng):
    """Any Model works through the default per-row fallback."""
    model = MODELS["logreg"]
    layout, stack = make_stack(model)
    x, y = make_batch("logreg", rng)
    counts = np.array([B, 4, 2, 1, 0])
    g_kernel = layout.stacked(K)
    l_kernel = model.loss_and_grad_cohort(stack, x.copy(), y, counts, out=g_kernel)
    g_fallback = layout.stacked(K)
    l_fallback = Model.loss_and_grad_cohort(
        model, stack, x, y, counts, g_fallback
    )
    np.testing.assert_allclose(l_kernel, l_fallback, rtol=1e-12)
    for arr in g_kernel:
        np.testing.assert_allclose(
            g_kernel[arr], g_fallback[arr], rtol=1e-9, atol=1e-12
        )


def test_cohort_xent_matches_per_client(rng):
    logits = rng.normal(size=(K, B, 7))
    labels = rng.integers(0, 7, size=(K, B))
    counts = np.array([B, B, 3, 1, 0])
    losses, dl = softmax_cross_entropy_cohort(logits.copy(), labels, counts)
    for i in range(K):
        c = counts[i]
        if c == 0:
            assert losses[i] == 0.0 and not dl[i].any()
            continue
        loss, d = softmax_cross_entropy(logits[i][:c], labels[i][:c])
        if c == B:
            assert losses[i] == loss
            assert np.array_equal(dl[i], d)
        else:
            assert losses[i] == pytest.approx(loss, rel=1e-12)
            np.testing.assert_allclose(dl[i][:c], d, rtol=1e-12)
            assert not dl[i][c:].any()


# -- StackedParameters --------------------------------------------------------


def test_stacked_parameters_ops(rng):
    model = MODELS["mlp"]
    params = model.init(np.random.default_rng(3))
    layout = params.layout
    stack = layout.stacked(4)
    stack.broadcast_(params)
    for i in range(4):
        assert stack.row(i).allclose(params, atol=0)
    other = model.init(np.random.default_rng(4))
    stack.sub_broadcast_(other)
    expected = params - other
    assert stack.row(2).allclose(expected, atol=0)
    factors = np.array([1.0, 2.0, 0.5, 3.0])
    stack.scale_rows_(factors)
    assert stack.row(3).allclose(expected.scale(3.0), atol=1e-15)
    out = np.empty((4, layout.total_size))
    stack.write_rows(out)
    assert np.array_equal(out[1], stack.row(1).to_vector())


def test_stacked_head_is_a_view():
    model = MODELS["logreg"]
    layout = model.init(np.random.default_rng(0)).layout
    stack = layout.stacked(8)
    head = stack.head(3)
    assert head.rows == 3
    head["W"][0, 0, 0] = 42.0
    assert stack["W"][0, 0, 0] == 42.0
    assert stack.head(8) is stack
    with pytest.raises(ValueError):
        stack.head(9)


def test_stacked_rejects_bad_write_shape():
    model = MODELS["logreg"]
    layout = model.init(np.random.default_rng(0)).layout
    stack = layout.stacked(2)
    with pytest.raises(ValueError):
        stack.write_rows(np.empty((3, layout.total_size)))


# -- vectorized SGD -----------------------------------------------------------


def test_step_stack_matches_per_row_step():
    model = MODELS["mlp"]
    layout, stack = make_stack(model, k=3)
    grads = layout.stacked(3)
    g_rows = []
    for i in range(3):
        g = model.init(np.random.default_rng(50 + i))
        g_rows.append(g)
        for name in g:
            grads[name][i] = g[name]
    before = [stack.row(i).copy() for i in range(3)]
    SGD(0.3).step_stack_(stack, grads)
    for i in range(3):
        expected = SGD(0.3).step(before[i], g_rows[i])
        for name in expected:
            assert np.array_equal(stack[name][i], expected[name])

