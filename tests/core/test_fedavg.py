"""Federated Averaging: Algorithm 1 semantics, exactly."""

import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.datasets import ClientDataset
from repro.core.fedavg import (
    ClientUpdateResult,
    FedAvgConfig,
    FederatedAveraging,
    client_update,
)
from repro.nn.models import (
    BagOfWordsLanguageModel,
    LogisticRegression,
    MLPClassifier,
    Model,
)
from repro.nn.optimizers import SGD
from repro.nn.parameters import Parameters


def make_clients(rng, n_clients=8, n=40, d=4, c=3):
    w_true = rng.normal(size=(d, c))
    clients = []
    for i in range(n_clients):
        x = rng.normal(size=(n, d))
        y = (x @ w_true + 0.1 * rng.normal(size=(n, c))).argmax(axis=1)
        clients.append(ClientDataset(f"c{i}", x, y))
    return clients


def test_client_update_delta_is_weighted(rng):
    """ClientUpdate returns Δ = n * (w_local - w_init)."""
    model = LogisticRegression(input_dim=4, n_classes=3)
    params = model.init(rng)
    ds = make_clients(rng, n_clients=1, n=20)[0]
    update = client_update(
        model, params, ds, epochs=1, batch_size=20, learning_rate=0.5,
        rng=np.random.default_rng(0),
    )
    # One full-batch step: w_local = w - 0.5 * grad, so delta = -n*0.5*grad.
    _, grads = model.loss_and_grad(params, ds.x, ds.y)
    expected = grads.scale(-0.5 * 20)
    assert update.delta.allclose(expected, atol=1e-10)
    assert update.weight == 20
    assert update.steps == 1


def test_aggregate_matches_algorithm_one(rng):
    """w_{t+1} = w_t + (Σ Δ_k) / (Σ n_k)."""
    model = LogisticRegression(input_dim=2, n_classes=2)
    algo = FederatedAveraging(model)
    w = Parameters({"W": np.zeros((2, 2)), "b": np.zeros(2)})
    u1 = ClientUpdateResult(
        "a", Parameters({"W": np.full((2, 2), 2.0), "b": np.full(2, 2.0)}),
        weight=2.0, num_examples=2, mean_loss=0.0, steps=1,
    )
    u2 = ClientUpdateResult(
        "b", Parameters({"W": np.full((2, 2), 6.0), "b": np.full(2, 6.0)}),
        weight=2.0, num_examples=2, mean_loss=0.0, steps=1,
    )
    out = algo.aggregate(w, [u1, u2])
    # (2 + 6) / 4 = 2.0 everywhere
    assert out["W"][0, 0] == pytest.approx(2.0)
    assert out["b"][1] == pytest.approx(2.0)


def test_aggregate_weighting_prefers_larger_clients():
    model = LogisticRegression(input_dim=1, n_classes=2)
    algo = FederatedAveraging(model)
    w = Parameters({"v": np.zeros(1)})
    small = ClientUpdateResult(
        "s", Parameters({"v": np.array([1.0 * 1])}), 1.0, 1, 0.0, 1
    )
    big = ClientUpdateResult(
        "b", Parameters({"v": np.array([-1.0 * 9])}), 9.0, 9, 0.0, 1
    )
    out = algo.aggregate(w, [small, big])
    assert out["v"][0] == pytest.approx((1.0 - 9.0) / 10.0)


def test_aggregate_rejects_empty(rng):
    algo = FederatedAveraging(LogisticRegression(1, 2))
    with pytest.raises(ValueError):
        algo.aggregate(Parameters({"v": np.zeros(1)}), [])


def test_update_weight_must_be_positive():
    with pytest.raises(ValueError):
        ClientUpdateResult("x", Parameters({"v": np.zeros(1)}), 0.0, 0, 0.0, 0)


def test_fit_converges_on_shared_task(rng):
    model = LogisticRegression(input_dim=4, n_classes=3)
    clients = make_clients(rng)
    algo = FederatedAveraging(
        model, FedAvgConfig(clients_per_round=4, learning_rate=0.5, epochs=2)
    )
    params, history = algo.fit(clients, num_rounds=40, rng=rng)
    assert history[-1].mean_client_loss < 0.5 * history[0].mean_client_loss


def test_max_examples_caps_client_contribution(rng):
    model = LogisticRegression(input_dim=4, n_classes=3)
    params = model.init(rng)
    ds = make_clients(rng, n_clients=1, n=100)[0]
    update = client_update(
        model, params, ds, epochs=1, batch_size=10, learning_rate=0.1,
        rng=rng, max_examples=30,
    )
    assert update.num_examples == 30
    assert update.weight == 30


def test_eval_fn_called_on_schedule(rng):
    model = LogisticRegression(input_dim=4, n_classes=3)
    clients = make_clients(rng, n_clients=4)
    calls = []

    def eval_fn(params, round_number):
        calls.append(round_number)
        return {"acc": 1.0}

    algo = FederatedAveraging(model, FedAvgConfig(clients_per_round=2))
    _, history = algo.fit(clients, 7, rng, eval_fn=eval_fn, eval_every=3)
    assert calls == [3, 6, 7]
    assert history[2].eval_metrics == {"acc": 1.0}


def test_aggregate_streaming_matches_functional_chain():
    model = LogisticRegression(input_dim=6, n_classes=4)
    rng = np.random.default_rng(6)
    clients = make_clients(rng, n_clients=3, n=60, d=6, c=4)
    fedavg = FederatedAveraging(model)
    params = fedavg.initialize(np.random.default_rng(0))
    updates = [
        client_update(model, params, c, 1, 16, 0.1, np.random.default_rng(i))
        for i, c in enumerate(clients)
    ]
    result = fedavg.aggregate(params, updates)
    delta_sum = updates[0].delta.copy()
    weight_sum = updates[0].weight
    for u in updates[1:]:
        delta_sum = delta_sum + u.delta
        weight_sum += u.weight
    expected = params.axpy(1.0, delta_sum.scale(1.0 / weight_sum))
    np.testing.assert_array_equal(result.to_vector(), expected.to_vector())
    with pytest.raises(ValueError):
        fedavg.aggregate(params, [])


ROUND_MODELS = {
    "logreg": LogisticRegression(input_dim=5, n_classes=3),
    "mlp": MLPClassifier(input_dim=5, hidden_dims=(6, 4), n_classes=3),
    "bow": BagOfWordsLanguageModel(vocab_size=11, embed_dim=4),
}


@st.composite
def rounds(draw):
    """One ``run_round`` case.  ``aligned`` forces every client's trained
    count (after the ``max_examples`` subset) to a multiple of the batch
    size — the regime where the stacked kernels reduce over the same
    shapes as the per-client ones."""
    batch_size = draw(st.integers(1, 6))
    aligned = draw(st.booleans())
    unit = batch_size if aligned else 1
    n_clients = draw(st.integers(1, 6))
    sizes = [unit * draw(st.integers(1, 4 if aligned else 20)) for _ in range(n_clients)]
    max_examples = draw(st.none() | st.integers(1, 3 if aligned else 12).map(lambda m: unit * m))
    config = FedAvgConfig(
        clients_per_round=draw(st.integers(1, 7)),
        epochs=draw(st.integers(1, 3)),
        batch_size=batch_size,
        learning_rate=draw(st.sampled_from([0.05, 0.3])),
        max_examples_per_client=max_examples,
    )
    return config, sizes, aligned, draw(st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("name", sorted(ROUND_MODELS))
@settings(max_examples=40, deadline=None)
@given(case=rounds())
# A ragged mlp round whose first output bias is a cancellation: a pure
# ``rtol=1e-12`` refuses its 1-ulp summation-order difference.
@example(case=(
    FedAvgConfig(
        clients_per_round=3, epochs=1, batch_size=2, learning_rate=0.05,
        max_examples_per_client=1,
    ),
    [4, 2, 1], False, 72,
))
def test_federated_averaging_round_matches_manual_aggregate(name, case):
    """``run_round`` (one stacked cohort call) against Algorithm 1 written
    out: functional ``client_update`` per chosen client, then
    ``aggregate``.  Bitwise on full minibatches, float summation order
    where a last minibatch is ragged; the RNG leaves at the same draw."""
    cfg, sizes, aligned, seed = case
    model = ROUND_MODELS[name]
    data_rng = np.random.default_rng(seed)
    clients = []
    for i, n in enumerate(sizes):
        if name == "bow":
            x = data_rng.integers(0, model.vocab_size, size=(n, 3))
        else:
            x = data_rng.normal(size=(n, model.input_dim))
        clients.append(
            ClientDataset(f"c{i}", x, data_rng.integers(0, model.num_classes, size=n))
        )
    fedavg = FederatedAveraging(model, cfg)
    params = fedavg.initialize(np.random.default_rng(0))

    round_rng = np.random.default_rng(seed + 1)
    new_params, stats = fedavg.run_round(1, params, clients, round_rng)

    replay_rng = np.random.default_rng(seed + 1)
    k = min(cfg.clients_per_round, len(clients))
    updates = [
        client_update(
            model, params, clients[i], epochs=cfg.epochs,
            batch_size=cfg.batch_size, learning_rate=cfg.learning_rate,
            rng=replay_rng, max_examples=cfg.max_examples_per_client,
        )
        for i in replay_rng.choice(len(clients), size=k, replace=False)
    ]
    expected = FederatedAveraging(model, cfg).aggregate(params, updates)

    if aligned:
        np.testing.assert_array_equal(new_params.to_vector(), expected.to_vector())
    else:
        # Summation order differs, so each coordinate is bounded by the
        # magnitudes it is summed from — the weighted deltas and the
        # global weight they land on — not by its own value, which may
        # be a cancellation (the pinned example: ~1e-3 terms summing to
        # 4.6e-9).
        summands = np.abs(params.to_vector()) + sum(
            np.abs(u.delta.to_vector()) for u in updates
        )
        error = np.abs(new_params.to_vector() - expected.to_vector())
        assert (error <= 1e-12 * summands).all(), (error / summands).max()
    assert round_rng.random() == replay_rng.random()
    assert stats.num_clients == k
    assert stats.total_examples == sum(u.num_examples for u in updates)
    assert stats.mean_client_loss == pytest.approx(
        np.mean([u.mean_loss for u in updates]), rel=1e-12
    )


def test_kernel_surface_is_pinned():
    """Two local-training kernel families, as an assertion: functional
    (``client_update`` / ``loss_and_grad`` / ``step``) and stacked
    (``client_update_cohort`` / ``loss_and_grad_cohort`` /
    ``step_stack_``).  A third creeping back is a reviewed edit here."""
    assert {n for n in vars(Model) if n.startswith("loss_and_grad")} == {
        "loss_and_grad", "loss_and_grad_cohort",
    }
    assert {n for n in vars(SGD) if n.startswith("step")} == {"step", "step_stack_"}
    assert {
        n for n in vars(Parameters) if n.endswith("_") and not n.endswith("__")
    } == {"copy_from_", "zero_", "add_"}
    assert "buffers" not in inspect.signature(client_update).parameters
