"""Buffered client_update / aggregation: byte-identical to functional."""

import numpy as np
import pytest

from repro.core.datasets import ClientDataset
from repro.core.fedavg import (
    ClientUpdateBuffers,
    FedAvgConfig,
    FederatedAveraging,
    client_update,
)
from repro.nn.models import LogisticRegression, MLPClassifier, RNNLanguageModel


def make_dataset(rng, n=60, dim=6, classes=4, client_id="c0"):
    x = rng.normal(size=(n, dim))
    y = rng.integers(0, classes, size=n)
    return ClientDataset(client_id, x, y)


@pytest.mark.parametrize("clip", [None, 0.05])
@pytest.mark.parametrize("max_examples", [None, 40])
def test_client_update_buffered_byte_identical(clip, max_examples):
    model = LogisticRegression(input_dim=6, n_classes=4)
    rng = np.random.default_rng(0)
    params = model.init(rng)
    dataset = make_dataset(rng)
    kwargs = dict(
        epochs=2, batch_size=16, learning_rate=0.2,
        max_examples=max_examples, clip_update_norm=clip,
    )
    functional = client_update(
        model, params, dataset, rng=np.random.default_rng(7), **kwargs
    )
    buffers = ClientUpdateBuffers.for_structure(params)
    buffered = client_update(
        model, params, dataset, rng=np.random.default_rng(7),
        buffers=buffers, **kwargs,
    )
    np.testing.assert_array_equal(
        functional.delta.to_vector(), buffered.delta.to_vector()
    )
    assert functional.mean_loss == buffered.mean_loss
    assert functional.steps == buffered.steps
    assert functional.weight == buffered.weight
    assert functional.num_examples == buffered.num_examples


def test_client_update_buffered_mlp_and_fallback_models():
    """MLP uses the in-place gradient override; the RNN goes through the
    copy fallback — both must match the functional path exactly.  The
    98k-param model is the dgemm-bound `training_rounds` shape."""
    rng = np.random.default_rng(1)
    for model in (
        MLPClassifier(input_dim=6, hidden_dims=(8, 5), n_classes=3),
        LogisticRegression(input_dim=1024, n_classes=96),
    ):
        ds = make_dataset(rng, dim=model.input_dim, classes=model.num_classes)
        p = model.init(rng)
        a = client_update(model, p, ds, 1, 8, 0.1, np.random.default_rng(3))
        b = client_update(
            model, p, ds, 1, 8, 0.1, np.random.default_rng(3),
            buffers=ClientUpdateBuffers.for_structure(p),
        )
        np.testing.assert_array_equal(a.delta.to_vector(), b.delta.to_vector())

    rnn = RNNLanguageModel(vocab_size=12, embed_dim=4, hidden_dim=5)
    tokens = rng.integers(0, 12, size=(30, 3))
    labels = rng.integers(0, 12, size=30)
    ds_rnn = ClientDataset("r", tokens, labels)
    p_rnn = rnn.init(rng)
    a = client_update(rnn, p_rnn, ds_rnn, 1, 8, 0.1, np.random.default_rng(5))
    b = client_update(
        rnn, p_rnn, ds_rnn, 1, 8, 0.1, np.random.default_rng(5),
        buffers=ClientUpdateBuffers.for_structure(p_rnn),
    )
    np.testing.assert_array_equal(a.delta.to_vector(), b.delta.to_vector())


def test_client_update_buffers_reused_across_sessions():
    model = LogisticRegression(input_dim=6, n_classes=4)
    rng = np.random.default_rng(2)
    params = model.init(rng)
    buffers = ClientUpdateBuffers.for_structure(params)
    first = client_update(
        model, params, make_dataset(rng), 1, 16, 0.1,
        np.random.default_rng(1), buffers=buffers,
    )
    first_snapshot = first.delta.to_vector()
    second = client_update(
        model, params, make_dataset(rng, client_id="c1"), 1, 16, 0.1,
        np.random.default_rng(2), buffers=buffers,
    )
    # The result aliases the shared buffers: the second session overwrote
    # the first result's storage, which is exactly the documented contract.
    assert first.delta.flat_base is second.delta.flat_base
    np.testing.assert_array_equal(
        first.delta.to_vector(), second.delta.to_vector()
    )
    assert not np.array_equal(first_snapshot, second.delta.to_vector())


def test_client_update_buffers_structure_mismatch():
    model = LogisticRegression(input_dim=6, n_classes=4)
    rng = np.random.default_rng(3)
    params = model.init(rng)
    other = LogisticRegression(input_dim=5, n_classes=4).init(rng)
    with pytest.raises(ValueError):
        client_update(
            model, params, make_dataset(rng), 1, 16, 0.1,
            np.random.default_rng(1),
            buffers=ClientUpdateBuffers.for_structure(other),
        )


def test_batches_into_matches_batches():
    rng = np.random.default_rng(4)
    ds = make_dataset(rng, n=37)
    xb_buf = np.empty((8, ds.x.shape[1]), dtype=ds.x.dtype)
    yb_buf = np.empty((8,), dtype=ds.y.dtype)
    functional = list(ds.batches(8, 2, np.random.default_rng(9)))
    buffered = [
        (xb.copy(), yb.copy())
        for xb, yb in ds.batches_into(8, 2, np.random.default_rng(9), xb_buf, yb_buf)
    ]
    assert len(functional) == len(buffered)
    for (xa, ya), (xb, yb) in zip(functional, buffered):
        np.testing.assert_array_equal(xa, xb)
        np.testing.assert_array_equal(ya, yb)


def test_federated_averaging_round_matches_manual_aggregate():
    """run_round's streaming accumulator equals the functional rule."""
    model = LogisticRegression(input_dim=6, n_classes=4)
    rng = np.random.default_rng(5)
    clients = [make_dataset(rng, client_id=f"c{i}") for i in range(6)]
    fedavg = FederatedAveraging(model, FedAvgConfig(clients_per_round=4, epochs=1))
    params = fedavg.initialize(np.random.default_rng(0))

    select_rng = np.random.default_rng(11)
    new_params, stats = fedavg.run_round(1, params, clients, select_rng)

    # Replay with the functional path and the original combination rule.
    replay_rng = np.random.default_rng(11)
    cfg = fedavg.config
    k = min(cfg.clients_per_round, len(clients))
    chosen = replay_rng.choice(len(clients), size=k, replace=False)
    updates = [
        client_update(
            model, params, clients[i], epochs=cfg.epochs,
            batch_size=cfg.batch_size, learning_rate=cfg.learning_rate,
            rng=replay_rng,
        )
        for i in chosen
    ]
    delta_sum = updates[0].delta.copy()
    weight_sum = updates[0].weight
    for u in updates[1:]:
        delta_sum = delta_sum + u.delta
        weight_sum += u.weight
    expected = params.axpy(
        cfg.server_learning_rate, delta_sum.scale(1.0 / weight_sum)
    )
    np.testing.assert_array_equal(new_params.to_vector(), expected.to_vector())
    assert stats.num_clients == k


def test_aggregate_streaming_matches_functional_chain():
    model = LogisticRegression(input_dim=6, n_classes=4)
    rng = np.random.default_rng(6)
    clients = [make_dataset(rng, client_id=f"c{i}") for i in range(3)]
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
