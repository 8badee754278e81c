"""client_update_cohort vs K independent client_update calls.

The cohort path must consume identical RNG draws (subset, then one
shuffle per epoch), produce bitwise-identical deltas for models whose
kernels are row-exact, and handle ragged cohorts (different per-client
example counts, hence different local step counts) by masking.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import fedavg
from repro.core.datasets import ClientDataset
from repro.core.fedavg import (
    CohortUpdateBuffers,
    LocalStepSchedule,
    client_update,
    client_update_cohort,
)
from repro.nn.models import (
    BagOfWordsLanguageModel,
    LogisticRegression,
    MLPClassifier,
    RNNLanguageModel,
)

EXACT_MODELS = {
    "logreg": LogisticRegression(input_dim=10, n_classes=4),
    "mlp": MLPClassifier(input_dim=10, hidden_dims=(8,), n_classes=4),
    # The two `training_rounds` tenants' shapes: dispatch-bound (6k
    # params in 6 arrays) and dgemm-bound (98k), where BLAS may pick a
    # different kernel for the stacked GEMM than for the per-client one.
    "ranker": MLPClassifier(input_dim=96, hidden_dims=(48, 24), n_classes=8),
    "keyboard": LogisticRegression(input_dim=1024, n_classes=96),
}
TOKEN_MODELS = {
    "rnn": RNNLanguageModel(vocab_size=13, embed_dim=4, hidden_dim=6),
    "bow": BagOfWordsLanguageModel(vocab_size=13, embed_dim=4),
}


def make_datasets(name, sizes, seed=5):
    rng = np.random.default_rng(seed)
    out = []
    for i, n in enumerate(sizes):
        if name in TOKEN_MODELS:
            x = rng.integers(0, 13, size=(n, 3))
            y = rng.integers(0, 13, size=n)
        else:
            model = EXACT_MODELS[name]
            x = rng.normal(size=(n, model.input_dim))
            y = rng.integers(0, model.num_classes, size=n)
        out.append(ClientDataset(f"c{i}", x, y))
    return out


def run_both(model, datasets, exact, **kwargs):
    """Per-client functional results and the cohort result."""
    params = model.init(np.random.default_rng(1))
    singles = []
    for i, d in enumerate(datasets):
        u = client_update(
            model, params, d, rng=np.random.default_rng(400 + i), **kwargs,
        )
        singles.append((u.delta.to_vector(), u.mean_loss, u.steps, u.weight))
    stacked = client_update_cohort(
        model, params,
        datasets=datasets,
        rngs=[np.random.default_rng(400 + i) for i in range(len(datasets))],
        **kwargs,
    )
    for i, (vector, mean_loss, steps, weight) in enumerate(singles):
        assert stacked.client_ids[i] == datasets[i].client_id
        assert float(stacked.weights[i]) == weight
        assert int(stacked.steps[i]) == steps
        if exact:
            assert np.array_equal(stacked.delta_row(i), vector), i
            assert float(stacked.mean_losses[i]) == mean_loss
        else:
            np.testing.assert_allclose(
                stacked.delta_row(i), vector, rtol=1e-8, atol=1e-11
            )
            assert float(stacked.mean_losses[i]) == pytest.approx(
                mean_loss, rel=1e-10
            )
    return stacked


@pytest.mark.parametrize("name", sorted(EXACT_MODELS))
def test_uniform_cohort_bitwise_exact(name):
    """Equal-sized clients with batch-divisible data: every minibatch is
    full, so the cohort path is bitwise-identical per client."""
    model = EXACT_MODELS[name]
    datasets = make_datasets(name, [32] * 6)
    run_both(model, datasets, exact=True,
             epochs=2, batch_size=8, learning_rate=0.2)


@pytest.mark.parametrize("name", sorted(TOKEN_MODELS))
def test_token_models_close(name):
    model = TOKEN_MODELS[name]
    datasets = make_datasets(name, [24] * 4)
    run_both(model, datasets, exact=False,
             epochs=1, batch_size=8, learning_rate=0.1)


def test_ragged_cohort_close():
    """Different example counts => different step counts; stragglers of
    the *numeric* schedule fall inactive instead of perturbing others."""
    model = EXACT_MODELS["mlp"]
    datasets = make_datasets("mlp", [40, 17, 8, 3, 1])
    stacked = run_both(model, datasets, exact=False,
                       epochs=2, batch_size=8, learning_rate=0.1)
    assert list(stacked.steps) == [10, 6, 2, 2, 2]


def test_max_examples_subset_matches():
    model = EXACT_MODELS["logreg"]
    datasets = make_datasets("logreg", [64] * 3)
    run_both(model, datasets, exact=True,
             epochs=1, batch_size=8, learning_rate=0.1, max_examples=24)


def test_schedule_draw_consumes_stream_like_client_update():
    """After drawing a schedule, the RNG sits exactly where client_update
    would have left it."""
    d = make_datasets("logreg", [40])[0]
    model = EXACT_MODELS["logreg"]
    params = model.init(np.random.default_rng(1))
    rng_a = np.random.default_rng(9)
    client_update(model, params, d, epochs=2, batch_size=8,
                  learning_rate=0.1, rng=rng_a, max_examples=24)
    rng_b = np.random.default_rng(9)
    LocalStepSchedule.draw(d, epochs=2, batch_size=8, rng=rng_b,
                           max_examples=24)
    assert rng_a.integers(1 << 30) == rng_b.integers(1 << 30)


def test_prebuilt_schedules_equal_datasets_path():
    model = EXACT_MODELS["mlp"]
    datasets = make_datasets("mlp", [24, 24])
    params = model.init(np.random.default_rng(1))
    schedules = [
        LocalStepSchedule.draw(d, epochs=1, batch_size=8,
                               rng=np.random.default_rng(400 + i))
        for i, d in enumerate(datasets)
    ]
    a = client_update_cohort(model, params, schedules, learning_rate=0.1)
    b = client_update_cohort(
        model, params, datasets=datasets,
        rngs=[np.random.default_rng(400 + i) for i in range(2)],
        epochs=1, batch_size=8, learning_rate=0.1,
    )
    assert np.array_equal(a.delta_matrix, b.delta_matrix)
    assert np.array_equal(a.mean_losses, b.mean_losses)


def reused_capacities(monkeypatch, lanes):
    """Run cohorts of 3, 7 and 2 rows through one buffer set on at most
    ``lanes`` lanes, each row against its per-client call; returns the
    capacity of lane 0's buffers and of their siblings' after each."""
    monkeypatch.setattr(fedavg, "usable_cpus", lambda: lanes)
    model = EXACT_MODELS["logreg"]
    params = model.init(np.random.default_rng(1))
    buffers = CohortUpdateBuffers(params.layout)
    # A row is its weights, its gradients and its padded minibatch.
    probe = make_datasets("logreg", [1])[0]
    row_bytes = 2 * 8 * params.num_parameters
    row_bytes += 8 * (probe.x[0].nbytes + probe.y[0].nbytes)
    monkeypatch.setattr(fedavg, "BLOCK_BYTES", 4 * row_bytes + row_bytes // 2)
    assert buffers.rows_per_block(probe.x, probe.y, 8) == 4
    capacities = []
    for sizes in ([16] * 3, [16] * 7, [16] * 2):
        datasets = make_datasets("logreg", sizes)
        stacked = client_update_cohort(
            model, params, datasets=datasets,
            rngs=[np.random.default_rng(i) for i in range(len(sizes))],
            epochs=1, batch_size=8, learning_rate=0.1, buffers=buffers,
        )
        assert len(stacked.client_ids) == len(sizes)
        for i, dataset in enumerate(datasets):
            single = client_update(
                model, params, dataset, epochs=1, batch_size=8,
                learning_rate=0.1, rng=np.random.default_rng(i),
            )
            assert np.array_equal(stacked.delta_row(i), single.delta.to_vector())
        siblings = [sibling.capacity for sibling in buffers.siblings]
        capacities.append((buffers.capacity, siblings))
    return capacities


def test_buffers_reused_across_cohort_sizes(monkeypatch):
    """One buffer set serves cohorts of every size and holds at most one
    block: a cohort past the budget runs in blocks, never grows it."""
    assert reused_capacities(monkeypatch, lanes=1) == [(3, []), (4, []), (4, [])]


def test_buffers_reused_across_cohort_sizes_on_two_lanes(monkeypatch):
    """On two lanes the 7-row cohort runs 2-row blocks, half the budget
    each, lane 1 on a sibling buffer set; the cohorts that fit one block
    stay on lane 0 and leave the sibling alone."""
    assert reused_capacities(monkeypatch, lanes=2) == [(3, []), (3, [2]), (3, [2])]


def test_working_memory_is_one_block_not_the_cohort(monkeypatch):
    """A cohort's peak allocation is its delta matrix, one block's stacks
    and its data — not K × the model.  Here a row's weights and
    gradients are 4.2 MB, so stacking all 12 rows would add 50 MB to the
    25 MB delta matrix; one block adds at most the budget.  Two lanes
    train a one-row block each, in parallel, within the same bound."""
    monkeypatch.setattr(fedavg, "usable_cpus", lambda: 2)
    model = LogisticRegression(input_dim=2048, n_classes=128)
    params = model.init(np.random.default_rng(1))
    rng = np.random.default_rng(2)
    schedules = [
        LocalStepSchedule.draw(
            ClientDataset(
                f"c{i}", rng.normal(size=(16, 2048)), rng.integers(0, 128, size=16)
            ),
            epochs=1, batch_size=8, rng=np.random.default_rng(i),
        )
        for i in range(12)
    ]
    data_bytes = sum(s.dataset.x.nbytes + s.dataset.y.nbytes for s in schedules)
    tracemalloc.start()
    try:
        result = client_update_cohort(model, params, schedules, learning_rate=0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.delta_matrix.shape == (12, params.num_parameters)
    bound = result.delta_matrix.nbytes + 2 * fedavg.BLOCK_BYTES + data_bytes
    assert peak <= bound, (peak, bound)


def test_delta_matrix_is_freshly_owned():
    model = EXACT_MODELS["logreg"]
    params = model.init(np.random.default_rng(1))
    buffers = CohortUpdateBuffers(params.layout)
    datasets = make_datasets("logreg", [16, 16])
    a = client_update_cohort(
        model, params, datasets=datasets,
        rngs=[np.random.default_rng(i) for i in range(2)],
        epochs=1, batch_size=8, learning_rate=0.1, buffers=buffers,
    )
    kept = a.delta_matrix.copy()
    # A second execution with the same buffers must not touch the first
    # execution's delta matrix (its rows are live report vectors).
    client_update_cohort(
        model, params, datasets=make_datasets("logreg", [16, 16], seed=77),
        rngs=[np.random.default_rng(50 + i) for i in range(2)],
        epochs=1, batch_size=8, learning_rate=0.1, buffers=buffers,
    )
    assert np.array_equal(a.delta_matrix, kept)


def test_empty_cohort_rejected():
    model = EXACT_MODELS["logreg"]
    params = model.init(np.random.default_rng(1))
    with pytest.raises(ValueError, match="empty cohort"):
        client_update_cohort(model, params, datasets=[], rngs=[])
    with pytest.raises(ValueError, match="schedules"):
        client_update_cohort(model, params)
