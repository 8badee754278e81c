"""The law the cohort plane rests on: a row's bytes do not depend on
batch composition.

``client_update_cohort`` over any subset, permutation or block split of
a cohort gives each client the same delta row, mean loss and step count
it gets in the whole cohort — ragged example counts (not multiples of
the batch), differing step counts, ``max_examples`` subsetting and
``clip_update_norm`` included.  That is what lets the plane execute a
round's *accepted set* at the fold, retry a failed group row by row, and
stay byte-identical to any other grouping of the same workloads — and
what lets one call train its cohort in memory-budget-sized blocks.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fedavg
from repro.core.datasets import ClientDataset
from repro.core.fedavg import (
    CohortUpdateBuffers,
    LocalStepSchedule,
    client_update_cohort,
)
from repro.nn.models import LogisticRegression, MLPClassifier

MODELS = {
    "logreg": LogisticRegression(input_dim=7, n_classes=3),
    "mlp": MLPClassifier(input_dim=7, hidden_dims=(6, 5), n_classes=3),
}
# The two `training_rounds` tenants, at their benchmark shapes.
BENCHMARK_SHAPES = {
    "ranker": (
        MLPClassifier(input_dim=96, hidden_dims=(48, 24), n_classes=8),
        dict(epochs=2, batch_size=8, max_examples=None), (96, 96),
    ),
    "keyboard": (
        LogisticRegression(input_dim=1024, n_classes=96),
        dict(epochs=2, batch_size=16, max_examples=32), (12, 40),
    ),
}


def draw_schedules(model, sizes, seed, epochs, batch_size, max_examples):
    rng = np.random.default_rng(seed)
    schedules = []
    for i, n in enumerate(sizes):
        dataset = ClientDataset(
            f"c{i}",
            rng.normal(size=(n, model.input_dim)),
            rng.integers(0, model.num_classes, size=n),
        )
        schedules.append(LocalStepSchedule.draw(
            dataset, epochs, batch_size, np.random.default_rng([seed, i]),
            max_examples,
        ))
    return schedules


def run(model, params, schedules, clip, buffers=None):
    result = client_update_cohort(
        model, params, schedules, learning_rate=0.1, clip_update_norm=clip,
        buffers=buffers,
    )
    return {
        client_id: (
            result.delta_row(i).copy(), float(result.mean_losses[i]),
            int(result.steps[i]), float(result.weights[i]),
            int(result.num_examples[i]),
        )
        for i, client_id in enumerate(result.client_ids)
    }


def assert_same_rows(part, whole):
    for client_id, (delta, loss, steps, weight, n) in part.items():
        ref = whole[client_id]
        assert np.array_equal(delta, ref[0]), client_id
        assert (loss, steps, weight, n) == ref[1:], client_id


@st.composite
def compositions(draw):
    """A cohort and one regrouping of it: a permuted subset, cut into
    consecutive blocks."""
    sizes = draw(st.lists(st.integers(1, 23), min_size=1, max_size=7))
    members = draw(st.permutations(range(len(sizes))))
    members = members[: draw(st.integers(1, len(sizes)))]
    cuts = sorted(draw(st.sets(st.integers(1, len(members)))) | {len(members)})
    blocks = [members[a:b] for a, b in zip([0, *cuts[:-1]], cuts)]
    return sizes, [block for block in blocks if block]


@pytest.mark.parametrize("name", sorted(MODELS))
@given(
    composition=compositions(),
    batch_size=st.integers(2, 6),
    epochs=st.integers(1, 3),
    max_examples=st.one_of(st.none(), st.integers(3, 12)),
    clip=st.one_of(st.none(), st.floats(1e-3, 0.5)),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_rows_do_not_depend_on_batch_composition(
    name, composition, batch_size, epochs, max_examples, clip, seed
):
    model = MODELS[name]
    sizes, blocks = composition
    params = model.init(np.random.default_rng(seed))
    schedules = draw_schedules(model, sizes, seed, epochs, batch_size, max_examples)
    whole = run(model, params, schedules, clip)
    assert list(whole) == [f"c{i}" for i in range(len(sizes))]
    # One reused buffer set across the blocks, as the plane has: stale
    # rows from a larger block are padding to a smaller one.
    buffers = CohortUpdateBuffers(params.layout)
    for block in blocks:
        part = run(model, params, [schedules[i] for i in block], clip, buffers)
        assert list(part) == [f"c{i}" for i in block]
        assert_same_rows(part, whole)


@pytest.mark.parametrize("name", sorted(MODELS) + sorted(BENCHMARK_SHAPES))
@given(
    data=st.data(),
    clip=st.one_of(st.none(), st.floats(1e-3, 0.5)),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_block_boundaries_inside_one_call_do_not_move_rows(name, data, clip, seed):
    """``client_update_cohort`` cuts a cohort past its memory budget into
    blocks of rows; one-row blocks must give every row what one block of
    the whole cohort gives it."""
    if name in MODELS:
        model = MODELS[name]
        sizes = data.draw(st.lists(st.integers(1, 23), min_size=1, max_size=7))
        config = dict(
            epochs=data.draw(st.integers(1, 3)),
            batch_size=data.draw(st.integers(2, 6)),
            max_examples=data.draw(st.one_of(st.none(), st.integers(3, 12))),
        )
    else:
        model, config, (low, high) = BENCHMARK_SHAPES[name]
        sizes = data.draw(st.lists(st.integers(low, high), min_size=1, max_size=7))
    params = model.init(np.random.default_rng(seed))
    schedules = draw_schedules(model, sizes, seed, **config)
    with mock.patch.object(fedavg, "BLOCK_BYTES", 1):
        one_row_blocks = run(model, params, schedules, clip)
    with mock.patch.object(fedavg, "BLOCK_BYTES", 1 << 40):
        one_block = run(model, params, schedules, clip)
    assert list(one_row_blocks) == list(one_block)
    assert_same_rows(one_row_blocks, one_block)


@pytest.mark.parametrize("tenant", sorted(BENCHMARK_SHAPES))
def test_every_block_size_on_the_benchmark_shapes(tenant):
    """Block sizes 1..K of one cohort at each `training_rounds` tenant's
    real shapes, where the GEMMs are large enough for BLAS to pick
    different kernels if K leaked into a row's arithmetic."""
    model, config, (low, high) = BENCHMARK_SHAPES[tenant]
    sizes = np.random.default_rng(3).integers(low, high + 1, size=6).tolist()
    params = model.init(np.random.default_rng(4))
    schedules = draw_schedules(model, sizes, 11, **config)
    whole = run(model, params, schedules, clip=None)
    buffers = CohortUpdateBuffers(params.layout)
    for block_size in range(1, len(sizes) + 1):
        for start in range(0, len(sizes), block_size):
            block = schedules[start : start + block_size]
            assert_same_rows(run(model, params, block, None, buffers), whole)
