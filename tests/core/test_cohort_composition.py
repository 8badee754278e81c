"""The law the cohort plane rests on: a row's bytes do not depend on
batch composition.

``client_update_cohort`` over any subset, permutation or block split of
a cohort gives each client the same delta row, mean loss and step count
it gets in the whole cohort — ragged example counts (not multiples of
the batch), differing step counts, ``max_examples`` subsetting and
``clip_update_norm`` included.  That is what lets the plane execute a
round's *accepted set* at the fold, retry a failed group row by row, and
stay byte-identical to any other grouping of the same workloads — and
what lets one call train its cohort in memory-budget-sized blocks, and
those blocks on parallel lanes.
"""

import os
import signal
import threading
import time
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fedavg
from repro.core.config import ClientTrainingConfig
from repro.core.datasets import ClientDataset
from repro.core.fedavg import (
    CohortUpdateBuffers,
    LocalStepSchedule,
    client_update_cohort,
)
from repro.device.cohort import CohortExecutionPlane
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


def draw_cohort(name, data):
    """A model, client sizes and a training config: drawn for the small
    models, the benchmark's own for its two tenants."""
    if name not in MODELS:
        model, config, (low, high) = BENCHMARK_SHAPES[name]
        return model, data.draw(
            st.lists(st.integers(low, high), min_size=1, max_size=7)
        ), config
    return MODELS[name], data.draw(
        st.lists(st.integers(1, 23), min_size=1, max_size=7)
    ), dict(
        epochs=data.draw(st.integers(1, 3)),
        batch_size=data.draw(st.integers(2, 6)),
        max_examples=data.draw(st.one_of(st.none(), st.integers(3, 12))),
    )


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
    model, sizes, config = draw_cohort(name, data)
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


@contextmanager
def pinned_lanes(lanes):
    """Pin the usable CPUs to ``lanes``; yields the set of threads that
    ran a lane."""
    threads = set()
    run_lane = fedavg._run_lane

    def spy(*args):
        threads.add(threading.current_thread().name)
        return run_lane(*args)

    with mock.patch.object(fedavg, "usable_cpus", lambda: lanes), \
            mock.patch.object(fedavg, "_run_lane", spy):
        yield threads


@pytest.mark.parametrize("lanes", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(MODELS) + sorted(BENCHMARK_SHAPES))
@given(
    data=st.data(),
    clip=st.one_of(st.none(), st.floats(1e-3, 0.5)),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=15, deadline=None)
def test_lane_count_does_not_move_rows(lanes, name, data, clip, seed):
    """A cohort past one block trains its blocks on up to ``lanes``
    parallel lanes, each on its own share of the budget; every row is
    what one block of the whole cohort gives it."""
    model, sizes, config = draw_cohort(name, data)
    params = model.init(np.random.default_rng(seed))
    schedules = draw_schedules(model, sizes, seed, **config)
    with mock.patch.object(fedavg, "BLOCK_BYTES", 1 << 40):
        one_block = run(model, params, schedules, clip)
    # A budget of ``block_rows`` rows: ceil(K / block_rows) blocks want
    # lanes, and each lane's blocks hold block_rows // lanes rows.
    block_rows = data.draw(st.integers(1, 4))
    first = schedules[0].dataset
    row_bytes = 16 * params.num_parameters + schedules[0].batch_size * (
        first.x[0].nbytes + first.y[0].nbytes
    )
    with mock.patch.object(fedavg, "BLOCK_BYTES", block_rows * row_bytes), \
            pinned_lanes(lanes) as threads:
        on_lanes = run(model, params, schedules, clip)
    assert len(threads) == min(lanes, -(-len(sizes) // block_rows))
    assert list(on_lanes) == list(one_block)
    assert_same_rows(on_lanes, one_block)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_trains_on_lanes_of_its_own():
    """The lanes' thread pool is made per process: a child forked after
    its parent trained on two lanes has none of the parent's threads, and
    trains on two lanes of its own (with the parent's pool it would hang
    until the alarm)."""
    model = MODELS["logreg"]
    params = model.init(np.random.default_rng(2))
    schedules = draw_schedules(model, [9, 5, 7, 4], 2, 1, 3, None)
    with mock.patch.object(fedavg, "BLOCK_BYTES", 1), pinned_lanes(2) as threads:
        parent = run(model, params, schedules, None)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.alarm(20)
                threads.clear()
                child = run(model, params, schedules, None)
                code = int(len(threads) != 2 or any(
                    not np.array_equal(child[c][0], parent[c][0]) for c in parent
                ))
            finally:
                os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


class PoisonedRow(Exception):
    pass


class Poisoned(LogisticRegression):
    """Raises on a block holding a marked client (first feature
    ``1000 + i`` for client ``i``), after ``DELAYS[i]`` seconds; every
    other call sleeps a little first, so lanes overlap.  Counts the calls
    in flight and finished."""

    DELAYS = {1: 0.05}

    def __init__(self):
        super().__init__(input_dim=5, n_classes=3)
        self.lock = threading.Lock()
        self.in_flight = 0
        self.finished = 0

    def loss_and_grad_cohort(self, params, x, y, counts, out):
        with self.lock:
            self.in_flight += 1
        try:
            marked = x[..., 0][x[..., 0] >= 1000]
            if marked.size:
                client = int(marked.min()) - 1000
                time.sleep(self.DELAYS.get(client, 0.0))
                raise PoisonedRow(client)
            time.sleep(0.005)
            return super().loss_and_grad_cohort(params, x, y, counts, out)
        finally:
            with self.lock:
                self.in_flight -= 1
                self.finished += 1


def poisoned_cohort(marked):
    rng = np.random.default_rng(8)
    datasets = []
    for i in range(7):
        x = rng.normal(size=(8, 5))
        if i in marked:
            x[:, 0] = 1000 + i
        datasets.append(ClientDataset(f"c{i}", x, rng.integers(0, 3, size=8)))
    return datasets


@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_a_failing_block_raises_the_earliest_error_after_every_lane(lanes):
    """Clients 1 and 2 fail, client 1 last in time (it sleeps first).
    One-row blocks in step order are the clients, so lane ``l`` trains
    clients ``l, l + lanes, ...``: every lane joins before the raise,
    which is block 1's error whichever lane finished failing first."""
    model = Poisoned()
    params = model.init(np.random.default_rng(1))
    schedules = [
        LocalStepSchedule.draw(d, 1, 4, np.random.default_rng(i))
        for i, d in enumerate(poisoned_cohort({1, 2}))
    ]
    with mock.patch.object(fedavg, "BLOCK_BYTES", 1), pinned_lanes(lanes) as threads:
        with pytest.raises(PoisonedRow) as raised:
            client_update_cohort(model, params, schedules, learning_rate=0.1)
        assert model.in_flight == 0
        finished = model.finished
        time.sleep(0.05)
    assert raised.value.args == (1,)
    assert model.finished == finished
    assert len(threads) == lanes


@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_the_plane_fallback_fails_the_same_rows_on_every_lane_count(lanes):
    """The plane's row-by-row retry after a lane failure marks exactly
    the poisoned rows failed, and the survivors' bytes are a clean
    one-lane run's."""
    config = ClientTrainingConfig(epochs=1, batch_size=4, learning_rate=0.1)
    marked = {1, 2, 5}

    def execute(model, datasets, lanes):
        plane = CohortExecutionPlane(model)
        params = model.init(np.random.default_rng(1))
        handles = [
            plane.enqueue(d, params, config, np.random.default_rng(i), "round")
            for i, d in enumerate(datasets)
        ]
        with mock.patch.object(fedavg, "BLOCK_BYTES", 1), pinned_lanes(lanes):
            assert plane.execute_pending(handles) == len(handles)
        return plane, handles

    plane, handles = execute(Poisoned(), poisoned_cohort(marked), lanes)
    assert {i for i, h in enumerate(handles) if h.failed} == marked
    assert plane.failed_workloads == len(marked)
    _, clean = execute(Poisoned(), poisoned_cohort(set()), 1)
    for i, handle in enumerate(handles):
        if i not in marked:
            assert np.array_equal(handle.delta_vector, clean[i].delta_vector)
            assert handle.mean_loss == clean[i].mean_loss
