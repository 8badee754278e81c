"""Checkpoint store: the 'commit only after full aggregation' contract."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.checkpoint import (
    CheckpointStore,
    CheckpointWriteError,
    CommitRecord,
    FLCheckpoint,
)
from repro.nn.parameters import Parameters

#: Traced bytes the store may hold per commit beyond its one model per
#: population: a log tuple, its ``nbytes`` int and a list slot (measured
#: 127; a retained checkpoint held its whole payload).
BYTES_PER_COMMIT = 200


def params(val=1.0):
    return Parameters({"w": np.full(4, val)})


def test_checkpoint_roundtrip():
    ckpt = FLCheckpoint.from_params(params(3.0), "pop", "task", 5, note="x")
    recovered = ckpt.to_params()
    assert recovered.allclose(params(3.0))
    assert ckpt.round_number == 5
    assert ckpt.metadata["note"] == "x"
    assert ckpt.nbytes == len(ckpt.payload)


def test_initialize_then_commit():
    store = CheckpointStore()
    store.initialize(params(0.0), "pop", "task")
    assert store.latest("pop").round_number == 0
    store.commit(FLCheckpoint.from_params(params(1.0), "pop", "task", 1))
    assert store.latest("pop").round_number == 1
    assert store.write_count == 2
    assert len(store.history("pop")) == 2


def test_commit_must_be_monotonic():
    store = CheckpointStore()
    store.initialize(params(), "pop", "task")
    store.commit(FLCheckpoint.from_params(params(), "pop", "task", 3))
    with pytest.raises(ValueError, match="non-monotonic"):
        store.commit(FLCheckpoint.from_params(params(), "pop", "task", 3))
    with pytest.raises(ValueError, match="non-monotonic"):
        store.commit(FLCheckpoint.from_params(params(), "pop", "task", 2))


def test_gaps_in_round_numbers_allowed():
    store = CheckpointStore()
    store.initialize(params(), "pop", "task")
    store.commit(FLCheckpoint.from_params(params(), "pop", "task", 7))
    assert store.latest("pop").round_number == 7


def test_unknown_population():
    store = CheckpointStore()
    assert not store.has_checkpoint("nope")
    with pytest.raises(KeyError):
        store.latest("nope")


def test_populations_are_isolated():
    store = CheckpointStore()
    store.initialize(params(1.0), "a", "t")
    store.initialize(params(2.0), "b", "t")
    assert store.latest("a").to_params()["w"][0] == 1.0
    assert store.latest("b").to_params()["w"][0] == 2.0


def test_the_store_holds_one_model_per_population_and_a_record_per_commit():
    """Fifty rounds of a 10^5-parameter model leave one payload per
    population plus a small record per commit, and the log lists them."""
    rounds = 50
    w = np.random.default_rng(0).normal(size=(100, 1000))
    small = Parameters({"b": np.zeros(10)})
    store = CheckpointStore()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        store.initialize(Parameters({"w": w}), "kbd", "kbd/train")
        store.initialize(small, "rank", "rank/train")
        for r in range(1, rounds + 1):
            model = Parameters({"w": w + r})
            store.commit(FLCheckpoint.from_params(model, "kbd", "kbd/train", r))
            store.commit(FLCheckpoint.from_params(small, "rank", "rank/train", r))
        del model
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    models = store.latest("kbd").nbytes + store.latest("rank").nbytes
    assert store.latest("kbd").nbytes > 800_000
    assert models <= held <= models + 2 * (rounds + 1) * BYTES_PER_COMMIT

    assert store.write_count == 2 * (rounds + 1)
    kbd_bytes = store.latest("kbd").nbytes
    assert store.history("kbd") == [
        CommitRecord("kbd", "kbd/train", r, kbd_bytes) for r in range(rounds + 1)
    ]
    assert [c.round_number for c in store.history("rank")] == list(range(rounds + 1))
    assert store.latest("kbd").to_params().allclose(Parameters({"w": w + rounds}))

    # A failed write leaves the model and the log as they were.
    latest, log = store.latest("kbd"), store.history("kbd")
    store.write_fault = lambda: True
    with pytest.raises(CheckpointWriteError):
        store.commit(FLCheckpoint.from_params(small, "kbd", "kbd/train", rounds + 1))
    assert store.latest("kbd") is latest and store.history("kbd") == log
    assert (store.write_count, store.failed_write_count) == (2 * (rounds + 1), 1)


def test_a_non_monotonic_commit_is_refused_before_the_fault_hook():
    store = CheckpointStore()
    store.initialize(params(), "pop", "task", round_number=5)
    draws = []
    store.write_fault = lambda: draws.append(1) or True
    with pytest.raises(ValueError, match="non-monotonic"):
        store.commit(FLCheckpoint.from_params(params(), "pop", "task", 5))
    assert draws == [] and store.failed_write_count == 0
    assert [c.round_number for c in store.history("pop")] == [5]
