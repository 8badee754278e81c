"""CohortExecutionPlane: deferred workloads, grouping, and trainer wiring.

The plane retains nothing at enqueue; ``execute_pending(handles)`` runs
exactly the handles it is given — in a fleet, a round's accepted set,
handed over by the round's master at the fold."""

import numpy as np
import pytest

from repro.core.checkpoint import FLCheckpoint
from repro.core.config import ClientTrainingConfig, SecAggConfig, TaskKind
from repro.core.datasets import ClientDataset
from repro.core.plan import generate_plan
from repro.device.cohort import (
    CohortExecutionPlane,
    PendingCohortResult,
    UnexecutedWorkloadError,
)
from repro.device.example_store import ExampleStore
from repro.device.runtime import RealTrainer, TrainResult
from repro.nn.models import MLPClassifier

MODEL = MLPClassifier(input_dim=6, hidden_dims=(5,), n_classes=3)
CONFIG = ClientTrainingConfig(epochs=2, batch_size=4, learning_rate=0.1)


def make_dataset(i, n=12, seed=3):
    rng = np.random.default_rng(seed + i)
    return ClientDataset(
        f"c{i}", rng.normal(size=(n, 6)), rng.integers(0, 3, size=n)
    )


def make_plan(kind=TaskKind.TRAINING):
    return generate_plan(
        task_id="t", kind=kind, client_config=CONFIG,
        secagg=SecAggConfig(), model_nbytes=64,
    )


def make_store(i, n=12, seed=3):
    d = make_dataset(i, n, seed)
    store = ExampleStore(ttl_s=None)
    store.add_batch(d.x, d.y, timestamp_s=0.0)
    return store


@pytest.fixture
def params():
    return MODEL.init(np.random.default_rng(1))


def enqueue(plane, params, i, seed, round_key=("pop", "t", 1), dataset=None):
    return plane.enqueue(
        dataset if dataset is not None else make_dataset(i), params, CONFIG,
        np.random.default_rng(seed + i), round_key=round_key,
    )


def plane_handles(plane):
    """Every handle reachable from the plane's own state."""
    return [
        value for slot in vars(plane).values()
        for value in (slot if isinstance(slot, (list, tuple, dict)) else [slot])
        if isinstance(value, PendingCohortResult)
    ]


def test_enqueue_retains_nothing_and_execute_runs_exactly_the_given_handles(params):
    plane = CohortExecutionPlane(MODEL)
    handles = [enqueue(plane, params, i, 10) for i in range(4)]
    assert plane_handles(plane) == []
    assert not any(isinstance(v, list) for v in vars(plane).values())
    assert plane.executions == 0
    assert all(h.num_examples == 12 and h.weight == 12.0 for h in handles)
    assert not any(h.executed for h in handles)
    accepted = [handles[2], handles[0], handles[3]]
    assert plane.execute_pending(accepted) == 3
    assert plane.executions == 1
    assert plane.workloads_executed == 3
    assert plane.largest_cohort == 3
    assert [h.executed for h in handles] == [True, False, True, True]
    assert plane_handles(plane) == []
    # an executed handle is not run again; the abandoned one runs if asked
    assert plane.execute_pending(accepted) == 0
    assert plane.executions == 1
    assert plane.execute_pending(handles) == 1
    assert plane.executions == 2 and plane.workloads_executed == 4


def test_reading_an_unexecuted_handle_raises_the_typed_error(params):
    plane = CohortExecutionPlane(MODEL)
    handle = enqueue(plane, params, 0, 15, round_key=("pop", "t", 17))
    for read in ("delta_vector", "mean_loss"):
        with pytest.raises(UnexecutedWorkloadError, match=r"'pop', 't', 17"):
            getattr(handle, read)
    plane.execute_pending([handle])
    assert handle.delta_vector.shape == (params.num_parameters,)
    assert handle.mean_loss > 0


def test_slices_are_rows_of_one_matrix(params):
    plane = CohortExecutionPlane(MODEL)
    handles = [enqueue(plane, params, i, 20) for i in range(3)]
    plane.execute_pending(handles)
    bases = {id(h.delta_vector.base) for h in handles}
    assert len(bases) == 1 and None not in bases
    # the matrix holds the executed rows only, in the order given
    assert handles[0].delta_vector.base.shape == (3, params.num_parameters)


def test_batching_does_not_change_numbers(params):
    """A workload's numbers are pinned at enqueue: executing it alone or
    with company yields the identical delta."""
    plane_a = CohortExecutionPlane(MODEL)
    solo = enqueue(plane_a, params, 0, 30)
    plane_a.execute_pending([solo])

    plane_b = CohortExecutionPlane(MODEL)
    together = [enqueue(plane_b, params, i, 30) for i in range(5)]
    plane_b.execute_pending(reversed(together))
    assert np.array_equal(solo.delta_vector, together[0].delta_vector)
    assert solo.mean_loss == together[0].mean_loss


def test_groups_by_round_key_not_object_identity(params):
    """Two devices deserialize their own (equal) checkpoints; the plane
    must group them by round key and train both against one global."""
    plane = CohortExecutionPlane(MODEL)
    a = enqueue(plane, params, 0, 40, round_key=("pop", "t", 7))
    b = enqueue(plane, params.copy(), 1, 40, round_key=("pop", "t", 7))
    assert plane.execute_pending([a, b]) == 2
    assert plane.executions == 1         # one group, one tensor program
    assert a.executed and b.executed


def test_distinct_rounds_execute_separately(params):
    plane = CohortExecutionPlane(MODEL)
    other_params = MODEL.init(np.random.default_rng(2))
    a = enqueue(plane, params, 0, 50, round_key=("pop", "t", 1))
    b = enqueue(plane, other_params, 1, 50, round_key=("pop", "t", 2))
    assert plane.execute_pending([a, b]) == 2
    assert plane.executions == 2         # one per (round, config) group
    solo = CohortExecutionPlane(MODEL)
    alone = enqueue(solo, other_params, 1, 50, round_key=("pop", "t", 2))
    solo.execute_pending([alone])
    assert np.array_equal(b.delta_vector, alone.delta_vector)


def test_enqueue_refuses_features_that_disagree_with_the_group(params):
    """What can be checked at enqueue is: a workload that could not share
    its cohort's tensor program fails its own session, not the fold."""
    plane = CohortExecutionPlane(MODEL)
    enqueue(plane, params, 0, 60)
    rng = np.random.default_rng(0)
    wrong_dim = ClientDataset("bad", rng.normal(size=(12, 9)),
                              rng.integers(0, 3, size=12))
    good = make_dataset(1)
    wrong_dtype = ClientDataset("bad", good.x.astype(np.float32), good.y)
    for bad in (wrong_dim, wrong_dtype):
        with pytest.raises(ValueError, match="disagree with the cohort"):
            enqueue(plane, params, 1, 60, dataset=bad)
    # another round is another group, with its own first member
    enqueue(plane, params, 1, 60, round_key=("pop", "t", 2), dataset=wrong_dtype)


def test_failed_group_fails_members_individually_not_others(params):
    """A kernel failure at the fold re-runs the group row by row: the bad
    row fails alone, its neighbours' bytes are what they would have been
    without it, other groups are untouched, and nothing raises."""
    plane = CohortExecutionPlane(MODEL)
    good = make_dataset(0)
    bad_labels = good.y.copy()
    bad_labels[5] = 7                     # no such class: the kernel raises
    doomed = enqueue(plane, params, 0, 90,
                     dataset=ClientDataset("bad", good.x, bad_labels))
    neighbours = [enqueue(plane, params, i, 90) for i in (1, 2)]
    other = enqueue(plane, params, 3, 90, round_key=("pop", "t", 2))
    assert plane.execute_pending([neighbours[0], doomed, neighbours[1], other]) == 4
    assert doomed.failed and not doomed.executed
    assert isinstance(doomed.error, IndexError)
    assert plane.failed_workloads == 1
    with pytest.raises(UnexecutedWorkloadError) as raised:
        doomed.delta_vector
    assert raised.value.__cause__ is doomed.error
    assert plane.execute_pending([doomed]) == 0      # not retried for ever
    assert plane.failed_workloads == 1

    clean = CohortExecutionPlane(MODEL)
    twins = [enqueue(clean, params, i, 90) for i in (1, 2)]
    clean.execute_pending(twins)
    for survivor, twin in zip(neighbours, twins):
        assert not survivor.failed
        assert np.array_equal(survivor.delta_vector, twin.delta_vector)
        assert survivor.mean_loss == twin.mean_loss
    assert other.executed


def test_late_enqueue_forms_next_batch(params):
    """Whoever holds the handles decides the batches: a workload enqueued
    after an execution runs in the next one it is handed to, alone."""
    plane = CohortExecutionPlane(MODEL)
    first = enqueue(plane, params, 0, 70)
    plane.execute_pending([first])
    row = first.delta_vector
    late = enqueue(plane, params, 1, 70)
    assert plane.execute_pending([first, late]) == 1
    assert plane.executions == 2 and plane.largest_cohort == 1
    assert first.delta_vector is row


# -- RealTrainer deferral ------------------------------------------------------


def make_checkpoint(params, round_number=1):
    return FLCheckpoint.from_params(params, "pop", "t", round_number)


def test_trainer_defer_matches_inline_train(params):
    """Deferred execution produces the same TrainResult the inline path
    would, given the same RNG stream."""
    checkpoint = make_checkpoint(params)
    inline = RealTrainer(model=MODEL, store=make_store(0))
    rng_inline = np.random.default_rng(80)
    expected = inline.train(make_plan(), checkpoint, 100.0, rng_inline)

    deferred = RealTrainer(model=MODEL, store=make_store(0))
    rng = np.random.default_rng(80)
    plane = CohortExecutionPlane(MODEL)
    deferred.attach_cohort_plane(plane)
    result = deferred.defer(make_plan(), checkpoint, 100.0, rng)
    assert isinstance(result, TrainResult)
    # everything the session needs exists before any number does
    assert result.delta_vector is None and result.metrics["loss"] is None
    assert result.num_examples == expected.num_examples
    assert result.train_compute_units == expected.train_compute_units
    assert result.upload_nbytes == expected.upload_nbytes
    assert result.weight == expected.weight
    assert list(result.metrics) == list(expected.metrics)
    plane.execute_pending([result.deferred])
    assert np.array_equal(result.deferred.delta_vector, expected.delta_vector)
    assert result.deferred.mean_loss == expected.metrics["loss"]
    assert result.metrics["num_examples"] == expected.metrics["num_examples"]
    # deferral consumed the identical stream the inline session did
    assert rng.integers(1 << 30) == rng_inline.integers(1 << 30)


def test_round_checkpoint_is_decoded_once_for_the_whole_cohort(params):
    """Every participant of a round trains against the plane's one
    decoded model; the next round's checkpoint replaces it, and trainers
    keep no decoded copy of their own."""
    plane = CohortExecutionPlane(MODEL)
    trainers = [RealTrainer(model=MODEL, store=make_store(i)) for i in range(3)]
    for trainer in trainers:
        trainer.attach_cohort_plane(plane)
    checkpoint = make_checkpoint(params)
    handles = [
        trainer.defer(make_plan(), checkpoint, 0.0, np.random.default_rng(i))
        for i, trainer in enumerate(trainers)
    ]
    shared = plane.checkpoint_params(checkpoint)
    assert all(h.deferred.params is shared for h in handles)
    assert shared.allclose(params)
    assert not any(hasattr(t, "_params_cache") for t in trainers)
    next_round = plane.checkpoint_params(make_checkpoint(params, round_number=2))
    assert next_round is not shared
    plane.execute_pending(h.deferred for h in handles)
    assert plane.executions == 1 and plane.workloads_executed == 3


def test_defer_returns_none_without_plane(params):
    trainer = RealTrainer(model=MODEL, store=make_store(0))
    assert trainer.defer(make_plan(), make_checkpoint(params), 0.0,
                         np.random.default_rng(0)) is None


def test_defer_returns_none_for_eval_plans(params):
    trainer = RealTrainer(model=MODEL, store=make_store(0, n=30))
    trainer.attach_cohort_plane(CohortExecutionPlane(MODEL))
    plan = make_plan(kind=TaskKind.EVALUATION)
    assert trainer.defer(plan, make_checkpoint(params), 0.0,
                         np.random.default_rng(0)) is None


def test_defer_raises_on_empty_store(params):
    trainer = RealTrainer(model=MODEL, store=ExampleStore())
    trainer.attach_cohort_plane(CohortExecutionPlane(MODEL))
    with pytest.raises(RuntimeError, match="no data"):
        trainer.defer(make_plan(), make_checkpoint(params), 0.0,
                      np.random.default_rng(0))


def test_eval_single_forward_matches_two_pass(params):
    """The eval fast path (loss derived from the logits) is bitwise
    identical to calling model.loss and model.logits separately."""
    store = make_store(0, n=30)
    trainer = RealTrainer(model=MODEL, store=store)
    plan = make_plan(kind=TaskKind.EVALUATION)
    result = trainer.train(plan, make_checkpoint(params), 100.0,
                           np.random.default_rng(0))
    x, y = store.query(plan.device.selection_criteria, 100.0)
    assert result.metrics["eval_loss"] == MODEL.loss(params, x, y)
