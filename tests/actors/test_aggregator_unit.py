"""Aggregator unit tests: the leaf's synchronous hand-off to its master,
fold-on-ack accounting and SecAgg flush."""

import numpy as np
import pytest

from repro.actors.aggregator import Aggregator
from repro.actors.kernel import Actor, ActorSystem
from repro.actors import messages as msg
from repro.core.config import SecAggConfig
from repro.sim.event_loop import EventLoop


class Sink(Actor):
    def __init__(self):
        self.messages = []

    def receive(self, sender, message):
        self.messages.append(message)


class StubCoordinator(Actor):
    """Stands in for the round's Coordinator: records the master's
    ``round_finished`` calls."""

    def __init__(self):
        self.finished = []

    def round_finished(self, round_id, task_id, committed):
        self.finished.append((round_id, task_id, committed))


class StubMaster(Actor):
    """Stands in for the round's MasterAggregator: records every call a
    leaf makes and answers each report with ``verdict`` through that leaf
    (``None``: leaves it undecided, as a master does a stranger's)."""

    def __init__(self, verdict=True):
        self.verdict = verdict
        self.reports = []
        self.drops = []

    def receive(self, sender, message):
        raise AssertionError(f"a leaf sent its master {message!r}")

    def decide_report(self, report, leaf):
        self.reports.append(report)
        if self.verdict is not None:
            leaf.ack_device(report, accepted=self.verdict)

    def record_drop(self, dropped):
        self.drops.append(dropped)


def make_harness(secagg=None, verdict=True):
    loop = EventLoop()
    system = ActorSystem(loop, np.random.default_rng(0), mean_latency_s=0.0)
    master = StubMaster(verdict)
    master_ref = system.spawn(master, "master")
    agg = Aggregator(
        round_id=1,
        master=master_ref,
        secagg=secagg or SecAggConfig(enabled=False),
        rng=np.random.default_rng(1),
    )
    agg_ref = system.spawn(agg, "agg")
    return loop, system, master, agg, agg_ref


def report(device_id, vec, weight=10.0):
    return msg.DeviceReport(
        device_id=device_id,
        round_id=1,
        delta_vector=np.asarray(vec, dtype=float),
        weight=weight,
        num_examples=int(weight),
        train_metrics={},
        upload_nbytes=80,
    )


def test_report_held_pending_until_ack():
    loop, system, master, agg, agg_ref = make_harness(verdict=None)
    device = Sink()
    device_ref = system.spawn(device, "device-7")
    agg.register_device(7, device_ref)
    system.tell(agg_ref, report(7, [1.0, 2.0]))
    loop.run()
    # Handed to the master, but not folded into the sum without its answer.
    assert len(master.reports) == 1
    assert device.messages == []
    partial = agg.flush()
    assert partial.device_count == 0  # never accepted
    assert partial.delta_sum is None


def test_ack_accept_folds_into_sum():
    loop, system, master, agg, agg_ref = make_harness()
    device = Sink()
    device_ref = system.spawn(device, "device-7")
    agg.register_device(7, device_ref)
    system.tell(agg_ref, report(7, [1.0, 2.0], weight=5.0))
    loop.run()
    # Device got the ack message.
    assert any(
        isinstance(m, msg.ReportAck) and m.accepted for m in device.messages
    )
    partial = agg.flush()
    assert partial.device_count == 1
    np.testing.assert_array_equal(partial.delta_sum, [1.0, 2.0])
    assert partial.weight_sum == 5.0


def test_ack_reject_discards():
    loop, system, master, agg, agg_ref = make_harness(verdict=False)
    device = Sink()
    device_ref = system.spawn(device, "device-7")
    agg.register_device(7, device_ref)
    system.tell(agg_ref, report(7, [1.0, 2.0]))
    loop.run()
    assert [m.accepted for m in device.messages] == [False]
    partial = agg.flush()
    assert partial.device_count == 0


def test_report_that_completes_the_round_is_in_its_fold():
    """The master answers a report through its leaf before it finishes
    the round, so the report that completes the round is folded into
    the round's commit and acked ``accepted``."""
    from repro.actors.master_aggregator import MasterAggregator
    from repro.core.checkpoint import CheckpointStore
    from repro.core.config import RoundConfig, TaskConfig
    from repro.nn.parameters import Parameters

    loop = EventLoop()
    system = ActorSystem(loop, np.random.default_rng(0), mean_latency_s=0.0)
    initial = Parameters({"w": np.zeros(2)})
    store = CheckpointStore()
    store.initialize(initial, "pop", "t")
    coordinator = StubCoordinator()
    root = MasterAggregator(
        round_id=1,
        task=TaskConfig("t", "pop", round_config=RoundConfig(
            target_participants=2, overselection_factor=1.0)),
        coordinator=system.spawn(coordinator, "coordinator"),
        store=store,
        rng=np.random.default_rng(1),
    )
    system.spawn(root, "master")
    devices = {d: Sink() for d in (1, 2)}
    leaves = {
        d: root.admit_device(d, system.spawn(device, f"device-{d}"))
        for d, device in devices.items()
    }
    system.tell(leaves[1], report(1, [1.0, 2.0], weight=1.0))
    loop.run_for(0.1)
    assert store.latest("pop").round_number == 0
    system.tell(leaves[2], report(2, [3.0, 6.0], weight=1.0))
    loop.run_for(0.1)
    committed = store.latest("pop")
    assert committed.round_number == 1
    assert committed.metadata["contributing_devices"] == 2
    np.testing.assert_array_equal(committed.to_params().to_vector(), [2.0, 4.0])
    for device in devices.values():
        assert [m.accepted for m in device.messages] == [True]
    assert coordinator.finished == [(1, "t", True)]


def test_duplicate_and_post_drop_reports_ignored():
    loop, system, master, agg, agg_ref = make_harness()
    agg._devices = {4: None}
    system.tell(
        agg_ref,
        msg.DeviceDropped(device_id=4, round_id=1, reason="eligibility"),
    )
    loop.run()
    system.tell(agg_ref, report(4, [9.0]))
    loop.run()
    partial = agg.flush()
    assert partial.device_count == 0  # dropped devices cannot report
    # The drop was handed to the master exactly once; the report never.
    assert len(master.drops) == 1
    assert master.reports == []


def test_wrong_round_ignored():
    loop, system, master, agg, agg_ref = make_harness()
    agg._devices = {5: None}
    bad = msg.DeviceReport(
        device_id=5, round_id=99, delta_vector=np.ones(2), weight=1.0,
        num_examples=1, train_metrics={}, upload_nbytes=8,
    )
    system.tell(agg_ref, bad)
    loop.run()
    assert master.reports == []


def test_secagg_flush_recovers_exact_sum():
    config = SecAggConfig(enabled=True, group_size=4, threshold_fraction=0.6)
    loop, system, master, agg, agg_ref = make_harness(secagg=config)
    rng = np.random.default_rng(3)
    vectors = {d: rng.normal(size=6) for d in range(6)}
    agg._devices = {d: None for d in range(6)}
    for d, vec in vectors.items():
        system.tell(agg_ref, report(d, vec, weight=float(d + 1)))
    loop.run()
    partial = agg.flush()
    assert partial.device_count == 6
    assert partial.secagg_metrics is not None
    expected = sum(vectors.values())
    np.testing.assert_allclose(partial.delta_sum, expected, atol=1e-3)
    assert partial.weight_sum == pytest.approx(sum(range(1, 7)), abs=1e-3)


def test_secagg_flush_with_non_reporting_devices():
    """Forwarded-but-silent devices enter the protocol as dropouts."""
    config = SecAggConfig(enabled=True, group_size=4, threshold_fraction=0.6)
    loop, system, master, agg, agg_ref = make_harness(secagg=config)
    rng = np.random.default_rng(4)
    agg._devices = {d: None for d in range(8)}
    vectors = {d: rng.normal(size=5) for d in range(6)}  # 2 never report
    for d, vec in vectors.items():
        system.tell(agg_ref, report(d, vec))
        loop.run()
    partial = agg.flush()
    assert partial.device_count == 6
    np.testing.assert_allclose(
        partial.delta_sum, sum(vectors.values()), atol=1e-3
    )


def secagg_flush(vectors, cohort):
    """A SecAgg leaf's flush: every device of ``cohort`` forwarded to it,
    those in ``vectors`` reporting (weight 2 + id), the rest silent."""
    config = SecAggConfig(enabled=True, group_size=4, threshold_fraction=0.6)
    loop, system, master, agg, agg_ref = make_harness(secagg=config)
    agg._devices = {d: None for d in cohort}
    for d, vec in vectors.items():
        system.tell(agg_ref, report(d, vec, weight=2.0 + d))
    loop.run()
    return agg.flush()


def counts(metrics):
    """The metrics' counts: the wall-clock phase seconds differ per run."""
    return {k: v for k, v in vars(metrics).items() if not k.endswith("_seconds")}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_secagg_flush_treats_a_non_finite_update_as_a_dropout(bad):
    """A committed vector the ring cannot carry enters the instance as a
    post-ShareKeys dropout: the flush equals one in which that device
    was forwarded and never reported."""
    rng = np.random.default_rng(5)
    vectors = {d: rng.normal(size=5) for d in range(7)}
    poisoned = dict(vectors)
    poisoned[3] = vectors[3].copy()
    poisoned[3][2] = bad
    silent = {d: v for d, v in vectors.items() if d != 3}
    got, want = secagg_flush(poisoned, range(7)), secagg_flush(silent, range(7))
    assert got.device_count == want.device_count == 6
    assert got.delta_sum.tobytes() == want.delta_sum.tobytes()
    assert got.weight_sum == want.weight_sum
    assert counts(got.secagg_metrics) == counts(want.secagg_metrics)
    assert got.secagg_metrics.dropped_before_commit == 1


def test_secagg_flush_clips_an_update_past_the_rings_headroom():
    """A finite update too large for the ring (clip range x summands past
    2^31) is clipped to what the ring can sum, not refused."""
    rng = np.random.default_rng(6)
    vectors = {d: rng.normal(size=5) for d in range(6)}
    vectors[4] = vectors[4] * 1e12
    partial = secagg_flush(vectors, range(6))
    assert partial.device_count == 6
    assert np.isfinite(partial.delta_sum).all()
    ring_clip = ((1 << 31) - 1) // 6
    expected = sum(np.clip(v, -ring_clip, ring_clip) for v in vectors.values())
    np.testing.assert_allclose(partial.delta_sum, expected, rtol=1e-6, atol=6.0)


# -- buffered fold path -------------------------------------------------------

def left_to_right(vectors):
    """The numpy oracle: ``((v0 + v1) + v2) + ...``, nothing else."""
    total = np.array(vectors[0], dtype=np.float64)
    for vec in vectors[1:]:
        total = total + vec
    return total


def test_fold_buffered_and_functional_byte_identical(monkeypatch):
    """The in-place fold is byte-identical to a left-to-right numpy sum
    at every level of the tree: a leaf's ``flush().delta_sum``, a shard
    node's, and the model the master commits from the shard partials —
    under two shard nodes, and under one, whose tree folds what a flat
    funnel over the leaves would."""
    from repro.actors import master_aggregator
    from repro.actors.master_aggregator import MasterAggregator
    from repro.core.checkpoint import CheckpointStore
    from repro.core.config import RoundConfig, TaskConfig
    from repro.nn.parameters import Parameters

    rng = np.random.default_rng(3)
    vectors = {i: rng.normal(size=32) for i in range(6)}

    loop, system, master, agg, agg_ref = make_harness()
    for device_id, vec in vectors.items():
        system.tell(agg_ref, report(device_id, vec, weight=device_id + 1.0))
    loop.run()
    partial = agg.flush()
    assert partial.delta_sum.tobytes() == left_to_right(list(vectors.values())).tobytes()
    assert (partial.weight_sum, partial.device_count) == (21.0, 6)

    # Three leaves of two devices (device i on leaf i % 3) under two
    # shard nodes (leaves 0 and 2; leaf 1), under the master.
    monkeypatch.setattr(master_aggregator, "_PLAIN_GROUP_SIZE", 2)
    initial = Parameters({"w": rng.normal(size=(4, 8))})
    leaves = [left_to_right([vectors[i], vectors[i + 3]]) for i in range(3)]

    def run_tree(reporting, shard_slots=2):
        loop = EventLoop()
        system = ActorSystem(loop, np.random.default_rng(0), mean_latency_s=0.0)
        store = CheckpointStore()
        store.initialize(initial, "pop", "t")
        round_config = RoundConfig(target_participants=6, overselection_factor=1.0)
        root = MasterAggregator(
            round_id=1,
            task=TaskConfig("t", "pop", round_config=round_config),
            coordinator=system.spawn(StubCoordinator(), "coordinator"),
            store=store,
            rng=np.random.default_rng(1),
            shard_slots=shard_slots,
        )
        system.spawn(root, "master")
        for device_id in vectors:
            leaf = root.admit_device(
                device_id, system.spawn(Sink(), f"device-{device_id}")
            )
            if device_id in reporting:
                system.tell(
                    leaf,
                    report(device_id, vectors[device_id], weight=device_id + 1.0),
                )
        loop.run_for(1.0)
        return system, root, store

    # Device 5 silent: the round stays open, so the nodes flush by hand.
    system, root, _ = run_tree({0, 1, 2, 3, 4})
    node0, node1 = map(system.actor_of, root.shard_aggregators)
    shard0 = node0.flush()
    assert shard0.delta_sum.tobytes() == left_to_right(
        [leaves[0], vectors[2]]
    ).tobytes()
    assert (shard0.weight_sum, shard0.device_count) == (8.0, 3)
    assert node1.flush().delta_sum.tobytes() == leaves[1].tobytes()

    two_shards = left_to_right([left_to_right([leaves[0], leaves[2]]), leaves[1]])
    for shard_slots, total in ((2, two_shards), (1, left_to_right(leaves))):
        _, root, store = run_tree(set(vectors), shard_slots)
        assert len(root.shard_aggregators) == shard_slots
        committed = store.latest("pop")
        assert committed.round_number == 1
        expected = initial.to_vector() + total / 21.0
        assert committed.to_params().to_vector().tobytes() == expected.tobytes()


def test_flush_secagg_stacked_augmentation_matches_per_device_concat():
    """The (n, dim+1) stacked augmentation must feed the protocol exactly
    what the per-device np.concatenate construction did."""
    rng = np.random.default_rng(4)
    secagg = SecAggConfig(enabled=True, group_size=4, threshold_fraction=0.6)
    loop, system, master, agg, agg_ref = make_harness(secagg=secagg)
    vectors = {i: rng.normal(size=12) for i in range(4)}
    for device_id, vec in vectors.items():
        device = Sink()
        agg.register_device(device_id, system.spawn(device, f"d{device_id}"))
        system.tell(agg_ref, report(device_id, vec, weight=device_id + 5.0))
    loop.run()
    partial = agg.flush()
    assert partial.device_count == 4
    # The decoded sum approximates sum of vectors and weights (quantized).
    expected_sum = np.sum(list(vectors.values()), axis=0)
    np.testing.assert_allclose(partial.delta_sum, expected_sum, atol=1e-3)
    expected_weight = sum(i + 5.0 for i in vectors)
    assert abs(partial.weight_sum - expected_weight) < 1e-3


# -- deferred (cohort-plane) reports: the ordered recipe ------------------------

from repro.core.config import ClientTrainingConfig
from repro.core.datasets import ClientDataset
from repro.device.cohort import CohortExecutionPlane, UnexecutedWorkloadError
from repro.nn.models import LogisticRegression

TINY = LogisticRegression(input_dim=3, n_classes=2)
TINY_CONFIG = ClientTrainingConfig(epochs=1, batch_size=4, learning_rate=0.1)


def make_handles(count, bad=()):
    """``count`` enqueued workloads on one plane (those in ``bad`` carry a
    label the kernel rejects, so they fail alone at the fold)."""
    plane = CohortExecutionPlane(TINY)
    params = TINY.init(np.random.default_rng(0))
    handles = []
    for i in range(count):
        rng = np.random.default_rng(100 + i)
        labels = rng.integers(0, 2, size=8)
        if i in bad:
            labels[0] = 5
        handles.append(plane.enqueue(
            ClientDataset(f"c{i}", rng.normal(size=(8, 3)), labels),
            params, TINY_CONFIG, rng, round_key=("pop", "t", 0),
        ))
    return plane, handles


def deferred_report(device_id, handle):
    return msg.DeviceReport(
        device_id=device_id, round_id=1, delta_vector=None,
        weight=handle.weight, num_examples=handle.num_examples,
        train_metrics={"loss": None, "num_examples": handle.num_examples},
        upload_nbytes=80, deferred=handle,
    )


@pytest.mark.parametrize("deferred", [False, True], ids=["eager", "deferred"])
def test_redelivered_report_is_folded_exactly_once(deferred):
    """The state machine's ``on_report`` is idempotent, so the master
    would accept a re-delivered report again: the leaf must not fold (or
    hand on, or ack) a device it has already acked."""
    loop, system, master, agg, agg_ref = make_harness()
    device = Sink()
    agg.register_device(7, system.spawn(device, "device-7"))
    plane, (handle,) = make_handles(1)
    message = (
        deferred_report(7, handle) if deferred
        else report(7, [1.0, 2.0], weight=8.0)
    )
    system.tell(agg_ref, message)
    system.tell(agg_ref, message)       # twice in one instant
    loop.run()
    system.tell(agg_ref, message)       # and once later
    loop.run()
    assert len(master.reports) == 1
    assert len([m for m in device.messages if isinstance(m, msg.ReportAck)]) == 1
    plane.execute_pending([handle])
    partial = agg.flush()
    expected = handle.delta_vector if deferred else np.array([1.0, 2.0])
    assert partial.device_count == 1
    assert partial.delta_sum.tobytes() == expected.tobytes()
    assert partial.weight_sum == 8.0


def test_mixed_round_folds_in_acceptance_order():
    """Eager vectors fold online until the first deferred report is
    accepted; from then on everything waits in the recipe, so the float
    chain is acceptance order whatever the mix."""
    loop, system, master, agg, agg_ref = make_harness()
    plane, handles = make_handles(2)
    dim = TINY.init(np.random.default_rng(0)).num_parameters
    rng = np.random.default_rng(9)
    eager = [rng.normal(size=dim) * 1e3 for _ in range(3)]
    messages = [
        report(0, eager[0], weight=1.0), report(1, eager[1], weight=2.0),
        deferred_report(2, handles[0]), report(3, eager[2], weight=3.0),
        deferred_report(4, handles[1]),
    ]
    for message in messages:
        system.tell(agg_ref, message)
        loop.run()
    assert agg._accepted_count == 2     # the two eager ones folded online
    plane.execute_pending(handles)
    partial = agg.flush()
    chain = [eager[0], eager[1], handles[0].delta_vector, eager[2],
             handles[1].delta_vector]
    assert partial.delta_sum.tobytes() == left_to_right(chain).tobytes()
    assert (partial.weight_sum, partial.device_count) == (22.0, 5)


def test_failed_row_is_left_out_and_unexecuted_row_is_an_error():
    loop, system, master, agg, agg_ref = make_harness()
    plane, handles = make_handles(3, bad={1})
    for device_id, handle in enumerate(handles):
        system.tell(agg_ref, deferred_report(device_id, handle))
    loop.run()
    with pytest.raises(UnexecutedWorkloadError):
        agg.flush()
    assert plane.execute_pending(handles) == 3
    assert handles[1].failed and plane.failed_workloads == 1
    partial = agg.flush()
    assert (partial.device_count, partial.weight_sum) == (2, 16.0)
    assert partial.delta_sum.tobytes() == left_to_right(
        [handles[0].delta_vector, handles[2].delta_vector]
    ).tobytes()


def test_secagg_leaf_resolves_handles_at_flush():
    config = SecAggConfig(enabled=True, group_size=4, threshold_fraction=0.6)
    loop, system, master, agg, agg_ref = make_harness(secagg=config)
    plane, handles = make_handles(5, bad={3})
    agg._devices = {d: None for d in range(5)}
    for device_id, handle in enumerate(handles):
        system.tell(agg_ref, deferred_report(device_id, handle))
    loop.run()
    plane.execute_pending(handles)
    partial = agg.flush()
    survivors = [h for h in handles if not h.failed]
    assert partial.device_count == len(survivors) == 4
    np.testing.assert_allclose(
        partial.delta_sum, sum(h.delta_vector for h in survivors), atol=1e-3
    )
    assert partial.weight_sum == pytest.approx(32.0, abs=1e-3)


class StubLeaf:
    def __init__(self):
        self.acks = []

    def ack_device(self, report, accepted):
        self.acks.append((report.device_id, accepted))


@pytest.mark.parametrize("deferred", [False, True], ids=["eager", "deferred"])
def test_master_records_a_device_once(deferred):
    """A report that reaches the master twice is one metrics row, one
    handle, one row executed — and one fold."""
    from repro.actors.master_aggregator import MasterAggregator
    from repro.analytics.metrics_store import ModelMetricsStore
    from repro.core.checkpoint import CheckpointStore
    from repro.core.config import RoundConfig, TaskConfig

    plane, handles = make_handles(2)
    initial = TINY.init(np.random.default_rng(0))
    dim = initial.num_parameters
    loop = EventLoop()
    system = ActorSystem(loop, np.random.default_rng(0), mean_latency_s=0.0)
    store = CheckpointStore()
    store.initialize(initial, "pop", "t")
    metrics = ModelMetricsStore()
    coordinator = StubCoordinator()
    root = MasterAggregator(
        round_id=1,
        task=TaskConfig("t", "pop", round_config=RoundConfig(
            target_participants=2, overselection_factor=1.0)),
        coordinator=system.spawn(coordinator, "coordinator"),
        store=store,
        rng=np.random.default_rng(1),
        metrics_store=metrics,
    )
    system.spawn(root, "master")
    vectors = [np.full(dim, 1.0), np.full(dim, 2.0)]
    leaves = [
        root.admit_device(device_id, system.spawn(Sink(), f"d{device_id}"))
        for device_id in (0, 1)
    ]
    for device_id, leaf in enumerate(leaves):
        if deferred:
            message = deferred_report(device_id, handles[device_id])
        else:
            message = msg.DeviceReport(
                device_id=device_id, round_id=1, delta_vector=vectors[device_id],
                weight=8.0, num_examples=8,
                train_metrics={"loss": 0.5, "num_examples": 8}, upload_nbytes=8,
            )
        system.tell(leaf, message)
        loop.run_for(0.1)
        if device_id == 0:
            # Again, straight to the master: what a leaf without its own
            # guard would have handed on (to a leaf that only records).
            second = StubLeaf()
            root.decide_report(message, second)
            assert second.acks == [(0, True)]
    (record,) = metrics.history("t")
    assert record.summaries["num_examples"].to_dict()["count"] == 2
    assert record.summaries["loss"].to_dict()["count"] == 2
    if deferred:
        vectors = [h.delta_vector for h in handles]
        assert plane.workloads_executed == 2 and plane.executions == 1
        assert record.summaries["loss"].to_dict()["mean"] == pytest.approx(
            np.mean([h.mean_loss for h in handles])
        )
    expected = initial.to_vector() + left_to_right(vectors) / 16.0
    assert store.latest("pop").to_params().to_vector().tobytes() == expected.tobytes()
