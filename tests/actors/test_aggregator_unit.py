"""Aggregator unit tests: pending-until-ack accounting and SecAgg flush."""

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


def make_harness(secagg=None):
    loop = EventLoop()
    system = ActorSystem(loop, np.random.default_rng(0), mean_latency_s=0.0)
    master = Sink()
    master_ref = system.spawn(master, "master")
    agg = Aggregator(
        round_id=1,
        task_id="t",
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
    loop, system, master, agg, agg_ref = make_harness()
    device = Sink()
    device_ref = system.spawn(device, "device-7")
    agg.register_device(7, device_ref)
    system.tell(agg_ref, report(7, [1.0, 2.0]))
    loop.run()
    # Forwarded to the master, but not yet folded into the sum.
    assert len(master.messages) == 1
    partial = agg.flush(accepted_ids=set())
    assert partial.device_count == 0  # never accepted
    assert partial.delta_sum is None


def test_ack_accept_folds_into_sum():
    loop, system, master, agg, agg_ref = make_harness()
    device = Sink()
    device_ref = system.spawn(device, "device-7")
    agg.register_device(7, device_ref)
    system.tell(agg_ref, report(7, [1.0, 2.0], weight=5.0))
    loop.run()
    agg.ack_device(7, accepted=True)
    loop.run()
    # Device got the ack message.
    assert any(
        isinstance(m, msg.ReportAck) and m.accepted for m in device.messages
    )
    partial = agg.flush(accepted_ids=set())
    assert partial.device_count == 1
    np.testing.assert_array_equal(partial.delta_sum, [1.0, 2.0])
    assert partial.weight_sum == 5.0


def test_ack_reject_discards():
    loop, system, master, agg, agg_ref = make_harness()
    device = Sink()
    device_ref = system.spawn(device, "device-7")
    agg.register_device(7, device_ref)
    system.tell(agg_ref, report(7, [1.0, 2.0]))
    loop.run()
    agg.ack_device(7, accepted=False)
    partial = agg.flush(accepted_ids=set())
    assert partial.device_count == 0


def test_flush_resolves_in_flight_pending_with_accepted_set():
    loop, system, master, agg, agg_ref = make_harness()
    for d in (1, 2, 3):
        agg.register_device(d, system.spawn(Sink(), f"device-{d}"))
    system.tell(agg_ref, report(1, [1.0], weight=1.0))
    system.tell(agg_ref, report(2, [2.0], weight=1.0))
    system.tell(agg_ref, report(3, [4.0], weight=1.0))
    loop.run()
    # Master accepted 1 and 3 but the acks never reached the aggregator.
    partial = agg.flush(accepted_ids={1, 3})
    assert partial.device_count == 2
    np.testing.assert_array_equal(partial.delta_sum, [5.0])


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
    partial = agg.flush(accepted_ids={4})
    assert partial.device_count == 0  # dropped devices cannot report
    # The drop was forwarded to the master exactly once.
    drops = [m for m in master.messages if isinstance(m, msg.DeviceDropped)]
    assert len(drops) == 1


def test_wrong_round_ignored():
    loop, system, master, agg, agg_ref = make_harness()
    agg._devices = {5: None}
    bad = msg.DeviceReport(
        device_id=5, round_id=99, delta_vector=np.ones(2), weight=1.0,
        num_examples=1, train_metrics={}, upload_nbytes=8,
    )
    system.tell(agg_ref, bad)
    loop.run()
    assert master.messages == []


def test_secagg_flush_recovers_exact_sum():
    config = SecAggConfig(enabled=True, group_size=4, threshold_fraction=0.6)
    loop, system, master, agg, agg_ref = make_harness(secagg=config)
    rng = np.random.default_rng(3)
    vectors = {d: rng.normal(size=6) for d in range(6)}
    agg._devices = {d: None for d in range(6)}
    for d, vec in vectors.items():
        system.tell(agg_ref, report(d, vec, weight=float(d + 1)))
    loop.run()
    for d in vectors:
        agg.ack_device(d, accepted=True)
    partial = agg.flush(accepted_ids=set(vectors))
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
        agg.ack_device(d, accepted=True)
    partial = agg.flush(accepted_ids=set(vectors))
    assert partial.device_count == 6
    np.testing.assert_allclose(
        partial.delta_sum, sum(vectors.values()), atol=1e-3
    )


# -- buffered fold path -------------------------------------------------------

def accept_all(agg, ids):
    for device_id in ids:
        agg.ack_device(device_id, accepted=True)


def left_to_right(vectors):
    """The numpy oracle: ``((v0 + v1) + v2) + ...``, nothing else."""
    total = np.array(vectors[0], dtype=np.float64)
    for vec in vectors[1:]:
        total = total + vec
    return total


def test_fold_buffered_and_functional_byte_identical(monkeypatch):
    """The in-place fold is byte-identical to a left-to-right numpy sum
    at every level of the tree: a leaf's ``flush().delta_sum``, a shard
    node's, and the model the master commits from the shard partials."""
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
    accept_all(agg, vectors)
    partial = agg.flush(accepted_ids=set(vectors))
    assert partial.delta_sum.tobytes() == left_to_right(list(vectors.values())).tobytes()
    assert (partial.weight_sum, partial.device_count) == (21.0, 6)

    # Three leaves of two devices (device i on leaf i % 3) under two
    # shard nodes (leaves 0 and 2; leaf 1), under the master.
    monkeypatch.setattr(master_aggregator, "_PLAIN_GROUP_SIZE", 2)
    initial = Parameters({"w": rng.normal(size=(4, 8))})
    leaves = [left_to_right([vectors[i], vectors[i + 3]]) for i in range(3)]

    def run_tree(reporting):
        loop = EventLoop()
        system = ActorSystem(loop, np.random.default_rng(0), mean_latency_s=0.0)
        store = CheckpointStore()
        store.initialize(initial, "pop", "t")
        round_config = RoundConfig(target_participants=6, overselection_factor=1.0)
        root = MasterAggregator(
            round_id=1,
            task=TaskConfig("t", "pop", round_config=round_config),
            coordinator=system.spawn(Sink(), "coordinator"),
            store=store,
            rng=np.random.default_rng(1),
            shard_slots=2,
        )
        system.spawn(root, "master")
        for device_id in vectors:
            _, leaf = root.admit_device(
                device_id, system.spawn(Sink(), f"device-{device_id}"), 1
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
    shard0 = node0.flush({0, 1, 2, 3, 4})
    assert shard0.delta_sum.tobytes() == left_to_right(
        [leaves[0], vectors[2]]
    ).tobytes()
    assert (shard0.weight_sum, shard0.device_count) == (8.0, 3)
    assert node1.flush({0, 1, 2, 3, 4}).delta_sum.tobytes() == leaves[1].tobytes()

    _, _, store = run_tree(set(vectors))
    committed = store.latest("pop")
    assert committed.round_number == 1
    total = left_to_right([left_to_right([leaves[0], leaves[2]]), leaves[1]])
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
    accept_all(agg, vectors)
    partial = agg.flush(accepted_ids=set(vectors))
    assert partial.device_count == 4
    # The decoded sum approximates sum of vectors and weights (quantized).
    expected_sum = np.sum(list(vectors.values()), axis=0)
    np.testing.assert_allclose(partial.delta_sum, expected_sum, atol=1e-3)
    expected_weight = sum(i + 5.0 for i in vectors)
    assert abs(partial.weight_sum - expected_weight) < 1e-3
