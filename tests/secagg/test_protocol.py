"""The four-round protocol: correctness, dropout matrix, threshold failures."""

import numpy as np
import pytest

from reference.secagg import SecureAggregationClient
from repro.secagg.masking import VectorQuantizer
from repro.secagg.protocol import (
    DropoutSchedule,
    SecAggError,
    run_secure_aggregation,
)


def quantizer(n=16):
    return VectorQuantizer(modulus_bits=32, clip_range=4.0, max_summands=n)


def make_inputs(rng, n=10, dim=40):
    return {uid: rng.uniform(-3, 3, size=dim) for uid in range(n)}


def test_exact_sum_without_dropouts(rng):
    inputs = make_inputs(rng)
    total, metrics = run_secure_aggregation(
        inputs, threshold=7, quantizer=quantizer(), rng=rng
    )
    expected = sum(inputs.values())
    assert np.abs(total - expected).max() <= quantizer().max_quantization_error(10)
    assert metrics.succeeded
    assert metrics.committed == 10
    assert metrics.key_agreements == 0  # nobody dropped -> no reconstruction


def test_dropout_after_advertise_excluded(rng):
    inputs = make_inputs(rng)
    drops = DropoutSchedule(after_advertise=frozenset({0, 1}))
    total, metrics = run_secure_aggregation(
        inputs, threshold=6, quantizer=quantizer(), rng=rng, dropouts=drops
    )
    expected = sum(v for u, v in inputs.items() if u not in {0, 1})
    assert np.abs(total - expected).max() <= quantizer().max_quantization_error(8)


def test_dropout_after_share_recovers_pairwise_masks(rng):
    """The hard case: devices in U2 \\ U3 leave dangling pairwise masks."""
    inputs = make_inputs(rng)
    drops = DropoutSchedule(after_share=frozenset({3, 4}))
    total, metrics = run_secure_aggregation(
        inputs, threshold=6, quantizer=quantizer(), rng=rng, dropouts=drops
    )
    expected = sum(v for u, v in inputs.items() if u not in {3, 4})
    assert np.abs(total - expected).max() <= quantizer().max_quantization_error(8)
    # Quadratic recovery work: 2 dropped x 8 survivors key agreements.
    assert metrics.key_agreements == 16
    assert metrics.dropped_before_commit == 2


def test_dropout_after_mask_included_in_sum(rng):
    """Sec. 6: 'All devices who complete this [Commit] round will have
    their model update included' even if they miss Finalization."""
    inputs = make_inputs(rng)
    drops = DropoutSchedule(after_mask=frozenset({5}))
    total, metrics = run_secure_aggregation(
        inputs, threshold=6, quantizer=quantizer(), rng=rng, dropouts=drops
    )
    expected = sum(inputs.values())  # everyone committed
    assert np.abs(total - expected).max() <= quantizer().max_quantization_error(10)
    assert metrics.dropped_after_commit == 1


def test_combined_dropouts_at_every_stage(rng):
    inputs = make_inputs(rng, n=14)
    drops = DropoutSchedule(
        after_advertise=frozenset({0}),
        after_share=frozenset({1, 2}),
        after_mask=frozenset({3}),
    )
    total, _ = run_secure_aggregation(
        inputs, threshold=8, quantizer=quantizer(), rng=rng, dropouts=drops
    )
    committed = set(range(14)) - {0, 1, 2}
    expected = sum(inputs[u] for u in committed)
    assert np.abs(total - expected).max() <= quantizer().max_quantization_error(
        len(committed)
    )


def test_below_threshold_at_advertise_fails(rng):
    inputs = make_inputs(rng, n=5)
    with pytest.raises(SecAggError, match="advertised"):
        run_secure_aggregation(inputs, threshold=6, quantizer=quantizer(), rng=rng)


def test_below_threshold_at_share_fails(rng):
    inputs = make_inputs(rng, n=8)
    drops = DropoutSchedule(after_advertise=frozenset({0, 1, 2}))
    with pytest.raises(SecAggError, match="shared keys"):
        run_secure_aggregation(
            inputs, threshold=6, quantizer=quantizer(), rng=rng, dropouts=drops
        )


def test_below_threshold_at_commit_fails(rng):
    inputs = make_inputs(rng, n=8)
    drops = DropoutSchedule(after_share=frozenset({0, 1, 2}))
    with pytest.raises(SecAggError, match="committed"):
        run_secure_aggregation(
            inputs, threshold=6, quantizer=quantizer(), rng=rng, dropouts=drops
        )


def test_below_threshold_at_finalize_fails(rng):
    inputs = make_inputs(rng, n=8)
    drops = DropoutSchedule(after_mask=frozenset({0, 1, 2}))
    with pytest.raises(SecAggError, match="unmasking"):
        run_secure_aggregation(
            inputs, threshold=6, quantizer=quantizer(), rng=rng, dropouts=drops
        )


def test_client_refuses_to_reveal_both_shares(rng):
    client = SecureAggregationClient(0, np.zeros(4), quantizer(), 2, rng)
    with pytest.raises(SecAggError, match="both"):
        client.unmask_shares(survivors=[1, 2], dropped=[2, 3])


def test_mismatched_input_shapes_rejected(rng):
    inputs = {0: np.zeros(4), 1: np.zeros(5)}
    with pytest.raises(ValueError, match="shape"):
        run_secure_aggregation(inputs, threshold=2, quantizer=quantizer(), rng=rng)


def test_masked_inputs_hide_individual_vectors(rng):
    """Honest-but-curious server: committed vectors are uniformly masked."""
    q = quantizer()
    inputs = make_inputs(rng, n=6, dim=30)
    clients = {
        uid: SecureAggregationClient(uid, vec, q, 4, rng)
        for uid, vec in inputs.items()
    }
    roster = {uid: c.advertise_keys() for uid, c in clients.items()}
    cts = {uid: c.share_keys(roster) for uid, c in clients.items()}
    inbox = {uid: [] for uid in clients}
    for sender_cts in cts.values():
        for ct in sender_cts:
            inbox[ct.recipient_id].append(ct)
    u2 = sorted(clients)
    for uid, client in clients.items():
        masked = client.masked_input(inbox[uid], u2)
        quantized = q.quantize(inputs[uid])
        # The masked vector must differ from the raw quantized input in
        # essentially every coordinate.
        assert np.mean(masked == quantized) < 0.1
