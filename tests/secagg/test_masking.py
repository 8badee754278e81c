"""Quantization and double masking invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.secagg import apply_masks, prg_expand, ring_add, ring_sub
from repro.secagg.masking import VectorQuantizer


def test_quantizer_roundtrip_single_vector(rng):
    q = VectorQuantizer(modulus_bits=32, clip_range=4.0, max_summands=10)
    x = rng.uniform(-4, 4, size=200)
    decoded = q.dequantize_sum(q.quantize(x))
    assert np.abs(decoded - x).max() <= q.max_quantization_error(1)


@given(
    n_vecs=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=30, deadline=None)
def test_quantized_sums_decode_within_bound(n_vecs, seed):
    rng = np.random.default_rng(seed)
    q = VectorQuantizer(modulus_bits=32, clip_range=2.0, max_summands=8)
    vectors = [rng.uniform(-2, 2, size=50) for _ in range(n_vecs)]
    acc = q.quantize(vectors[0])
    for v in vectors[1:]:
        acc = ring_add(acc, q.quantize(v), 32)
    decoded = q.dequantize_sum(acc)
    assert np.abs(decoded - sum(vectors)).max() <= q.max_quantization_error(n_vecs)


def test_quantizer_clips_out_of_range(rng):
    q = VectorQuantizer(modulus_bits=32, clip_range=1.0, max_summands=2)
    decoded = q.dequantize_sum(q.quantize(np.array([100.0, -100.0])))
    np.testing.assert_allclose(decoded, [1.0, -1.0], atol=1e-6)


def test_quantizer_validation():
    with pytest.raises(ValueError):
        VectorQuantizer(clip_range=0.0)
    with pytest.raises(ValueError):
        VectorQuantizer(max_summands=0)
    with pytest.raises(ValueError, match="modulus too small"):
        VectorQuantizer(modulus_bits=8, clip_range=1000.0, max_summands=1000)
    # No plane can mask a 64-bit ring: mask words are 63 bits.
    with pytest.raises(ValueError, match="modulus_bits"):
        VectorQuantizer(modulus_bits=64)


@pytest.mark.parametrize("clip_range", [float("nan"), float("inf"), -float("inf")])
def test_quantizer_refuses_non_finite_clip_range(clip_range):
    # NaN passed `<= 0` and quantized every value to 0; inf was refused
    # as "modulus too small".  Both name the field now.
    with pytest.raises(ValueError, match="clip_range must be finite"):
        VectorQuantizer(clip_range=clip_range)


def test_pairwise_masks_cancel_in_sums(rng):
    """The core masking identity: Σ_u y_u == Σ_u x_u when everyone commits."""
    q = VectorQuantizer(modulus_bits=32, clip_range=2.0, max_summands=8)
    users = [0, 1, 2, 3]
    # Symmetric seeds: seed for (u, v) identical from both sides.
    seeds = {}
    for u in users:
        for v in users:
            if u < v:
                seeds[(u, v)] = int(rng.integers(1, 2**60))
    vectors = {u: rng.uniform(-2, 2, size=30) for u in users}
    masked_total = None
    self_mask_total = np.zeros(30, dtype=np.uint64)
    for u in users:
        pairwise = {
            v: seeds[(min(u, v), max(u, v))] for v in users if v != u
        }
        self_seed = 1000 + u
        y = apply_masks(q.quantize(vectors[u]), self_seed, pairwise, u, 32)
        masked_total = y if masked_total is None else ring_add(masked_total, y, 32)
        self_mask_total = ring_add(
            self_mask_total, prg_expand(self_seed, 30, 32), 32
        )
    # Remove self masks; pairwise masks must have cancelled by antisymmetry.
    unmasked = ring_sub(masked_total, self_mask_total, 32)
    decoded = q.dequantize_sum(unmasked)
    expected = sum(vectors.values())
    assert np.abs(decoded - expected).max() <= q.max_quantization_error(4)


def test_masked_vector_is_not_the_input(rng):
    """Privacy smoke check: a masked vector differs from its quantized input."""
    q = VectorQuantizer(modulus_bits=32, clip_range=2.0, max_summands=4)
    x = rng.uniform(-2, 2, size=100)
    quantized = q.quantize(x)
    y = apply_masks(quantized, self_seed=42, pairwise_seeds={1: 77}, my_id=0,
                    modulus_bits=32)
    assert not np.array_equal(y, quantized)


def test_self_pairing_rejected(rng):
    q = VectorQuantizer()
    with pytest.raises(ValueError, match="itself"):
        apply_masks(q.quantize(np.zeros(4)), 1, {3: 9}, my_id=3, modulus_bits=32)
