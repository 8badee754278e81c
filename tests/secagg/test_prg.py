"""PRG expansion determinism — both mask endpoints must agree exactly."""

import numpy as np
import pytest

from reference.secagg import prg_expand


def test_same_seed_same_stream():
    a = prg_expand(123456789, 100, 32)
    b = prg_expand(123456789, 100, 32)
    np.testing.assert_array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(prg_expand(1, 100, 32), prg_expand(2, 100, 32))


def test_values_bounded_by_modulus():
    out = prg_expand(7, 1000, 16)
    assert out.max() < (1 << 16)
    assert out.dtype == np.uint64


def test_zero_length():
    assert prg_expand(5, 0, 32).size == 0


def test_negative_length_rejected():
    with pytest.raises(ValueError):
        prg_expand(5, -1, 32)


def test_large_seed_is_truncated_consistently():
    """Seeds above 128 bits must map to the same stream deterministically."""
    big = (1 << 200) + 17
    np.testing.assert_array_equal(
        prg_expand(big, 50, 32), prg_expand(big % (1 << 128), 50, 32)
    )


def test_batch_rows_match_scalar_expansion():
    from repro.secagg.prg import prg_expand_batch

    seeds = [0, 1, 123456789, (1 << 120) - 7, (1 << 200) + 17]
    for bits in (1, 8, 32, 48, 63):
        rows = prg_expand_batch(seeds, 257, bits)
        assert rows.shape == (len(seeds), 257) and rows.dtype == np.uint64
        for i, seed in enumerate(seeds):
            np.testing.assert_array_equal(rows[i], prg_expand(seed, 257, bits))


def test_batch_out_buffer_reused():
    from repro.secagg.prg import prg_expand_batch

    out = np.empty((2, 64), dtype=np.uint64)
    result = prg_expand_batch([5, 6], 64, 32, out=out)
    assert result is out
    np.testing.assert_array_equal(out[0], prg_expand(5, 64, 32))
    with pytest.raises(ValueError, match="shape"):
        prg_expand_batch([5, 6, 7], 64, 32, out=out)
    assert prg_expand_batch([], 64, 32).shape == (0, 64)
    with pytest.raises(ValueError):
        prg_expand_batch([1], -1, 32)


@pytest.mark.parametrize("bits", [-1, 0, 64, 65, 128])
def test_batch_refuses_a_ring_outside_1_to_63(bits):
    """One ring rule (``field.ring_mask``): 0 would return all-zero masks
    (the input unmasked), 64 would leave bit 63 unmasked, and 65 up would
    overflow — each is refused up front, empty batches included."""
    from repro.secagg.prg import prg_expand_batch

    for seeds in ([5, 6], []):
        with pytest.raises(ValueError, match="modulus_bits"):
            prg_expand_batch(seeds, 16, bits)
