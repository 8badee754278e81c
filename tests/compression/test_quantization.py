"""Stochastic quantization: unbiasedness and error scaling."""

import numpy as np
import pytest

from update_codecs.quantization import QuantizationCodec


def test_roundtrip_error_bounded(rng):
    codec = QuantizationCodec(bits=8)
    x = rng.normal(size=500)
    decoded, nbytes = codec.roundtrip(x, rng)
    grid_step = (x.max() - x.min()) / codec.levels
    assert np.abs(decoded - x).max() <= grid_step + 1e-12
    assert nbytes < x.size * 8  # actually compressed


def test_unbiasedness(rng):
    """E[decode(encode(x))] = x: average many stochastic roundtrips."""
    codec = QuantizationCodec(bits=4)
    x = rng.normal(size=50)
    trials = np.stack([codec.roundtrip(x, rng)[0] for _ in range(3000)])
    bias = np.abs(trials.mean(axis=0) - x).max()
    grid_step = (x.max() - x.min()) / codec.levels
    # Standard error of the mean is ~grid/sqrt(12*3000); allow 6 sigma.
    assert bias < 6 * grid_step / np.sqrt(12 * 3000)


def test_more_bits_less_error(rng):
    x = rng.normal(size=1000)
    err = {}
    for bits in (2, 4, 8):
        decoded, _ = QuantizationCodec(bits=bits).roundtrip(
            x, np.random.default_rng(0)
        )
        err[bits] = np.abs(decoded - x).max()
    assert err[8] < err[4] < err[2]


def test_wire_size_scales_with_bits(rng):
    x = rng.normal(size=1000)
    sizes = {
        bits: QuantizationCodec(bits=bits).encode(x, rng)[1] for bits in (1, 8, 16)
    }
    assert sizes[1] < sizes[8] < sizes[16]
    assert sizes[8] == 16 + 1000


def test_constant_vector(rng):
    codec = QuantizationCodec(bits=8)
    x = np.full(10, 3.25)
    decoded, _ = codec.roundtrip(x, rng)
    np.testing.assert_allclose(decoded, x)


def test_bits_validation():
    with pytest.raises(ValueError):
        QuantizationCodec(bits=0)
    with pytest.raises(ValueError):
        QuantizationCodec(bits=17)
