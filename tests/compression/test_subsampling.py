"""Subsampling codec: unbiasedness and wire size."""

import numpy as np
import pytest

from update_codecs.subsampling import SubsamplingCodec


def test_decode_restores_length(rng):
    codec = SubsamplingCodec(fraction=0.3)
    x = rng.normal(size=200)
    decoded, nbytes = codec.roundtrip(x, rng)
    assert decoded.shape == x.shape
    assert nbytes < 200 * 8


def test_surviving_coordinates_scaled(rng):
    codec = SubsamplingCodec(fraction=0.5)
    x = np.ones(1000)
    decoded, _ = codec.roundtrip(x, rng)
    kept = decoded[decoded != 0]
    np.testing.assert_allclose(kept, 2.0)  # 1 / 0.5


def test_unbiasedness(rng):
    codec = SubsamplingCodec(fraction=0.25)
    x = rng.normal(size=50)
    trials = np.stack([codec.roundtrip(x, rng)[0] for _ in range(4000)])
    bias = np.abs(trials.mean(axis=0) - x)
    # Var per coord ~ x^2 (1-f)/f / trials; allow 6 sigma.
    sigma = np.abs(x) * np.sqrt((1 - 0.25) / 0.25 / 4000)
    assert (bias < 6 * sigma + 1e-3).all()


def test_fraction_one_is_lossless(rng):
    codec = SubsamplingCodec(fraction=1.0)
    x = rng.normal(size=64)
    decoded, _ = codec.roundtrip(x, rng)
    np.testing.assert_allclose(decoded, x)


def test_wire_size_tracks_fraction(rng):
    x = rng.normal(size=10_000)
    small = SubsamplingCodec(fraction=0.1).encode(x, rng)[1]
    large = SubsamplingCodec(fraction=0.9).encode(x, rng)[1]
    assert small < large


def test_fraction_validation():
    with pytest.raises(ValueError):
        SubsamplingCodec(fraction=0.0)
    with pytest.raises(ValueError):
        SubsamplingCodec(fraction=1.5)
