"""Hadamard rotation: exact invertibility and range flattening."""

import numpy as np
import pytest

from update_codecs.codec import CodecPipeline
from update_codecs.quantization import QuantizationCodec
from update_codecs.rotation import RotationCodec, hadamard_transform


def test_hadamard_requires_power_of_two():
    with pytest.raises(ValueError):
        hadamard_transform(np.zeros(6))


def test_hadamard_involution(rng):
    x = rng.normal(size=16)
    # H(Hx) = n * x for the unnormalized transform.
    twice = hadamard_transform(hadamard_transform(x))
    np.testing.assert_allclose(twice, 16 * x, atol=1e-9)


def test_rotation_roundtrip_exact(rng):
    codec = RotationCodec(seed=5)
    for n in (1, 7, 16, 100):
        x = rng.normal(size=n)
        decoded, _ = codec.roundtrip(x, rng)
        np.testing.assert_allclose(decoded, x, atol=1e-9)


def test_rotation_preserves_norm(rng):
    codec = RotationCodec(seed=1)
    x = rng.normal(size=64)
    payload, _ = codec.encode(x, rng)
    assert np.linalg.norm(payload["rotated"]) == pytest.approx(np.linalg.norm(x))


def test_rotation_flattens_spiky_vectors(rng):
    """The reason to rotate: a one-hot vector's range shrinks a lot."""
    x = np.zeros(256)
    x[3] = 100.0
    payload, _ = RotationCodec(seed=2).encode(x, rng)
    rotated = payload["rotated"]
    assert rotated.max() - rotated.min() < (x.max() - x.min()) / 4


def test_rotate_then_quantize_beats_quantize_alone(rng):
    """Konečný et al.'s headline: rotation reduces quantization error on
    badly conditioned vectors."""
    x = np.zeros(512)
    x[::37] = 50.0
    x[1::53] = -1.0
    plain = QuantizationCodec(bits=4)
    rotated = CodecPipeline([RotationCodec(seed=3), QuantizationCodec(bits=4)])
    err_plain = np.abs(plain.roundtrip(x, np.random.default_rng(0))[0] - x).mean()
    err_rotated = np.abs(
        rotated.roundtrip(x, np.random.default_rng(0))[0] - x
    ).mean()
    assert err_rotated < err_plain
