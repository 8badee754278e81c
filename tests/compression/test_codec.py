"""Codec composition."""

import numpy as np
import pytest

from update_codecs.codec import CodecPipeline, IdentityCodec
from update_codecs.quantization import QuantizationCodec
from update_codecs.rotation import RotationCodec


def test_identity_codec(rng):
    x = rng.normal(size=32)
    decoded, nbytes = IdentityCodec().roundtrip(x, rng)
    np.testing.assert_array_equal(decoded, x)
    assert nbytes == 32 * 8


def test_pipeline_wire_size_is_last_stage(rng):
    x = rng.normal(size=128)
    pipeline = CodecPipeline([RotationCodec(seed=1), QuantizationCodec(bits=4)])
    _, nbytes = pipeline.encode(x, rng)
    assert nbytes == 16 + 64  # quantizer payload for the padded 128 coords


def test_pipeline_restores_original_length_and_space(rng):
    x = rng.normal(size=50)
    pipeline = CodecPipeline([RotationCodec(seed=1), QuantizationCodec(bits=12)])
    decoded, _ = pipeline.roundtrip(x, np.random.default_rng(7))
    assert decoded.shape == (50,)
    # 12-bit quantization in rotated space: reconstruction is close to x.
    assert np.abs(decoded - x).mean() < 0.05


def test_empty_pipeline_rejected():
    with pytest.raises(ValueError):
        CodecPipeline([])


def test_pipeline_type_checks():
    with pytest.raises(TypeError, match="VectorTransform"):
        CodecPipeline([QuantizationCodec(bits=8), QuantizationCodec(bits=8)])
