"""Randomized Hadamard rotation (structured random rotations,
Konečný et al. 2016b; Suresh et al. 2017).

Quantization error depends on the dynamic range of the coordinates;
rotating by ``H · diag(σ)`` (σ random signs) spreads energy evenly across
coordinates, shrinking ``max - min`` and making a subsequent low-bit
quantizer far more accurate.  The rotation is seeded, so only the seed
(a plan constant) parameterizes it — nothing extra travels per update.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from update_codecs.codec import UpdateCodec, VectorTransform


def _next_pow2(n: int) -> int:
    return 1 if n == 0 else 1 << (n - 1).bit_length()


def hadamard_transform(vec: np.ndarray) -> np.ndarray:
    """Fast Walsh–Hadamard transform (unnormalized).

    Input length must be a power of two.
    """
    v = np.asarray(vec, dtype=np.float64).copy()
    n = v.size
    if n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    h = 1
    while h < n:
        v = v.reshape(-1, 2 * h)
        left = v[:, :h].copy()
        right = v[:, h:].copy()
        v[:, :h] = left + right
        v[:, h:] = left - right
        v = v.reshape(-1)
        h *= 2
    return v


@dataclass
class RotationCodec(UpdateCodec, VectorTransform):
    """Seeded sign-flip + orthonormal Hadamard rotation; exactly invertible.

    Usable standalone (an exact codec, 8B/coordinate of the padded
    length) or as a transform stage in a :class:`CodecPipeline`.
    """

    seed: int = 0

    def _signs(self, padded_len: int) -> np.ndarray:
        rng = np.random.Generator(np.random.Philox(key=self.seed))
        return rng.choice((-1.0, 1.0), size=padded_len)

    # -- VectorTransform -------------------------------------------------------
    def transform(self, vector: np.ndarray) -> np.ndarray:
        vector = np.asarray(vector, dtype=np.float64)
        padded_len = _next_pow2(max(vector.size, 1))
        padded = np.zeros(padded_len)
        padded[: vector.size] = vector
        return hadamard_transform(padded * self._signs(padded_len)) / np.sqrt(
            padded_len
        )

    def inverse(self, transformed: np.ndarray, original_len: int) -> np.ndarray:
        transformed = np.asarray(transformed, dtype=np.float64)
        padded_len = transformed.size
        # H^2 = len * I; we applied 1/sqrt(len) forward, another completes it.
        unrotated = hadamard_transform(transformed) / np.sqrt(padded_len)
        return (unrotated * self._signs(padded_len))[:original_len]

    # -- UpdateCodec -------------------------------------------------------------
    def encode(self, vector: np.ndarray, rng: np.random.Generator):
        vector = np.asarray(vector, dtype=np.float64)
        rotated = self.transform(vector)
        return {"rotated": rotated, "orig_len": vector.size}, rotated.size * 8

    def decode(self, payload: Any) -> np.ndarray:
        return self.inverse(
            np.asarray(payload["rotated"]), int(payload["orig_len"])
        )
