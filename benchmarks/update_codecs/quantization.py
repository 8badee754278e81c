"""Stochastic uniform quantization (Konečný et al. 2016b)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.bounds import check, count
from update_codecs.codec import UpdateCodec


@dataclass
class QuantizationCodec(UpdateCodec):
    """Unbiased b-bit quantization onto a per-vector uniform grid.

    Each coordinate is rounded randomly to one of the two nearest grid
    points with probabilities making the estimate unbiased:
    ``E[decode(encode(x))] = x``.
    """

    bits: int = count(1, 16, default=8)

    __post_init__ = check

    @property
    def levels(self) -> int:
        return (1 << self.bits) - 1

    def encode(self, vector: np.ndarray, rng: np.random.Generator):
        vector = np.asarray(vector, dtype=np.float64)
        lo = float(vector.min()) if vector.size else 0.0
        hi = float(vector.max()) if vector.size else 0.0
        span = hi - lo
        if span <= 0:
            codes = np.zeros(vector.size, dtype=np.uint16)
        else:
            scaled = (vector - lo) / span * self.levels
            floor = np.floor(scaled)
            frac = scaled - floor
            codes = (floor + (rng.random(vector.size) < frac)).astype(np.uint16)
        nbytes = 16 + int(np.ceil(vector.size * self.bits / 8))
        return {"codes": codes, "lo": lo, "hi": hi}, nbytes

    def decode(self, payload: Any) -> np.ndarray:
        codes = payload["codes"].astype(np.float64)
        lo, hi = payload["lo"], payload["hi"]
        span = hi - lo
        if span <= 0:
            return np.full(codes.shape, lo)
        return lo + codes / self.levels * span
