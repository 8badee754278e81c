"""Quantization of input vectors into the masking ring.

Secure Aggregation sums vectors in ``Z_{2^b}``; model deltas are floats.
:class:`VectorQuantizer` maps floats into the ring such that a sum of up
to ``max_summands`` quantized vectors cannot wrap, and decodes the summed
ring vector back to floats.  The double masking itself is stacked
uint64 work in :mod:`repro.secagg.vectorized`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bounds import check, count, positive
from repro.secagg.field import centered_mod


@dataclass(frozen=True)
class VectorQuantizer:
    """Fixed-point codec into ``Z_{2^b}`` safe for ``max_summands`` sums.

    Values are clipped to ``[-clip_range, clip_range]`` and scaled so that
    the worst-case magnitude of the *sum* stays below ``2^{b-1}``.  The
    ring is at most ``2^63``: mask words are 63 bits (the PRG keeps the top
    63 bits of a Philox word), so bit 63 of a 64-bit ring would
    never be masked, and :func:`~repro.secagg.field.ring_mask` refuses 64.
    """

    modulus_bits: int = count(8, 63, default=32)
    clip_range: float = positive(default=8.0)
    max_summands: int = count(1, default=1000)

    def __post_init__(self) -> None:
        check(self)  # first: ``scale`` shifts by ``modulus_bits``
        if self.scale < 1.0:
            raise ValueError(
                "modulus too small for clip_range * max_summands; "
                "increase modulus_bits or reduce the range"
            )

    @property
    def scale(self) -> float:
        headroom = (1 << (self.modulus_bits - 1)) - 1
        return headroom / (self.clip_range * self.max_summands)

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Float vector -> ring vector (uint64 holding values mod 2^b)."""
        clipped = np.clip(np.asarray(values, dtype=np.float64),
                          -self.clip_range, self.clip_range)
        ints = np.rint(clipped * self.scale).astype(np.int64)
        # int64 -> uint64 wraps mod 2^64; masking then reduces mod 2^b
        # (2^b divides 2^64, so the composition is exact for negatives
        # too, and b = 63 needs no oversized int64 shift).
        mask = np.uint64((1 << self.modulus_bits) - 1)
        return ints.astype(np.uint64) & mask

    def dequantize_sum(self, ring_sum: np.ndarray) -> np.ndarray:
        """Summed ring vector -> float vector (inverse of quantize+sum)."""
        return centered_mod(ring_sum, self.modulus_bits) / self.scale

    def max_quantization_error(self, num_summands: int) -> float:
        """Worst-case absolute error of a decoded ``num_summands``-sum."""
        return 0.5 * num_summands / self.scale

