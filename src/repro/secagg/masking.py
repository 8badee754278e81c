"""Quantization and double-masking of input vectors.

Secure Aggregation sums vectors in ``Z_{2^b}``; model deltas are floats.
:class:`VectorQuantizer` maps floats into the ring such that a sum of up
to ``max_summands`` quantized vectors cannot wrap, and decodes the summed
ring vector back to floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bounds import check, count, positive
from repro.secagg.field import centered_mod, ring_add, ring_sub
from repro.secagg.prg import prg_expand


@dataclass(frozen=True)
class VectorQuantizer:
    """Fixed-point codec into ``Z_{2^b}`` safe for ``max_summands`` sums.

    Values are clipped to ``[-clip_range, clip_range]`` and scaled so that
    the worst-case magnitude of the *sum* stays below ``2^{b-1}``.
    """

    modulus_bits: int = count(8, 64, default=32)
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
        # too, and b = 63/64 needs no oversized int64 shift).
        mask = np.uint64((1 << self.modulus_bits) - 1)
        return ints.astype(np.uint64) & mask

    def dequantize_sum(self, ring_sum: np.ndarray) -> np.ndarray:
        """Summed ring vector -> float vector (inverse of quantize+sum)."""
        return centered_mod(ring_sum, self.modulus_bits) / self.scale

    def max_quantization_error(self, num_summands: int) -> float:
        """Worst-case absolute error of a decoded ``num_summands``-sum."""
        return 0.5 * num_summands / self.scale


def apply_masks(
    quantized: np.ndarray,
    self_seed: int,
    pairwise_seeds: dict[int, int],
    my_id: int,
    modulus_bits: int,
) -> np.ndarray:
    """Compute the committed vector ``y_u`` (Round 2).

    ``y_u = x_u + PRG(b_u) + Σ_{v: u<v} PRG(s_uv) - Σ_{v: v<u} PRG(s_uv)``

    The sign convention (+ for higher-id peers, - for lower) makes the
    pairwise masks cancel exactly in the sum over any set of committed
    devices whose peers also committed.
    """
    n = quantized.shape[0]
    masked = ring_add(
        quantized, prg_expand(self_seed, n, modulus_bits), modulus_bits
    )
    for peer_id, seed in pairwise_seeds.items():
        if peer_id == my_id:
            raise ValueError("device cannot share a pairwise mask with itself")
        mask = prg_expand(seed, n, modulus_bits)
        if my_id < peer_id:
            masked = ring_add(masked, mask, modulus_bits)
        else:
            masked = ring_sub(masked, mask, modulus_bits)
    return masked
