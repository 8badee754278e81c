"""Pseudo-random mask expansion.

Both endpoints of a pairwise mask (and the server after seed
reconstruction) must expand a 120-bit seed into an identical vector over
``Z_{2^b}``.  We key a counter-based Philox generator with the low 128
bits of the seed: deterministic, vectorized, and identical everywhere.
"""

from __future__ import annotations

import numpy as np

from repro.secagg.field import ring_mask

_KEY_MASK = (1 << 128) - 1


def prg_expand_batch(
    seeds: list[int],
    length: int,
    modulus_bits: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Expand many seeds into one ``(len(seeds), length)`` uint64 matrix.

    Row ``i`` is bit-identical to the reference protocol's one-seed
    expansion (``tests/reference/secagg.py``: a ``Generator`` over a
    Philox keyed with the seed, ``integers(0, 2^63)``, masked to ``b``
    bits): for the power-of-two bound ``2^63`` numpy's masked generation
    consumes exactly one Philox word per output and keeps its top 63
    bits, so each row is the raw counter stream of a re-keyed generator,
    shifted and masked.  Re-keying one bit generator per row skips the
    per-seed ``Generator`` construction; expansion order across rows does
    not matter because every row depends only on its own seed.
    """
    mask = ring_mask(modulus_bits)  # refuses a ring outside [1, 63]
    if length < 0:
        raise ValueError("length must be non-negative")
    k = len(seeds)
    if out is None:
        out = np.empty((k, length), dtype=np.uint64)
    elif out.shape != (k, length) or out.dtype != np.uint64:
        raise ValueError(
            f"out must be a uint64 array of shape {(k, length)}, "
            f"got {out.dtype} {out.shape}"
        )
    if k == 0 or length == 0:
        return out
    bitgen = np.random.Philox(key=0)
    # The setter copies plain-int lists faster than the getter's arrays and
    # nothing writes back, so the zero counter and spent buffer hold per row.
    state = bitgen.state
    state["buffer"] = [0] * 4
    inner = state["state"] = {"counter": [0] * 4, "key": None}
    for i, seed in enumerate(seeds):
        seed &= _KEY_MASK
        inner["key"] = [seed & 0xFFFFFFFFFFFFFFFF, seed >> 64]
        bitgen.state = state
        out[i] = bitgen.random_raw(length)
    out >>= np.uint64(1)
    out &= mask
    return out
