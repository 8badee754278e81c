"""Random subsampling with unbiased rescaling (Konečný et al. 2016b)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.bounds import check, interval
from update_codecs.codec import UpdateCodec


@dataclass
class SubsamplingCodec(UpdateCodec):
    """Keep a random fraction of coordinates, scaled by ``1/fraction``.

    ``E[decode(encode(x))] = x`` since each coordinate survives with
    probability ``fraction`` and is inflated accordingly.  The wire format
    is a seeded mask (seed + count) plus the surviving values.
    """

    fraction: float = interval("(0, 1]", default=0.25)

    __post_init__ = check

    def encode(self, vector: np.ndarray, rng: np.random.Generator):
        vector = np.asarray(vector, dtype=np.float64)
        n = vector.size
        seed = int(rng.integers(0, 2**63))
        mask_rng = np.random.Generator(np.random.Philox(key=seed))
        mask = mask_rng.random(n) < self.fraction
        values = vector[mask]
        nbytes = 16 + values.size * 8  # seed + surviving float64s
        return {"seed": seed, "n": n, "values": values}, nbytes

    def decode(self, payload: Any) -> np.ndarray:
        n = int(payload["n"])
        mask_rng = np.random.Generator(np.random.Philox(key=payload["seed"]))
        mask = mask_rng.random(n) < self.fraction
        out = np.zeros(n)
        out[mask] = payload["values"] / self.fraction
        return out
