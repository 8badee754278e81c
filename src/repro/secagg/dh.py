"""Diffie–Hellman key agreement (simulation-grade parameters).

Two independent keypairs per device, as in Bonawitz et al. (2017):

* ``c`` keys — encrypt the Shamir shares in transit between devices;
* ``s`` keys — pairwise-agreed PRG seeds for the masking vectors.

The group is Z_p^* with the 255-bit prime ``2^255 - 19`` and generator 2.
Exponents are 120 bits so they fit in the Shamir field — adequate for a
systems reproduction, NOT for production cryptography.

An agreed key is ``SHA-256(g^(a·b) mod p)`` truncated to 120 bits, so
agreed seeds stay inside the Shamir field and can be re-derived after
reconstructing a dropped device's secret.  The batch kernel rides the
vectorized 2^255−19 limb substrate in :mod:`repro.secagg.bigmod`, and
every key is byte-identical to the per-device ``pow`` of the reference
protocol (``tests/reference/secagg.py``).
``agree_pairs_batch`` exploits that the *simulator* knows both secrets
of a pair: ``agree(a, g^b) == SHA-256(g^(a·b))``, so pairwise seeds
become fixed-base exponentiations with no squaring ladder at all.
"""

from __future__ import annotations

import hashlib

from repro.secagg import bigmod
from repro.secagg.field import SECRET_BITS

#: 2^255 - 19 (the curve25519 prime, used here as a plain DH modulus).
DH_PRIME: int = (1 << 255) - 19
DH_GENERATOR: int = 2

#: Shared fixed-base table for the group generator: one cache serves
#: every pair agreement of the process.
_GENERATOR_TABLE = bigmod.FixedBaseTable(DH_GENERATOR)

assert bigmod.MODULUS == DH_PRIME


def _secret_of(draw: bytes) -> int:
    """The secret exponent of a 15-byte draw: its top bit forced so it
    keeps full bit length and is nonzero (the vectorized plane slices
    every ``s`` exponent's draw from one draw)."""
    return int.from_bytes(draw, "little") | 1 << (SECRET_BITS - 8)


def agree_pairs_batch(secret_pairs: list[tuple[int, int]]) -> list[int]:
    """Pairwise agreed keys from both secret exponents at once.

    ``agree(a, g^b) = SHA-256(g^(a·b))`` exactly, so each pair costs one
    fixed-base exponentiation of the ≤247-bit product — no per-pair base,
    no squarings, and the canonical byte encodings feed SHA-256 straight
    from the limb plane.  Bit-identical to ``agree`` by the group
    identity.  Each key is the element's SHA-256 digest truncated to
    ``SECRET_BITS``, little-endian.
    """
    elements = _GENERATOR_TABLE.pow_batch_bytes(
        [a * b for a, b in secret_pairs]
    )
    sha256, from_bytes, width = hashlib.sha256, int.from_bytes, SECRET_BITS // 8
    return [from_bytes(sha256(e).digest()[:width], "little") for e in elements]
