"""Diffie–Hellman key agreement (simulation-grade parameters).

Two independent keypairs per device, as in Bonawitz et al. (2017):

* ``c`` keys — encrypt the Shamir shares in transit between devices;
* ``s`` keys — pairwise-agreed PRG seeds for the masking vectors.

The group is Z_p^* with the 255-bit prime ``2^255 - 19`` and generator 2.
Exponents are 120 bits so they fit in the Shamir field — adequate for a
systems reproduction, NOT for production cryptography.

Batch variants (``generate_keypairs_batch``, ``agree_batch``,
``agree_pairs_batch``) ride the vectorized 2^255−19 limb substrate in
:mod:`repro.secagg.bigmod`.  They draw rng bytes in exactly the scalar
order and hash agreements with the same truncated SHA-256, so every
derived key and seed is byte-identical to the scalar API — the planes'
equivalence contract depends on it.  ``agree_pairs_batch`` additionally
exploits that the *simulator* knows both secrets of a pair:
``agree(a, g^b) == SHA-256(g^(a·b))``, so pairwise seeds become
fixed-base exponentiations with no squaring ladder at all.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.secagg import bigmod
from repro.secagg.field import SECRET_BITS

#: 2^255 - 19 (the curve25519 prime, used here as a plain DH modulus).
DH_PRIME: int = (1 << 255) - 19
DH_GENERATOR: int = 2

#: Shared fixed-base table for the group generator — one cache serves
#: keypair generation, pair agreements, and recovery re-derivations.
_GENERATOR_TABLE = bigmod.FixedBaseTable(DH_GENERATOR)

assert bigmod.MODULUS == DH_PRIME


@dataclass(frozen=True)
class DHKeyPair:
    secret: int
    public: int


def generate_keypair(rng: np.random.Generator) -> DHKeyPair:
    """Sample a 120-bit exponent and compute ``g^secret mod p``."""
    secret = int.from_bytes(rng.bytes(SECRET_BITS // 8), "little")
    secret |= 1 << (SECRET_BITS - 8)  # keep full bit length, nonzero
    public = pow(DH_GENERATOR, secret, DH_PRIME)
    return DHKeyPair(secret=secret, public=public)


def public_key_of(secret: int) -> int:
    """Recompute the public key of a (reconstructed) secret exponent."""
    return pow(DH_GENERATOR, secret, DH_PRIME)


def agree(my_secret: int, their_public: int) -> int:
    """Shared key = SHA-256(g^{ab} mod p) truncated to 120 bits.

    Truncation keeps agreed seeds inside the Shamir field so they can be
    re-derived after reconstructing a dropped device's secret key.
    """
    shared_group_element = pow(their_public, my_secret, DH_PRIME)
    return _derive_key(shared_group_element)


def _derive_key(shared_group_element: int) -> int:
    """Truncated-SHA-256 key derivation shared by scalar and batch paths."""
    return _derive_key_bytes(shared_group_element.to_bytes(32, "little"))


def _derive_key_bytes(element_bytes: bytes) -> int:
    digest = hashlib.sha256(element_bytes).digest()
    return int.from_bytes(digest[: SECRET_BITS // 8], "little")


def _draw_secret(rng: np.random.Generator) -> int:
    """One secret exponent — the exact byte draw ``generate_keypair`` makes."""
    return _secret_of(rng.bytes(SECRET_BITS // 8))


def _secret_of(draw: bytes) -> int:
    """The secret exponent ``generate_keypair`` makes of its 15-byte draw
    (the vectorized plane slices every ``s`` exponent's from one draw)."""
    return int.from_bytes(draw, "little") | 1 << (SECRET_BITS - 8)


def public_keys_batch(secrets: list[int]) -> list[int]:
    """``[public_key_of(s) for s in secrets]`` via the fixed-base table."""
    return _GENERATOR_TABLE.pow_batch(secrets)


def generate_keypairs_batch(
    count: int, rng: np.random.Generator
) -> list[DHKeyPair]:
    """``count`` keypairs, rng-trajectory-identical to the scalar loop.

    Secrets are drawn one ``rng.bytes(15)`` call at a time — the exact
    sequence ``generate_keypair`` would consume — then all public keys
    are computed in one stacked fixed-base pass.
    """
    secrets = [_draw_secret(rng) for _ in range(count)]
    publics = public_keys_batch(secrets)
    return [
        DHKeyPair(secret=s, public=p) for s, p in zip(secrets, publics)
    ]


def agree_batch(my_secrets: list[int], their_publics: list[int]) -> list[int]:
    """``[agree(s, P) for s, P in zip(...)]`` via the stacked ladder.

    The generic path: bases vary per element, so each agreement costs a
    full fixed-window exponentiation.  When both exponents of a pair are
    known (the simulator's usual situation), prefer
    :func:`agree_pairs_batch`.
    """
    elements = bigmod.powmod_batch(their_publics, my_secrets)
    return [_derive_key(e) for e in elements]


def agree_pairs_batch(secret_pairs: list[tuple[int, int]]) -> list[int]:
    """Pairwise agreed keys from both secret exponents at once.

    ``agree(a, g^b) = SHA-256(g^(a·b))`` exactly, so each pair costs one
    fixed-base exponentiation of the ≤247-bit product — no per-pair base,
    no squarings, and the canonical byte encodings feed SHA-256 straight
    from the limb plane.  Bit-identical to ``agree`` by the group
    identity.
    """
    elements = _GENERATOR_TABLE.pow_batch_bytes(
        [a * b for a, b in secret_pairs]
    )
    return [_derive_key_bytes(e) for e in elements]
