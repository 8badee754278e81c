"""Finite-field and modular-ring arithmetic for Secure Aggregation.

Two algebraic structures are used:

* **Shamir field** — secrets (DH exponents and PRG seeds, both < 2^120)
  are shared over GF(p) with the Mersenne prime ``p = 2^127 - 1``.
* **Masking ring** — masked input vectors live in ``Z_{2^b}`` per
  coordinate (default b=32), implemented vectorized on ``uint64`` with a
  bitmask (:func:`ring_mask`) since the modulus is a power of two.

The per-element inversion, Horner evaluation and ring add/subtract the
batched kernels are bit-identical to live in the reference protocol,
``tests/reference/secagg.py``.
"""

from __future__ import annotations

import math

import numpy as np

#: Mersenne prime 2^127 - 1: comfortably larger than the 120-bit secrets.
SHAMIR_PRIME: int = (1 << 127) - 1

#: Maximum bit length of secrets shared over the Shamir field.
SECRET_BITS: int = 120


def mod_inverse_batch(values: list[int], p: int = SHAMIR_PRIME) -> list[int]:
    """Inverses of every value in GF(p) with a single modular exponentiation.

    Montgomery's trick: invert the running product once, then unfold with
    multiplications.  Each result is the unique inverse in GF(p), so it is
    bit-identical to one Fermat inversion per value.
    """
    if not values:
        return []
    prefix: list[int] = []
    acc = 1
    for v in values:
        v %= p
        if v == 0:
            raise ZeroDivisionError("no inverse of 0 in GF(p)")
        prefix.append(acc)
        acc = (acc * v) % p
    inv_acc = pow(acc, p - 2, p)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = (inv_acc * prefix[i]) % p
        inv_acc = (inv_acc * values[i]) % p
    return out


def lagrange_coefficients_at_zero(
    xs: list[int], p: int = SHAMIR_PRIME
) -> list[int]:
    """Coefficients ``λ_i`` with ``f(0) = Σ λ_i f(x_i)`` in GF(p).

    When many secrets are reconstructed from shares at the *same* x-set
    (one protocol instance reconstructs every seed from the same first-t
    responders), the basis is computed once here — O(t²) multiplications
    and one batched inversion — and each secret becomes an O(t) dot
    product.
    """
    if not xs:
        raise ValueError("no share indices provided")
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate share indices")
    # num_i = Π_{j≠i} (-x_j) and den_i = Π_{j≠i} (x_i - x_j) are products
    # of small integers, each reduced once; the dens invert in one batch.
    nums, dens = [], []
    for xi in xs:
        others = [x for x in xs if x != xi]
        nums.append(math.prod(others) * (-1) ** len(others) % p)
        dens.append(math.prod([xi - x for x in others]) % p)
    inv_dens = mod_inverse_batch(dens, p)
    return [(num * inv) % p for num, inv in zip(nums, inv_dens)]


#: Vectorized GF(2^127 - 1): five 26-bit limbs (130 bits) per element in
#: uint64 lanes, transposed ``(5, ...)`` so every limb op is contiguous.
_LIMB_BITS = 26
_MASK64 = np.uint64((1 << _LIMB_BITS) - 1)
_SHIFT64 = np.uint64(_LIMB_BITS)
_TOP64 = np.uint64(127 - 4 * _LIMB_BITS)    # top limb's bits below 2^127


def coefficient_words(values: list[int]) -> np.ndarray:
    """``(len(values), 2)`` little-endian uint64 words of values in
    ``[0, 2^128)`` — the layout :func:`eval_polynomial_words` reads."""
    blob = b"".join(v.to_bytes(16, "little") for v in values)
    return np.frombuffer(blob, dtype="<u8").reshape(len(values), 2)


def _carry_(acc: np.ndarray, carry: np.ndarray) -> None:
    """Sequential carry: limbs 0..3 end below 2^26, the top absorbs the rest."""
    for k in range(4):
        np.right_shift(acc[k], _SHIFT64, out=carry)
        acc[k] &= _MASK64
        acc[k + 1] += carry


def eval_polynomial_words(
    words: np.ndarray, xs: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate many polynomials at many points in one stacked pass.

    ``words`` is ``(S, D, 2)``: coefficient ``d`` of polynomial ``i`` as
    two little-endian uint64 words, any value below 2^128 (reducing mod p
    first would not change the result, so words >= p enter as they are;
    the top limb takes bits 104..127).  Returns the ``(S, n)`` low and
    high uint64 halves of polynomial ``i`` at ``xs[j]``; their
    :func:`field_values` are per-point Horner's values in GF(p), so a
    caller converts only the values it reads.  Horner runs on one ``(5,
    S, n)`` accumulator: two uint64 array ops per degree, plus a parallel
    carry — the top limb's carry folded ×8 into limb 0, as 2^130 ≡ 2^3 —
    whenever the tracked bound ``bits`` would pass 2^63 on the next step.
    """
    if any(x < 0 or x >= 1 << 32 for x in xs):
        raise ValueError("evaluation points must be in [0, 2^32)")
    num_polys, degree = words.shape[:2]
    if not num_polys or not xs:
        return (np.zeros((num_polys, len(xs)), dtype=np.uint64),) * 2
    lo, hi = words[..., 0].T, words[..., 1].T
    coeffs = np.stack([                          # (5, D, S)
        lo & _MASK64, (lo >> _SHIFT64) & _MASK64,
        ((lo >> np.uint64(52)) | (hi << np.uint64(12))) & _MASK64,
        (hi >> np.uint64(14)) & _MASK64, hi >> np.uint64(40),
    ])
    x_row = np.asarray(xs, dtype=np.uint64)
    x_bits = max(xs).bit_length()
    acc = np.empty((5, num_polys, len(xs)), dtype=np.uint64)
    acc[...] = coeffs[:, degree - 1, :, None]
    carry = np.empty_like(acc)
    bits = _LIMB_BITS                            # every limb < 2^bits
    for k in range(degree - 2, -1, -1):
        while bits + x_bits + 1 > 63:    # limbs < 2^b end < 2^26 + 2^(b-23)
            np.right_shift(acc, _SHIFT64, out=carry)
            acc &= _MASK64
            acc[1:] += carry[:-1]
            acc[0] += carry[-1] << np.uint64(3)
            bits = max(bits - 23, _LIMB_BITS) + 1
        acc *= x_row
        acc += coeffs[:, k, :, None]
        bits = max(bits + x_bits, _LIMB_BITS) + 1
    # Exact limbs: a carry with bits >= 127 folded back (2^127 ≡ 1) leaves
    # limb 0 < 2^41, a second carry every limb < 2^26 but the top < 2^24.
    c = carry[0]
    _carry_(acc, c)
    np.right_shift(acc[4], _TOP64, out=c)
    acc[4] &= (np.uint64(1) << _TOP64) - np.uint64(1)
    acc[0] += c
    _carry_(acc, c)
    lo = acc[0] | (acc[1] << _SHIFT64) | (acc[2] << np.uint64(52))
    hi = (acc[2] >> np.uint64(12)) | (acc[3] << np.uint64(14)) | (
        acc[4] << np.uint64(40))
    return lo, hi


def field_values(lo: np.ndarray, hi: np.ndarray) -> list[list[int]]:
    """GF(p) values of :func:`eval_polynomial_words`' halves, row by row:
    each pair holds a value below 2^128 congruent to the share."""
    return [
        [(low | high << 64) % SHAMIR_PRIME for low, high in zip(lrow, hrow)]
        for lrow, hrow in zip(lo.tolist(), hi.tolist())
    ]


def ring_mask(modulus_bits: int) -> np.uint64:
    """Bitmask implementing reduction mod ``2^modulus_bits`` on uint64."""
    if not 1 <= modulus_bits <= 63:
        raise ValueError(f"modulus_bits must be in [1, 63], got {modulus_bits}")
    return np.uint64((1 << modulus_bits) - 1)


def centered_mod(values: np.ndarray, modulus_bits: int) -> np.ndarray:
    """Map ring elements to signed representatives in ``[-2^{b-1}, 2^{b-1})``.

    Used to decode a summed, masked vector back to signed integers before
    dequantization.  Supports every ``b <= 64``: the
    subtraction runs in uint64 (wrapping mod 2^64) and the final int64
    cast reinterprets wrapped values as their negative representatives,
    so no int64 shift ever exceeds 63 bits.
    """
    if not 1 <= modulus_bits <= 64:
        raise ValueError(
            f"modulus_bits must be in [1, 64], got {modulus_bits}"
        )
    vals = values.astype(np.uint64)
    half = np.uint64(1) << np.uint64(modulus_bits - 1)
    # 2^b as a uint64 (wraps to 0 when b == 64, where the int64 cast
    # alone performs the centering).
    delta = np.uint64((1 << modulus_bits) & ((1 << 64) - 1))
    return np.where(vals >= half, vals - delta, vals).astype(np.int64)
