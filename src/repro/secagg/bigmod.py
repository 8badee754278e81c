"""Batched modular exponentiation over the 255-bit DH prime ``2^255 - 19``.

Per device, the protocol's DH cost is ``pow(g, exponent, DH_PRIME)`` —
one CPython big-int exponentiation per public key, per pairwise
agreement, and per dropout-recovery re-derivation.  This module replaces
those per-element calls with *stacked* fixed-window exponentiation on
numpy limb arrays, the same deferred-carry limb technique
:mod:`repro.secagg.field` uses for GF(2^127 − 1):

* elements are held as nine 29-bit limbs in uint64 lanes, *transposed*
  ``(9, N)`` so every limb row is contiguous across the batch, as plain
  (not necessarily canonical) residues;
* one multiply (:func:`_mul_`) is a schoolbook limb convolution folded
  with the special form of the prime: ``2^261 ≡ 19 · 2^6 = 1216 (mod
  p)``, so the nine high limbs of the 18-limb product fold back onto the
  low nine with one multiply-add — about a dozen numpy calls per
  multiply, whatever the batch width;
* :class:`FixedBaseTable` needs no squarings for its *known* base —
  ``g^x`` is one table gather + one multiply per 13-bit window, with
  the per-window tables built once and cached (as uint32 limbs).

Results are reduced to the canonical residue once per batch, at the
``_from_limbs_bytes`` boundary, so outputs are bit-identical to CPython's
``pow(base, exponent, MODULUS)`` by construction — the batched DH layer
(:mod:`repro.secagg.dh`) relies on that for byte-equivalence with the
per-device reference protocol, and ``tests/secagg/test_bigmod.py``
asserts it on random and adversarial edge inputs.

Limb discipline: uint64 limb arrays never round-trip through Python ints
inside a kernel — ints enter and leave, as little-endian bytes, only
through the ``_to_*`` / ``_from_*`` boundary helpers, and no object-dtype
array exists anywhere else (machine-checked by repro-lint's
``inplace-op-discipline`` bigmod clause).
"""

from __future__ import annotations

import numpy as np

#: 2^255 - 19 — the curve25519 prime, used as a plain DH modulus.
MODULUS: int = (1 << 255) - 19

_LIMB_BITS = 29
_NUM_LIMBS = 9                        # 9 x 29 = 261 bits >= 255

_MASK64 = np.uint64((1 << _LIMB_BITS) - 1)
_SHIFT64 = np.uint64(_LIMB_BITS)
#: The top limb holds bits 232..254 of a canonical value (255 - 8 * 29).
_TOP_SHIFT64 = np.uint64(255 - _LIMB_BITS * (_NUM_LIMBS - 1))
_TOP_MASK64 = (np.uint64(1) << _TOP_SHIFT64) - np.uint64(1)
_NINETEEN64 = np.uint64(19)
#: 2^261 mod p = 19 * 2^6: the weight of a limb carried past limb 8.
_FOLD64 = np.uint64(19 << (_LIMB_BITS * _NUM_LIMBS - 255))

#: Window width of the fixed-base tables; a 288 KB position stays in cache.
_FIXED_WINDOW_BITS = 13


def _to_limbs(values: list[int]) -> np.ndarray:
    """Pack residues into a transposed ``(9, N)`` uint64 limb array."""
    blob = b"".join((v % MODULUS).to_bytes(32, "little") for v in values)
    words = np.frombuffer(blob, dtype="<u8").reshape(len(values), 4).T
    out = np.empty((_NUM_LIMBS, len(values)), dtype=np.uint64)
    for k in range(_NUM_LIMBS):
        wi, shift = divmod(k * _LIMB_BITS, 64)
        out[k] = words[wi] >> np.uint64(shift)
        if shift + _LIMB_BITS > 64 and wi + 1 < 4:
            out[k] |= words[wi + 1] << np.uint64(64 - shift)
    out &= _MASK64
    return out


def _from_limbs_bytes(limbs: np.ndarray) -> list[bytes]:
    """Canonical 32-byte little-endian encodings of a ``(9, N)`` limb array.

    Canonicalizes ``limbs`` in place (callers hand over a ladder's
    accumulator), so the packed bytes equal ``int.to_bytes(v % p, 32,
    "little")`` exactly; key derivation hashes them without materializing
    Python ints.
    """
    n = limbs.shape[1]
    carry = np.empty(n, dtype=np.uint64)
    _canonicalize_(limbs, carry)
    words = np.zeros((4, n), dtype=np.uint64)
    for k in range(_NUM_LIMBS):
        start = k * _LIMB_BITS
        wi, shift = divmod(start, 64)
        words[wi] |= limbs[k] << np.uint64(shift)
        # Canonical values are < 2^255, so the top limb never spills
        # past word 3 — guard like _to_digits does.
        if shift + _LIMB_BITS > 64 and wi + 1 < 4:
            words[wi + 1] |= limbs[k] >> np.uint64(64 - shift)
    blob = words.T.astype("<u8").tobytes()
    return [blob[32 * i: 32 * i + 32] for i in range(n)]


def _to_digits(
    exponents: list[int], window_bits: int, num_windows: int
) -> np.ndarray:
    """Little-endian fixed-width window digits, shape ``(W, N)`` int64.

    Exponents are serialized once (``to_bytes``) and reinterpreted as
    uint64 words, so per-window extraction is two shifts and a mask on
    machine integers instead of big-int arithmetic on an object array.
    """
    n = len(exponents)
    num_words = -(-(num_windows * window_bits) // 64)
    blob = b"".join(e.to_bytes(8 * num_words, "little") for e in exponents)
    words = np.frombuffer(blob, dtype="<u8").reshape(n, num_words)
    out = np.empty((num_windows, n), dtype=np.int64)
    mask = np.uint64((1 << window_bits) - 1)
    for w in range(num_windows):
        start = w * window_bits
        wi, shift = divmod(start, 64)
        digit = words[:, wi] >> np.uint64(shift)
        if shift + window_bits > 64 and wi + 1 < num_words:
            digit = digit | (words[:, wi + 1] << np.uint64(64 - shift))
        out[w] = (digit & mask).astype(np.int64)
    return out


class _Scratch:
    """Per-call work buffers for one batch width ``n``.

    ``plane`` is the ``(9, 18, N)`` partial-product plane, zeroed once:
    ``skew`` views it so that row ``i`` of ``a_i · b`` lands in columns
    ``i .. i+8`` — every multiply writes exactly those cells, so the rest
    stay zero and one ``add.reduce`` over axis 0 yields the 18 product
    columns.  Allocating the buffers once per batch call keeps the
    ladder itself allocation-free.
    """

    def __init__(self, n: int):
        self.plane = np.zeros((_NUM_LIMBS, 2 * _NUM_LIMBS, n), dtype=np.uint64)
        s_row, s_col, s_lane = self.plane.strides
        self.skew = np.lib.stride_tricks.as_strided(
            self.plane, (_NUM_LIMBS, _NUM_LIMBS, n), (s_row + s_col, s_col, s_lane)
        )
        self.cols = np.empty((2 * _NUM_LIMBS, n), dtype=np.uint64)
        self.carry = np.empty((2 * _NUM_LIMBS, n), dtype=np.uint64)


def _mul_(
    out: np.ndarray, a: np.ndarray, b: np.ndarray, scratch: _Scratch
) -> None:
    """``out <- a · b (mod p)`` on ``(9, N)`` limb arrays, not canonical.

    Limb bound: inputs with every limb ≤ 2^29.1 give an output with every
    limb ≤ 2^29.05, so outputs feed back in indefinitely.  A product
    column sums at most nine limb products, ≤ 9 · 2^58.2 < 2^61.4 <
    2^64; one parallel carry leaves limbs ≤ 2^32.6, the ×1216 fold of
    limbs 9..17 onto 0..8 ≤ 2^42.8, and the closing parallel carry — its
    top carry folded ×1216 into limb 0 — limbs ≤ 2^29 + 2^24.05 (limb 0)
    and ≤ 2^29 + 2^13.8 (the rest).  ``tests/secagg/test_bigmod.py``
    checks the bound after every step of long multiply chains.  ``out``
    may alias ``a`` and/or ``b`` — they are read only by the first call.
    """
    np.multiply(a[:, None], b[None], out=scratch.skew)
    cols, carry = scratch.cols, scratch.carry
    np.add.reduce(scratch.plane, axis=0, out=cols)
    np.right_shift(cols, _SHIFT64, out=carry)
    cols &= _MASK64
    cols[1:] += carry[:-1]
    # Column 16 is the product's top, so column 17 holds only a carry
    # and carry[17] is always zero.
    cols[_NUM_LIMBS:] *= _FOLD64
    np.add(cols[:_NUM_LIMBS], cols[_NUM_LIMBS:], out=out)
    low = carry[:_NUM_LIMBS]
    np.right_shift(out, _SHIFT64, out=low)
    out &= _MASK64
    out[1:] += low[:-1]
    low[-1] *= _FOLD64
    out[0] += low[-1]


def _carry_(limbs: np.ndarray, carry: np.ndarray) -> None:
    """Sequential carry in place: limbs 0..7 end below 2^29, the top limb
    absorbs the rest."""
    for k in range(_NUM_LIMBS - 1):
        np.right_shift(limbs[k], _SHIFT64, out=carry)
        limbs[k] &= _MASK64
        limbs[k + 1] += carry


def _canonicalize_(limbs: np.ndarray, carry: np.ndarray) -> None:
    """Reduce ``(9, N)`` limbs (each ≤ 2^29.05) to canonical residues.

    One carry pass leaves value < 2^261.1; folding bits ≥ 255 of the top
    limb (×19) leaves v < 2^255 + 2^11 < 2p.  Then ``v >= p`` iff ``v +
    19`` reaches bit 255, read off a carry chain into ``q`` ∈ {0, 1};
    adding ``19 · q``, carrying and clearing bit 255 subtracts ``q · p``.
    """
    _carry_(limbs, carry)
    np.right_shift(limbs[-1], _TOP_SHIFT64, out=carry)
    limbs[-1] &= _TOP_MASK64
    carry *= _NINETEEN64
    limbs[0] += carry
    np.add(limbs[0], _NINETEEN64, out=carry)
    for k in range(1, _NUM_LIMBS):
        carry >>= _SHIFT64
        carry += limbs[k]
    carry >>= _TOP_SHIFT64
    carry *= _NINETEEN64
    limbs[0] += carry
    _carry_(limbs, carry)
    limbs[-1] &= _TOP_MASK64


class FixedBaseTable:
    """Precomputed window tables for a *fixed* base — ``g^x`` sans squarings.

    Position ``i`` caches ``base^(j · 2^(w·i)) mod p`` for every ``w``-bit
    digit ``j`` (``w`` = 13 by default), one ``(2^w, 9)`` uint32 row per
    digit so an entry's limbs share a cache line: a batch exponentiation
    is one ``np.take`` gather (widened by the copy that transposes it into
    a ``(9, N)`` uint64 buffer) and one multiply per window — no per-call
    table build and no squaring ladder.  uint32 is exact: each entry is
    built in uint64 as a :func:`_mul_` output, whose limbs are ≤ 2^29.05.
    Positions are built lazily (a few milliseconds each) and cached for
    the life of the process;
    :mod:`repro.secagg.dh` keeps one instance for the group generator,
    shared by every pair agreement.
    """

    def __init__(self, base: int, window_bits: int = _FIXED_WINDOW_BITS):
        if not 1 <= window_bits <= 16:
            raise ValueError(f"window_bits must be in [1, 16], got {window_bits}")
        self.base = base % MODULUS
        self.window_bits = window_bits
        self._tables: list[np.ndarray] = []   # position i -> (2^w, 9) uint32

    def _ensure_positions(self, num_windows: int) -> None:
        w = self.window_bits
        half = w // 2
        while len(self._tables) < num_windows:
            step = pow(self.base, 1 << (w * len(self._tables)), MODULUS)
            # Digit j = hi · 2^half + lo: step^lo times (step^2^half)^hi,
            # one stacked multiply per hi.
            low = _to_limbs([pow(step, j, MODULUS) for j in range(1 << half)])
            high = _to_limbs(
                [pow(step, j << half, MODULUS) for j in range(1 << (w - half))]
            )
            table = np.empty((1 << w, _NUM_LIMBS), dtype=np.uint32)
            product = np.empty_like(low)
            scratch = _Scratch(1 << half)
            for j in range(1 << (w - half)):
                _mul_(product, low, high[:, j:j + 1], scratch)
                table[j << half:(j + 1) << half] = product.T
            self._tables.append(table)

    def _pow_limbs(self, exponents: list[int]) -> np.ndarray | None:
        """The shared ladder: ``(9, N)`` result limbs, not yet canonical.

        Returns None for an all-zero exponent batch (callers answer 1).
        """
        n = len(exponents)
        if n and min(exponents) < 0:
            raise ValueError("negative exponents are not supported")
        # Non-negative, so the largest exponent has the most bits.
        max_bits = max(exponents, default=0).bit_length()
        if max_bits == 0:
            return None
        num_windows = -(-max_bits // self.window_bits)
        self._ensure_positions(num_windows)
        digits = _to_digits(exponents, self.window_bits, num_windows)
        scratch = _Scratch(n)
        rows = np.take(self._tables[0], digits[0], axis=0)   # (N, 9) uint32
        acc = rows.T.astype(np.uint64, order="C")  # F order slows _mul_
        gathered = np.empty_like(acc)
        for w in range(1, num_windows):
            np.take(self._tables[w], digits[w], axis=0, out=rows)
            np.copyto(gathered, rows.T)
            _mul_(acc, acc, gathered, scratch)
        return acc

    def pow_batch(self, exponents: list[int]) -> list[int]:
        """``[pow(self.base, e, MODULUS) for e in exponents]``, stacked."""
        return [int.from_bytes(b, "little") for b in self.pow_batch_bytes(exponents)]

    def pow_batch_bytes(self, exponents: list[int]) -> list[bytes]:
        """Like :meth:`pow_batch`, but each result arrives as its canonical
        32-byte little-endian encoding — ``pow(base, e, p).to_bytes(32,
        "little")`` without the limb → Python-int → bytes round-trip.
        Key derivation (:mod:`repro.secagg.dh`) hashes these directly.
        """
        acc = self._pow_limbs(exponents)
        if acc is None:
            return [(1).to_bytes(32, "little")] * len(exponents)
        return _from_limbs_bytes(acc)
