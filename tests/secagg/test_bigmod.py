"""Bit-identity of the 2^255−19 limb substrate against ``pow(b, e, p)``.

Every claim the SecAgg plane makes rests on these: the limb
kernels must agree with CPython's big-int ``pow`` on *every* input, not
statistically, so edge exponents (the forced-high-bit minimum secret,
the maximal 120-bit secret, exponent one and zero) and edge bases
(0, 1, p-1, non-canonical >= p) are pinned alongside random draws, and
the multiply's stated limb bound is checked along long chains.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.secagg.bigmod import (
    MODULUS,
    FixedBaseTable,
    _from_limbs_bytes,
    _mul_,
    _Scratch,
)
from repro.secagg.field import SECRET_BITS

#: The multiply's documented limb bounds: inputs <= 2^29.1, outputs
#: <= 2^29.05.
LIMB_IN = math.floor(2**29.1)
LIMB_OUT = math.floor(2**29.05)
LANES = 4


def _limbs(value):
    return [(value >> (29 * k)) & ((1 << 29) - 1) for k in range(9)]


def _value(limbs):
    return sum(int(limb) << (29 * k) for k, limb in enumerate(limbs))


def _canonical(limbs):
    """The boundary's canonical residues of a ``(9, N)`` limb array, as
    ints (``_from_limbs_bytes`` consumes its argument)."""
    return [int.from_bytes(b, "little") for b in _from_limbs_bytes(limbs)]


#: p−1, 0, non-canonical values >= p (p itself, p + small, every limb
#: all-ones), and every limb at the post-multiply and input bounds.
ADVERSARIAL = [
    _limbs(MODULUS - 1), _limbs(0), _limbs(MODULUS), _limbs(MODULUS + 19),
    _limbs((1 << 261) - 1), [LIMB_OUT] * 9, [LIMB_IN] * 9,
]


@given(
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(
        st.tuples(
            st.booleans(),
            st.lists(st.integers(0, 2 * len(ADVERSARIAL) - 1),
                     min_size=LANES, max_size=LANES),
        ),
        min_size=64, max_size=80,
    ),
)
@settings(max_examples=30, deadline=None)
def test_multiply_chains_match_bigint_and_keep_the_limb_bound(seed, steps):
    """Each step squares the accumulator or multiplies it by an operand
    drawn from the adversarial set or from random limbs (canonical, or
    anywhere up to the post-multiply bound); every lane must equal the
    big-int product mod p and keep every limb <= 2^29.05."""
    rnd = random.Random(seed)
    pool = ADVERSARIAL + [
        _limbs(rnd.randrange(MODULUS)) if i % 2
        else [rnd.randint(0, LIMB_OUT) for _ in range(9)]
        for i in range(len(ADVERSARIAL))
    ]
    acc = np.array(
        [pool[rnd.randrange(len(pool))] for _ in range(LANES)], dtype=np.uint64
    ).T.copy()
    expected = [_value(acc[:, j]) % MODULUS for j in range(LANES)]
    scratch = _Scratch(LANES)
    for square, picks in steps:
        if square:
            _mul_(acc, acc, acc, scratch)
            expected = [v * v % MODULUS for v in expected]
        else:
            operand = np.array([pool[i] for i in picks], dtype=np.uint64).T
            _mul_(acc, acc, np.ascontiguousarray(operand), scratch)
            expected = [
                v * _value(pool[i]) % MODULUS
                for v, i in zip(expected, picks)
            ]
        assert int(acc.max()) <= LIMB_OUT
        assert [_value(acc[:, j]) % MODULUS for j in range(LANES)] == expected
    assert _canonical(acc.copy()) == expected


def test_canonical_boundary_reduces_adversarial_limbs():
    # Every entry but the last (limbs at the input bound, 2^29.1) is in
    # the boundary's domain: limbs <= 2^29.05.
    limbs = np.array(ADVERSARIAL[:-1], dtype=np.uint64).T.copy()
    assert _canonical(limbs) == [
        _value(col) % MODULUS for col in ADVERSARIAL[:-1]
    ]


#: Edge exponents the DH layer can actually produce: the smallest secret
#: the forced-high-bit draw permits, the largest 120-bit value, and the
#: degenerate one/zero cases.
EDGE_EXPONENTS = [0, 1, 1 << (SECRET_BITS - 8), (1 << SECRET_BITS) - 1]


def test_fixed_base_table_matches_pow():
    rnd = random.Random(7)
    table = FixedBaseTable(2)
    # Products of two secrets reach 240-247 bits — the widest exponents
    # the pairwise-agreement path feeds the table.
    exponents = (
        [rnd.randrange(1 << SECRET_BITS) for _ in range(20)]
        + [rnd.randrange(1 << 247) for _ in range(20)]
        + EDGE_EXPONENTS
        + [(1 << 247) - 1, 1 << 240]
    )
    assert table.pow_batch(exponents) == [
        pow(2, e, MODULUS) for e in exponents
    ]


def test_fixed_base_table_entries_are_exact_uint32_powers():
    """A table entry is ``base^(j · 2^(w·i))``, stored as uint32 limbs
    (exact because every limb is a multiply output, <= 2^29.05); the
    default tables a 247-bit exponent needs fit in 5.5 MiB."""
    table = FixedBaseTable(2)
    assert table.pow_batch([(1 << 247) - 1]) == [pow(2, (1 << 247) - 1, MODULUS)]
    w, tables = table.window_bits, table._tables
    assert len(tables) == -(-247 // w)
    assert all(t.dtype == np.uint32 and int(t.max()) <= LIMB_OUT for t in tables)
    assert sum(t.nbytes for t in tables) <= 5.5 * 2**20   # 20.25 MiB at w14 uint64
    for i in (0, len(tables) - 1):
        step, expected = pow(2, 1 << (w * i), MODULUS), [1]
        for _ in range(1, 1 << w):   # step^j as a running big-int product
            expected.append(expected[-1] * step % MODULUS)
        assert _canonical(tables[i].T.astype(np.uint64, order="C")) == expected


@pytest.mark.parametrize("window_bits", [1, 5, 13])
def test_fixed_base_table_odd_and_small_windows(window_bits):
    # An odd width splits its digit into unequal low and high halves
    # (13 bits: 6 low, 7 high).
    rnd = random.Random(window_bits)
    exponents = EDGE_EXPONENTS + [rnd.randrange(1 << 247) for _ in range(4)]
    assert FixedBaseTable(2, window_bits=window_bits).pow_batch(exponents) == [
        pow(2, e, MODULUS) for e in exponents
    ]


def test_fixed_base_table_edge_bases():
    # Non-canonical bases (>= p) must reduce first, exactly as pow does.
    exponents = [0, 1, 3, (1 << SECRET_BITS) - 1]
    for base in (0, 1, MODULUS - 1, MODULUS, MODULUS + 7):
        assert FixedBaseTable(base).pow_batch(exponents) == [
            pow(base, e, MODULUS) for e in exponents
        ]


def test_fixed_base_table_grows_lazily():
    table = FixedBaseTable(3)
    small = [5, (1 << SECRET_BITS) - 1]
    assert table.pow_batch(small) == [pow(3, e, MODULUS) for e in small]
    # A wider exponent arriving later must extend the table, not wrap.
    wide = [(1 << 247) - 1]
    assert table.pow_batch(wide) == [pow(3, e, MODULUS) for e in wide]


def test_pow_batch_bytes_is_canonical_little_endian():
    rnd = random.Random(31)
    table = FixedBaseTable(2)
    exponents = [rnd.randrange(1 << 247) for _ in range(32)] + EDGE_EXPONENTS
    assert table.pow_batch_bytes(exponents) == [
        pow(2, e, MODULUS).to_bytes(32, "little") for e in exponents
    ]


def test_fixed_base_table_empty_and_validation():
    table = FixedBaseTable(2)
    assert table.pow_batch([]) == []
    assert table.pow_batch_bytes([]) == []
    with pytest.raises(ValueError):
        table.pow_batch([-1])
