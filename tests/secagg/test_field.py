"""Field and ring arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.secagg import eval_polynomial, mod_inverse, ring_add, ring_sub
from repro.secagg.field import (
    SHAMIR_PRIME,
    centered_mod,
    coefficient_words,
    eval_polynomial_words,
)


@given(st.integers(min_value=1, max_value=SHAMIR_PRIME - 1))
@settings(max_examples=50, deadline=None)
def test_mod_inverse_property(a):
    assert (a * mod_inverse(a)) % SHAMIR_PRIME == 1


def test_mod_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        mod_inverse(0)


def test_eval_polynomial_horner():
    # f(x) = 3 + 2x + x^2 at x=5 -> 3 + 10 + 25 = 38
    assert eval_polynomial([3, 2, 1], 5) == 38


def test_ring_add_wraps():
    bits = 8
    a = np.array([250], dtype=np.uint64)
    b = np.array([10], dtype=np.uint64)
    assert ring_add(a, b, bits)[0] == 4  # 260 mod 256


def test_ring_sub_wraps():
    bits = 8
    a = np.array([5], dtype=np.uint64)
    b = np.array([10], dtype=np.uint64)
    assert ring_sub(a, b, bits)[0] == 251


@given(
    st.lists(st.integers(min_value=0, max_value=2**16 - 1), min_size=1, max_size=20),
    st.lists(st.integers(min_value=0, max_value=2**16 - 1), min_size=1, max_size=20),
)
@settings(max_examples=50, deadline=None)
def test_ring_add_sub_roundtrip(xs, ys):
    n = min(len(xs), len(ys))
    a = np.array(xs[:n], dtype=np.uint64)
    b = np.array(ys[:n], dtype=np.uint64)
    bits = 16
    np.testing.assert_array_equal(ring_sub(ring_add(a, b, bits), b, bits), a)


def test_centered_mod_maps_to_signed_range():
    bits = 8
    values = np.array([0, 1, 127, 128, 255], dtype=np.uint64)
    out = centered_mod(values, bits)
    np.testing.assert_array_equal(out, [0, 1, 127, -128, -1])


def test_centered_mod_full_width_moduli():
    """b = 63 and 64 decode correctly (no int64 shift overflow)."""
    vals = np.array([0, 1, (1 << 62) - 1, 1 << 62, (1 << 63) - 1], dtype=np.uint64)
    out = centered_mod(vals, 63)
    assert out[3] == -(1 << 62) and out[4] == -1
    vals64 = np.array([0, (1 << 63) - 1, 1 << 63, (1 << 64) - 1], dtype=np.uint64)
    out64 = centered_mod(vals64, 64)
    assert out64[2] == -(1 << 63) and out64[3] == -1
    with pytest.raises(ValueError, match=r"\[1, 64\]"):
        centered_mod(vals, 65)


@given(
    st.lists(
        st.integers(min_value=1, max_value=SHAMIR_PRIME - 1),
        min_size=1, max_size=30,
    )
)
@settings(max_examples=30, deadline=None)
def test_mod_inverse_batch_matches_scalar(values):
    from repro.secagg.field import mod_inverse_batch

    assert mod_inverse_batch(values) == [mod_inverse(v) for v in values]


def test_mod_inverse_batch_rejects_zero():
    from repro.secagg.field import mod_inverse_batch

    assert mod_inverse_batch([]) == []
    with pytest.raises(ZeroDivisionError):
        mod_inverse_batch([3, 0, 5])


def test_lagrange_coefficients_shared_basis():
    """Σ λ_i f(x_i) = f(0) for any polynomial over the shared x-set."""
    from repro.secagg.field import lagrange_coefficients_at_zero

    xs = [2, 5, 9, 11]
    lambdas = lagrange_coefficients_at_zero(xs)
    coeffs = [1234567, 42, 7, 99]  # f of degree 3 = len(xs) - 1
    acc = 0
    for x, lam in zip(xs, lambdas):
        acc = (acc + eval_polynomial(coeffs, x) * lam) % SHAMIR_PRIME
    assert acc == coeffs[0]
    with pytest.raises(ValueError, match="duplicate"):
        lagrange_coefficients_at_zero([1, 1, 2])
    with pytest.raises(ValueError, match="no share indices"):
        lagrange_coefficients_at_zero([])


def words_of(coeffs):
    """``(S, D, 2)`` coefficient words of ragged lists, zero-padded to the
    longest — the layout share creation hands the kernel."""
    degree = max(len(c) for c in coeffs)
    padded = [v for c in coeffs for v in c + [0] * (degree - len(c))]
    return coefficient_words(padded).reshape(len(coeffs), degree, 2)


@given(
    n_polys=st.integers(min_value=1, max_value=6),
    degree=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_eval_polynomial_batch_matches_scalar(n_polys, degree, data):
    """The stacked Horner kernel share creation runs, on ragged
    (zero-padded) coefficient lists, against per-point Horner."""
    coeff_st = st.integers(min_value=0, max_value=SHAMIR_PRIME - 1)
    coeffs = [
        data.draw(st.lists(coeff_st, min_size=1, max_size=degree + 1))
        for _ in range(n_polys)
    ]
    xs = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=2**32 - 1),
            min_size=1, max_size=8,
        )
    )
    out = eval_polynomial_words(words_of(coeffs), xs)
    assert out == [[eval_polynomial(c, x) for x in xs] for c in coeffs]


def test_eval_polynomial_batch_worst_case_coefficients():
    """All-maximal coefficients stress the deferred-carry limb path."""
    coeffs = [[SHAMIR_PRIME - 1] * 33, [SHAMIR_PRIME - 1] * 40]
    xs = [1, 2, (1 << 32) - 1]
    out = eval_polynomial_words(words_of(coeffs), xs)
    assert out == [[eval_polynomial(c, x) for x in xs] for c in coeffs]
