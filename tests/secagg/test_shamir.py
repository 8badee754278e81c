"""Shamir sharing: reconstruction from any t-subset, and only from those."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.secagg.field import SHAMIR_PRIME
from reference.secagg import ShamirShare, reconstruct_secret, share_secret


@given(
    secret=st.integers(min_value=0, max_value=2**120 - 1),
    n=st.integers(min_value=3, max_value=12),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_any_threshold_subset_reconstructs(secret, n, data):
    threshold = data.draw(st.integers(min_value=2, max_value=n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    shares = share_secret(secret, n, threshold, rng)
    subset_idx = data.draw(
        st.lists(
            st.integers(0, n - 1), min_size=threshold, max_size=threshold, unique=True
        )
    )
    subset = [shares[i] for i in subset_idx]
    assert reconstruct_secret(subset) == secret


def test_fewer_than_threshold_reveals_nothing(rng):
    secret = 123456789
    shares = share_secret(secret, 6, 4, rng)
    # Reconstruction from t-1 shares is just interpolation of a random
    # degree-3 polynomial through 3 points: overwhelmingly wrong.
    wrong = reconstruct_secret(shares[:3])
    assert wrong != secret


def test_share_index_zero_forbidden():
    with pytest.raises(ValueError, match="leak"):
        ShamirShare(x=0, y=5)


def test_duplicate_indices_rejected(rng):
    shares = share_secret(42, 5, 3, rng)
    with pytest.raises(ValueError, match="duplicate"):
        reconstruct_secret([shares[0], shares[0], shares[1]])


def test_validation_errors(rng):
    with pytest.raises(ValueError):
        share_secret(-1, 5, 3, rng)
    with pytest.raises(ValueError):
        share_secret(1, 2, 3, rng)  # fewer shares than threshold
    with pytest.raises(ValueError):
        share_secret(1, 5, 0, rng)
    with pytest.raises(ValueError):
        reconstruct_secret([])


def test_threshold_one_is_constant_polynomial(rng):
    shares = share_secret(99, 4, 1, rng)
    for share in shares:
        assert reconstruct_secret([share]) == 99


def test_share_secrets_batch_matches_scalar_and_rng_trajectory():
    """Batch sharing draws the exact coefficients the scalar loop would,
    in the same order, and produces bit-identical share values."""
    from repro.secagg.shamir import share_secrets_batch

    rng = np.random.default_rng(2019)
    rng2 = np.random.default_rng(2019)
    secrets = [0, 1, 42, 2**120 - 1, 2**119 + 7]
    n, t = 9, 4
    ys = share_secrets_batch(secrets, n, t, rng)
    scalar = [share_secret(s, n, t, rng2) for s in secrets]
    for i, shares in enumerate(scalar):
        assert ys[i] == [sh.y for sh in shares]
        assert [sh.x for sh in shares] == list(range(1, n + 1))
    # Identical rng stream position afterwards.
    assert rng.bytes(16) == rng2.bytes(16)


#: Secrets at the edges of what the protocol shares (120-bit exponents
#: and seeds) and of the field itself.
EDGE_SECRETS = [0, 1, 2**120 - 1, 2**120, SHAMIR_PRIME - 1]


class _WordRng:
    """Stands in for a Generator's ``bytes``: serves a fixed cycle of
    16-byte coefficient words, so adversarial coefficients can be forced."""

    def __init__(self, words):
        self._blob = b"".join(w.to_bytes(16, "little") for w in words)
        self.drawn = 0

    def bytes(self, n):
        start = self.drawn % len(self._blob)
        self.drawn += n
        return (self._blob * (2 + n // len(self._blob)))[start:start + n]


@pytest.mark.parametrize("num_shares", [40, 100])
def test_share_secrets_batch_matches_scalar_at_operating_size(num_shares):
    """Sec. 6 operating size: 80 secrets (40 devices x (s, b)), t=27 —
    and n=100.  Half of the drawn 128-bit words are >= p and enter the
    limbs unreduced; the shares and the rng position still match."""
    from repro.secagg.shamir import share_secrets_batch

    threshold = 27
    rnd = np.random.default_rng(7)
    secrets = EDGE_SECRETS + [
        int.from_bytes(rnd.bytes(15), "little") for _ in range(75)
    ]
    words = np.frombuffer(
        np.random.default_rng(2019).bytes(16 * 80 * (threshold - 1)), "<u8"
    ).reshape(-1, 2)
    assert (words[:, 1] >> np.uint64(63)).any()   # some words are >= p
    rng, rng2 = np.random.default_rng(2019), np.random.default_rng(2019)
    ys = share_secrets_batch(secrets, num_shares, threshold, rng)
    for secret, row in zip(secrets, ys):
        assert row == [
            sh.y for sh in share_secret(secret, num_shares, threshold, rng2)
        ]
    assert rng.bytes(16) == rng2.bytes(16)


def test_share_secrets_batch_adversarial_coefficient_words():
    """Coefficient words at 2^128 - 1, p, p + 1, 2^127 and 0 — the
    largest limbs Horner can meet, and values that reduce to 0 and 1."""
    from repro.secagg.shamir import share_secrets_batch

    words = [2**128 - 1, SHAMIR_PRIME, SHAMIR_PRIME + 1, 2**127, 0]
    rng, rng2 = _WordRng(words), _WordRng(words)
    ys = share_secrets_batch(EDGE_SECRETS * 16, 100, 27, rng)
    for secret, row in zip(EDGE_SECRETS * 16, ys):
        assert row == [sh.y for sh in share_secret(secret, 100, 27, rng2)]
    assert rng.drawn == rng2.drawn


def test_share_secrets_batch_draws_nothing_when_nothing_is_drawn():
    from repro.secagg.shamir import share_secrets_batch

    for secrets, threshold in (([], 3), ([5, 6], 1)):
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        share_secrets_batch(secrets, 4, threshold, rng)
        assert rng.bit_generator.state == before


def test_share_secrets_batch_validation(rng):
    from repro.secagg.shamir import share_secrets_batch

    with pytest.raises(ValueError, match="threshold"):
        share_secrets_batch([1], 5, 0, rng)
    with pytest.raises(ValueError, match="at least threshold"):
        share_secrets_batch([1], 2, 3, rng)
    with pytest.raises(ValueError, match="field range"):
        share_secrets_batch([1, -1], 5, 3, rng)
    assert share_secrets_batch([], 5, 3, rng) == []


def test_reconstruct_secrets_batch_matches_scalar(rng):
    from repro.secagg.shamir import reconstruct_secrets_batch

    secrets = [7, 2**119 + 3, 12345678901234567890]
    n, t = 8, 5
    all_shares = [share_secret(s, n, t, rng) for s in secrets]
    xs = [2, 4, 5, 7, 8]
    recon = reconstruct_secrets_batch(
        xs, [[shares[x - 1].y for x in xs] for shares in all_shares]
    )
    assert recon == secrets
    for shares in all_shares:
        assert reconstruct_secret([shares[x - 1] for x in xs]) in secrets
    with pytest.raises(ValueError, match="share count"):
        reconstruct_secrets_batch([1, 2], [[5]])


# -- the plane's lazy shares and one-reduction reconstruction ------------------


def convert_at(xs, lo, hi):
    """The plane's round-3 read: the halves at ``xs`` (1-based), as field
    elements, one row per secret."""
    from repro.secagg.field import field_values

    cols = [x - 1 for x in xs]
    return field_values(lo[:, cols], hi[:, cols])


@given(
    cohort=st.integers(min_value=2, max_value=60),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_share_halves_at_any_x_set_are_the_batch_shares(cohort, data):
    """Round 1 keeps its shares as uint64 halves and round 3 converts an
    x-set of them: at any x-set those are ``share_secrets_batch``'s
    shares, from the same draws."""
    from repro.secagg.shamir import share_secrets_batch, share_secrets_words

    threshold = data.draw(st.integers(min_value=2, max_value=cohort))
    secrets = data.draw(st.lists(
        st.integers(0, SHAMIR_PRIME - 1), min_size=1, max_size=6
    ))
    xs = data.draw(st.lists(
        st.integers(1, cohort), min_size=1, max_size=cohort, unique=True
    ))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng, rng2 = np.random.default_rng(seed), np.random.default_rng(seed)
    lo, hi = share_secrets_words(secrets, cohort, threshold, rng)
    ys = share_secrets_batch(secrets, cohort, threshold, rng2)
    assert convert_at(xs, lo, hi) == [[row[x - 1] for x in xs] for row in ys]
    assert rng.bytes(16) == rng2.bytes(16)


def test_share_halves_with_adversarial_coefficient_words():
    """The words of the adversarial-coefficient test, at every x and at
    a scattered x-set: the halves convert to the reference's shares."""
    from repro.secagg.shamir import share_secrets_words

    words = [2**128 - 1, SHAMIR_PRIME, SHAMIR_PRIME + 1, 2**127, 0]
    rng, rng2 = _WordRng(words), _WordRng(words)
    lo, hi = share_secrets_words(EDGE_SECRETS * 16, 100, 27, rng)
    reference = [
        [sh.y for sh in share_secret(secret, 100, 27, rng2)]
        for secret in EDGE_SECRETS * 16
    ]
    for xs in (list(range(1, 101)), [100, 1, 57, 2, 99, 3]):
        assert convert_at(xs, lo, hi) == [[row[x - 1] for x in xs] for row in reference]
    assert rng.drawn == rng2.drawn


def reconstruct_per_step(xs, ys_per_secret):
    """The per-step form the plane's reconstruction replaced: every
    Lagrange denominator and every dot-product step reduced mod p."""
    p = SHAMIR_PRIME
    lambdas = []
    for i, xi in enumerate(xs):
        num = den = 1
        for j, xj in enumerate(xs):
            if i != j:
                num = (num * -xj) % p
                den = (den * (xi - xj)) % p
        lambdas.append(num * pow(den, p - 2, p) % p)
    out = []
    for ys in ys_per_secret:
        acc = 0
        for y, lam in zip(ys, lambdas):
            acc = (acc + y * lam) % p
        out.append(acc)
    return out


@pytest.mark.parametrize("xs", [
    [1, 2, 3], [5, 2, 9, 11, 60], list(range(1, 25)),
    [2**32 - 1, 1, 2**31], list(range(40, 0, -1)),
])
def test_one_reduction_reconstruction_equals_per_step(xs, rng):
    """One reduction per secret and per denominator gives the per-step
    values, on random shares and on edge ones (0, 1, p - 1, 2^126)."""
    from repro.secagg.field import lagrange_coefficients_at_zero
    from repro.secagg.shamir import reconstruct_secrets_batch

    edges = [0, 1, SHAMIR_PRIME - 1, 2**126]
    ys_per_secret = [
        [int(v) % SHAMIR_PRIME for v in rng.integers(0, 2**63, size=len(xs))]
        for _ in range(4)
    ] + [[edge] * len(xs) for edge in edges] + [
        [edges[i % 4] for i in range(len(xs))]
    ]
    assert reconstruct_secrets_batch(xs, ys_per_secret) == reconstruct_per_step(
        xs, ys_per_secret
    )
    assert lagrange_coefficients_at_zero(xs) == reconstruct_per_step(
        xs, [[int(i == j) for j in range(len(xs))] for i in range(len(xs))]
    )
