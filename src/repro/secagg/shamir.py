"""Shamir secret sharing over GF(2^127 - 1).

Used in the ShareKeys round: each device shares its pairwise-mask DH
secret key and its self-mask seed among the cohort with threshold ``t``,
so the server can later recover *either* the pairwise key of a dropped
device *or* the self mask of a surviving one — never both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.secagg.field import (
    SHAMIR_PRIME,
    coefficient_words,
    eval_polynomial,
    eval_polynomial_words,
    lagrange_coefficients_at_zero,
    mod_inverse,
)


@dataclass(frozen=True)
class ShamirShare:
    """One share ``(x, f(x))`` of a degree-(t-1) polynomial."""

    x: int
    y: int

    def __post_init__(self) -> None:
        if self.x == 0:
            raise ValueError("share index 0 would leak the secret")


def share_secret(
    secret: int,
    num_shares: int,
    threshold: int,
    rng: np.random.Generator,
    prime: int = SHAMIR_PRIME,
) -> list[ShamirShare]:
    """Split ``secret`` into ``num_shares`` shares, any ``threshold`` of
    which reconstruct it."""
    if not 0 <= secret < prime:
        raise ValueError("secret out of field range")
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    if num_shares < threshold:
        raise ValueError(
            f"need at least threshold={threshold} shares, got {num_shares}"
        )
    # Random degree-(threshold-1) polynomial with constant term = secret.
    coeffs = [secret] + [
        int.from_bytes(rng.bytes(16), "little") % prime
        for _ in range(threshold - 1)
    ]
    return [
        ShamirShare(x=i, y=eval_polynomial(coeffs, i, prime))
        for i in range(1, num_shares + 1)
    ]


def share_secrets_batch(
    secrets: list[int],
    num_shares: int,
    threshold: int,
    rng: np.random.Generator,
) -> list[list[int]]:
    """Share many secrets at once; returns ``ys[i][x-1]`` for x=1..n.

    Coefficients are drawn from ``rng`` secret-by-secret in list order —
    exactly the draws ``share_secret`` would make called sequentially —
    so a batched caller stays on the scalar path's RNG trajectory.  The
    share values are bit-identical to the scalar path's
    (``ShamirShare(x, ys[i][x-1])``); only the evaluation is stacked.
    """
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    if num_shares < threshold:
        raise ValueError(
            f"need at least threshold={threshold} shares, got {num_shares}"
        )
    for secret in secrets:
        if not 0 <= secret < SHAMIR_PRIME:
            raise ValueError("secret out of field range")
    # One bulk draw replaces the per-coefficient rng.bytes(16) calls.
    # 16 bytes is a whole number of the generator's output words, so the
    # concatenation of N sequential draws is byte-for-byte one draw of
    # 16*N — the rng lands at exactly the scalar path's stream position.
    # The words feed the limbs unreduced: the scalar path's `% prime`
    # does not change a share.  An empty draw still moves the generator,
    # so none is made when there is nothing to draw.
    total = len(secrets) * (threshold - 1)
    words = np.empty((len(secrets), threshold, 2), dtype=np.uint64)
    words[:, 0] = coefficient_words(secrets)
    if total:
        words[:, 1:] = np.frombuffer(
            rng.bytes(16 * total), dtype="<u8"
        ).reshape(len(secrets), threshold - 1, 2)
    return eval_polynomial_words(words, list(range(1, num_shares + 1)))


def reconstruct_secrets_batch(
    xs: list[int], ys_per_secret: list[list[int]]
) -> list[int]:
    """Reconstruct many secrets whose shares sit at the same x-set.

    One protocol instance reconstructs every seed from the same first-t
    responders, so the Lagrange basis at 0 is shared: computed once (with
    one batched inversion), each secret is an O(t) dot product.  Results
    are bit-identical to per-secret :func:`reconstruct_secret` calls.
    """
    lambdas = lagrange_coefficients_at_zero(xs)
    out = []
    for ys in ys_per_secret:
        if len(ys) != len(xs):
            raise ValueError("share count does not match x-set")
        acc = 0
        for y, lam in zip(ys, lambdas):
            acc = (acc + y * lam) % SHAMIR_PRIME
        out.append(acc)
    return out


def reconstruct_secret(
    shares: list[ShamirShare], prime: int = SHAMIR_PRIME
) -> int:
    """Lagrange interpolation at x=0."""
    if not shares:
        raise ValueError("no shares provided")
    xs = [s.x for s in shares]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate share indices")
    secret = 0
    for i, share_i in enumerate(shares):
        num = 1
        den = 1
        for j, share_j in enumerate(shares):
            if i == j:
                continue
            num = (num * (-share_j.x)) % prime
            den = (den * (share_i.x - share_j.x)) % prime
        secret = (secret + share_i.y * num * mod_inverse(den, prime)) % prime
    return secret
