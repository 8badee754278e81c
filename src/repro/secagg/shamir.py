"""Shamir secret sharing over GF(2^127 - 1).

Used in the ShareKeys round: each device shares its pairwise-mask DH
secret key and its self-mask seed among the cohort with threshold ``t``,
so the server can later recover *either* the pairwise key of a dropped
device *or* the self mask of a surviving one — never both.

Both directions are batched over every secret of a round; the
per-polynomial ``share_secret`` / ``reconstruct_secret`` they are
bit-identical to live in the reference protocol
(``tests/reference/secagg.py``).
"""

from __future__ import annotations

import numpy as np

from repro.secagg.field import (
    SHAMIR_PRIME,
    coefficient_words,
    eval_polynomial_words,
    lagrange_coefficients_at_zero,
)


def share_secrets_batch(
    secrets: list[int],
    num_shares: int,
    threshold: int,
    rng: np.random.Generator,
) -> list[list[int]]:
    """Share many secrets at once; returns ``ys[i][x-1]`` for x=1..n.

    Coefficients are drawn from ``rng`` secret-by-secret in list order —
    exactly the draws per-secret sharing would make called sequentially
    (16 bytes per coefficient) — so the rng stays on the reference
    protocol's trajectory, and share ``(x, ys[i][x-1])`` is bit-identical
    to the reference's; only the evaluation is stacked.
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
    # 16*N — the rng lands at exactly the per-secret path's stream
    # position.  The words feed the limbs unreduced: reducing each
    # coefficient `% prime` first does not change a share.  An empty draw
    # still moves the generator, so none is made when there is nothing
    # to draw.
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
    one batched inversion), each secret is an O(t) dot product, equal to
    per-secret Lagrange interpolation.
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
