"""Diffie–Hellman agreement symmetry: the reference protocol's per-device
``pow`` and the batched kernels the plane runs."""

import numpy as np
import pytest

from reference.secagg import agree, generate_keypair, public_key_of
from repro.secagg.dh import (
    DH_GENERATOR,
    DH_PRIME,
    _GENERATOR_TABLE,
    agree_pairs_batch,
)
from repro.secagg.field import SECRET_BITS, SHAMIR_PRIME


def test_agreement_is_symmetric(rng):
    alice = generate_keypair(rng)
    bob = generate_keypair(rng)
    assert agree(alice.secret, bob.public) == agree(bob.secret, alice.public)


def test_distinct_pairs_get_distinct_keys(rng):
    a, b, c = (generate_keypair(rng) for _ in range(3))
    assert agree(a.secret, b.public) != agree(a.secret, c.public)


def test_public_key_recomputable_from_secret(rng):
    """The server re-derives a dropped device's public key to verify the
    reconstructed secret (protocol round 3)."""
    pair = generate_keypair(rng)
    assert public_key_of(pair.secret) == pair.public


def test_secrets_fit_in_shamir_field(rng):
    for _ in range(20):
        pair = generate_keypair(rng)
        assert 0 < pair.secret < SHAMIR_PRIME
        assert pair.secret.bit_length() <= SECRET_BITS


def test_agreed_keys_fit_in_shamir_field(rng):
    a, b = generate_keypair(rng), generate_keypair(rng)
    key = agree(a.secret, b.public)
    assert 0 <= key < SHAMIR_PRIME


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.Philox])
def test_one_draw_sliced_at_word_strides_is_the_sequential_draws(bit_generator):
    """numpy's ``bytes()`` spends whole 4-byte words, so ``n`` sequential
    15-byte secret draws are the 16-byte-strided slices of one
    ``bytes(16 n)`` and leave the stream where it leaves it — what lets
    the vectorized plane make a group's secret draws as one.  (Philox is
    the generator the fleet's registry hands out.)"""
    width = SECRET_BITS // 8
    for n in (1, 3, 105):
        sequential = np.random.Generator(bit_generator(11))
        one_draw = np.random.Generator(bit_generator(11))
        # An odd number of words first, in case a half-used output word
        # is carried into the next draw.
        assert sequential.bytes(3) == one_draw.bytes(3)
        draws = [sequential.bytes(width) for _ in range(n)]
        blob = one_draw.bytes(16 * n)
        assert draws == [blob[16 * i : 16 * i + width] for i in range(n)]
        assert sequential.bytes(16) == one_draw.bytes(16)


def test_agree_pairs_batch_matches_agree(rng):
    """The product trick — agree(a, g^b) == H(g^(a*b)) — is an exact
    group identity, so the both-secrets path must be bit-identical."""
    pairs = [(generate_keypair(rng), generate_keypair(rng))
             for _ in range(12)]
    keys = agree_pairs_batch([(a.secret, b.secret) for a, b in pairs])
    assert keys == [agree(a.secret, b.public) for a, b in pairs]
    assert agree_pairs_batch([]) == []


def test_public_keys_batch_matches_scalar(rng):
    """The batched table computes the reference's public keys, and round
    3 may compare exponents instead of them: g's order exceeds 2^251, so
    two secret exponents (both below 2^127) share a public key only when
    they are equal.  The order is read off the factored ``p - 1``."""
    secrets = [generate_keypair(rng).secret for _ in range(9)]
    assert _GENERATOR_TABLE.pow_batch(secrets) == [
        public_key_of(s) for s in secrets
    ]
    big = 74058212732561358302231226437062788676166966415465897661863160754340907
    assert all(pow(a, big - 1, big) == 1 for a in (2, 3, 5, 7, 11))  # prime
    factors = [2, 2, 3, 65147, big]
    assert 12 * 65147 * big == DH_PRIME - 1
    order = DH_PRIME - 1
    for q in factors:
        if pow(DH_GENERATOR, order // q, DH_PRIME) == 1:
            order //= q
    assert pow(DH_GENERATOR, order, DH_PRIME) == 1
    assert order.bit_length() > 251
