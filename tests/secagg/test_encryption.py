"""Share transport encryption: roundtrip and tamper detection."""

import dataclasses

import pytest

from reference.secagg import AuthenticationError, decrypt, encrypt


def test_roundtrip():
    ct = encrypt(key=12345, sender_id=1, recipient_id=2, plaintext=b"hello shares")
    assert decrypt(12345, ct) == b"hello shares"


def test_wrong_key_fails_authentication():
    ct = encrypt(key=12345, sender_id=1, recipient_id=2, plaintext=b"data")
    with pytest.raises(AuthenticationError):
        decrypt(54321, ct)


def test_tampered_body_detected():
    ct = encrypt(key=9, sender_id=1, recipient_id=2, plaintext=b"payload")
    tampered = dataclasses.replace(ct, body=bytes([ct.body[0] ^ 1]) + ct.body[1:])
    with pytest.raises(AuthenticationError):
        decrypt(9, tampered)


def test_rerouted_ciphertext_detected():
    """Swapping recipient ids invalidates the MAC (misrouting defence)."""
    ct = encrypt(key=9, sender_id=1, recipient_id=2, plaintext=b"x" * 40)
    rerouted = dataclasses.replace(ct, recipient_id=3)
    with pytest.raises(AuthenticationError):
        decrypt(9, rerouted)


def test_ciphertext_hides_plaintext():
    plaintext = b"\x00" * 64
    ct = encrypt(key=7, sender_id=1, recipient_id=2, plaintext=plaintext)
    assert ct.body != plaintext


def test_long_payloads():
    payload = bytes(range(256)) * 10
    ct = encrypt(key=3, sender_id=5, recipient_id=6, plaintext=payload)
    assert decrypt(3, ct) == payload
