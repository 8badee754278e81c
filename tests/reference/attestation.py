"""The per-device attestation token round: one frozen ``AttestationToken``
per check-in, issued by the device and verified by the server, kept as
the oracle :meth:`repro.device.attestation.AttestationService.attest` is
tested against (``tests/device/test_attestation.py``).  No fleet runs it.

It carries its own key derivation and signing, so the oracle shares no
kernel with the batched round it checks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class AttestationToken:
    """A nonce-bound proof of device genuineness (PII-free)."""

    device_id: int
    nonce: int
    signature: bytes


def _device_key(platform_secret: bytes, device_id: int) -> bytes:
    return hashlib.sha256(
        platform_secret + device_id.to_bytes(8, "little")
    ).digest()


def _sign(key: bytes, device_id: int, nonce: int) -> bytes:
    return hashlib.sha256(
        key + device_id.to_bytes(8, "little") + nonce.to_bytes(8, "little")
    ).digest()


class AttestationService:
    """Server-side verifier plus the (simulated) platform key authority."""

    def __init__(self, platform_secret: bytes = b"platform-root-of-trust"):
        self._platform_secret = platform_secret
        self._nonce_counter = 0

    # -- device side -------------------------------------------------------------
    def issue_token(self, device_id: int, genuine: bool) -> AttestationToken:
        """Create the token a device presents at check-in.

        Genuine devices sign with the platform-derived key; compromised
        ones can only fabricate a key (and thus an invalid signature).
        """
        self._nonce_counter += 1
        nonce = self._nonce_counter
        if genuine:
            key = _device_key(self._platform_secret, device_id)
        else:
            key = hashlib.sha256(b"forged" + device_id.to_bytes(8, "little")).digest()
        return AttestationToken(
            device_id=device_id, nonce=nonce, signature=_sign(key, device_id, nonce)
        )

    # -- server side -------------------------------------------------------------
    def verify(self, token: AttestationToken) -> bool:
        key = _device_key(self._platform_secret, token.device_id)
        return _sign(key, token.device_id, token.nonce) == token.signature
