"""Remote attestation (Sec. 3).

"We want devices to participate in FL anonymously, which excludes the
possibility of authenticating them via a user identity ... we need to
protect against attacks to influence the FL result from non-genuine
devices.  We do so by using Android's remote attestation mechanism."

The simulation models the SafetyNet flow: genuine devices hold a
platform-issued key whose fingerprint the service knows; tokens are
nonce-bound MACs under that key.  Compromised devices hold self-made keys
and fail verification — exercising the data-poisoning defence without
real hardware-backed keystores.

A fleet runs one token round per device, when the idle plane enrolls its
row (``VectorizedIdlePlane.adopt_rows``): the verdict is deterministic,
so the plane caches it and every Selector screen reads the cache.  A
rejected device is counted once, under its Selector route's
``rejected_attestation``, at each check-in the screen bounces.
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
